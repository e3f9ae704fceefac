"""Tests for CSM semantics, exploration, and the projection oracle."""

import pytest

from amp.core import StateMachine, recv, send
from amp.csm import (Csm, _Kernel, check_projection, csm_from_json,
                     csm_language_upto, csm_to_dot, dump_csm, explore,
                     load_csm, simulate, step, word_embeds)
from amp.fifo import VIOLATION, is_fifo, swap_step
from amp.psm import validate

from .conftest import kle_machine, three_party_csm, three_party_machine
from .json_reference import csm_to_json
from .semantics import initial_config, parse_word


def test_component_alphabet_enforced():
    with pytest.raises(ValueError):
        Csm({"p": StateMachine({"a"}, "a", set(),
                               [("a", send("q", "r", "m"), "a")])})


def test_step_initial_successors():
    csm = three_party_csm()
    moves = step(csm, initial_config(csm))
    events = [str(ev) for ev, _ in moves if ev is not None]
    assert events == ["p>q!m1", "p>q!m2", "p>q!m3"]


def test_step_receive_needs_matching_head():
    csm = three_party_csm()
    config = initial_config(csm)
    after_send = [succ for ev, succ in step(csm, config)
                  if ev == send("p", "q", "m1")][0]
    follow = [ev for ev, _ in step(csm, after_send) if ev is not None]
    assert recv("p", "q", "m1") in follow
    assert recv("p", "q", "m2") not in follow


def test_explore_good_instance_deadlock_free():
    report = explore(three_party_csm(), queue_cap=2)
    assert not report.deadlocks
    assert report.finals
    # The loop branch lets the chooser run one lap ahead, so a cap of
    # one message per channel truncates without creating deadlocks.
    capped = explore(three_party_csm(), queue_cap=1)
    assert not capped.deadlocks and capped.truncated


def test_explore_finds_reply_mismatch_deadlock():
    report = explore(three_party_csm(v1="v1", v2="v2"), queue_cap=2)
    assert report.deadlocks
    witness = report.witness(report.deadlocks[0])
    assert is_fifo(witness).status != VIOLATION


def test_trivial_csm_single_final_config():
    csm = Csm({"p": StateMachine({"a"}, "a", {"a"}, []),
               "q": StateMachine({"b"}, "b", {"b"}, [])})
    report = explore(csm)
    assert len(report.configs) == 1 and report.finals and not report.deadlocks


def test_every_deadlock_is_soft():
    report = explore(three_party_csm(v1="v1", v2="v2"), queue_cap=2)
    assert report.deadlocks
    for config in report.deadlocks:
        assert config in report.soft_deadlocks


def test_check_csm_reads_build_no_public_view(monkeypatch):
    """The count, the deadlock lists, the flag and the first witness,
    which `check-csm` reads, leave `configs` unbuilt, and build only
    the configurations those lists hold."""
    built = []
    public = _Kernel.public
    monkeypatch.setattr(_Kernel, "public", lambda self, config: (
        built.append(config), public(self, config))[1])
    report = explore(three_party_csm(v1="v1", v2="v2"), queue_cap=2)
    assert len(report) > 10 and report.truncated
    assert report.witness(report.deadlocks[0])
    assert report._configs is None
    listed = report.deadlocks + report.soft_deadlocks + report.finals
    assert len(built) == len(listed) < len(report)


def test_language_contains_kle_prefix():
    from amp.projection import project_tame
    result = project_tame(validate(kle_machine()))
    words = csm_language_upto(result.csm, 6)
    prefix = parse_word("e>o!0 o>e!0 e>o?0 o>e?0")
    assert prefix in words


def test_language_closed_under_swaps():
    words = csm_language_upto(three_party_csm(), 6)
    for word in list(words):
        for i in range(len(word) - 1):
            swapped = swap_step(word, i)
            if swapped is not None:
                assert swapped in words, (word, i)


def test_word_embeds_allows_runahead():
    machine = three_party_machine()
    runahead = parse_word("p>q!m3 p>q?m3 q>r!3 p>r!v3 p>q!m3")
    assert word_embeds(machine, runahead)
    assert not word_embeds(machine, parse_word("p>q!m1 p>q!m1"))
    assert not word_embeds(machine, parse_word("p>q?m1"))


def test_word_embeds_matches_brute_force_prefixes(rng):
    """The embedding oracle agrees with closure-enumerated prefixes."""
    from amp.fifo import closure_upto
    from amp.core import maximal_traces_upto
    for machine in (three_party_machine(), kle_machine()):
        psm = validate(machine)
        bound = 4
        brute = set()
        for w in closure_upto(set(maximal_traces_upto(psm.machine, 3 * bound))):
            for i in range(min(len(w), bound) + 1):
                brute.add(w[:i])
        brute = {w for w in brute if len(w) <= bound}
        for w in brute:
            assert word_embeds(psm.machine, w)
        alphabet = sorted(psm.machine.alphabet(), key=lambda e: e.sort_key())
        pool = sorted(brute, key=str)
        for _ in range(600):
            w = pool[rng.randrange(len(pool))] +                 (alphabet[rng.randrange(len(alphabet))],)
            if len(w) > bound:
                continue
            assert word_embeds(psm.machine, w) == (w in brute),                 [str(e) for e in w]


def test_check_projection_positive():
    psm = validate(three_party_machine())
    verdict = check_projection(psm, three_party_csm(), 6)
    assert verdict.passed, verdict.reasons


def test_check_projection_rejects_label_merge():
    """With the second and third labels equal, the relay guesses."""
    psm = validate(three_party_machine(m2="m2", m3="m2"))
    verdict = check_projection(psm, three_party_csm(m3="m2"), 6)
    assert not verdict.passed


def test_check_projection_trivial():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    csm = Csm({"p": StateMachine({"x"}, "x", {"x"}, []),
               "q": StateMachine({"y"}, "y", {"y"}, [])})
    assert check_projection(validate(machine), csm, 4).passed


def test_step_is_a_deterministic_set():
    csm = three_party_csm()
    config = initial_config(csm)
    assert step(csm, config) == step(csm, config)
    for _, succ in step(csm, config):
        assert step(csm, succ) == step(csm, succ)


def test_simulate_deterministic_and_legal():
    csm = three_party_csm()
    t1 = simulate(csm, seed=0, max_steps=40)
    t2 = simulate(csm, seed=0, max_steps=40)
    assert t1 == t2
    assert is_fifo(t1).status != VIOLATION
    assert simulate(csm, seed=0, max_steps=0) == ()
    words = csm_language_upto(csm, 5)
    assert t1[:5] in words


def test_csm_json_roundtrip():
    csm = three_party_csm()
    again = csm_from_json(csm_to_json(csm))
    assert again == csm
    assert load_csm(dump_csm(csm)) == csm


def test_dot_export_escapes_quotes_and_backslashes():
    csm = Csm({"p": StateMachine(['s"1', "b\\2"], 's"1', ["b\\2"],
                                 [('s"1', send("p", "q", 'a"b\\c'), "b\\2")]),
               "q": StateMachine(["t"], "t", ["t"],
                                 [("t", recv("p", "q", 'a"b\\c'), "t")])})
    assert csm_to_dot(csm, name='n"x').splitlines() == [
        r'digraph "n\"x" {',
        "  rankdir=LR;",
        '  subgraph "cluster_p" {',
        '    label="p";',
        '    "p__start" [shape=point];',
        r'    "p:b\\2" [label="b\\2", shape=doublecircle];',
        r'    "p:s\"1" [label="s\"1", shape=circle];',
        r'    "p__start" -> "p:s\"1";',
        r'    "p:s\"1" -> "p:b\\2" [label="p>q!a\"b\\c"];',
        "  }",
        '  subgraph "cluster_q" {',
        '    label="q";',
        '    "q__start" [shape=point];',
        '    "q:t" [label="t", shape=doublecircle];',
        '    "q__start" -> "q:t";',
        r'    "q:t" -> "q:t" [label="p>q?a\"b\\c"];',
        "  }",
        "}"]


def test_dot_nodes_are_unique_across_components():
    """A participant whose name holds a colon can make two components
    name a node alike: `a:b`'s start marker and state `c` against `a`'s
    states `b__start` and `b:c`.  The later node takes the first free
    name of `name_`, `name__`, ..."""
    csm = Csm({"a": StateMachine(["b__start", "b:c"], "b__start", ["b:c"],
                                 [("b__start", send("a", "a:b", "m"), "b:c")]),
               "a:b": StateMachine(["c", "d"], "c", ["d"],
                                   [("c", recv("a", "a:b", "m"), "d")])})
    assert csm_to_dot(csm).splitlines() == [
        'digraph "csm" {',
        "  rankdir=LR;",
        '  subgraph "cluster_a" {',
        '    label="a";',
        '    "a__start" [shape=point];',
        '    "a:b:c" [label="b:c", shape=doublecircle];',
        '    "a:b__start" [label="b__start", shape=circle];',
        '    "a__start" -> "a:b__start";',
        '    "a:b__start" -> "a:b:c" [label="a>a:b!m"];',
        "  }",
        '  subgraph "cluster_a:b" {',
        '    label="a:b";',
        '    "a:b__start_" [shape=point];',
        '    "a:b:c_" [label="c", shape=circle];',
        '    "a:b:d" [label="d", shape=doublecircle];',
        '    "a:b__start_" -> "a:b:c_";',
        '    "a:b:c_" -> "a:b:d" [label="a>a:b?m"];',
        "  }",
        "}"]
