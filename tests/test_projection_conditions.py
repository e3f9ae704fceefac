"""The subset projection conditions against the bounded oracle.

`project_tame` decides on Send Validity, Receive Validity and the
conditions around them, and reports a rejection by the condition that
failed; it never runs the bounded oracle.
`projection_reference.project_tame` is the projection as it stood
before, which accepts only after `csm.check_projection`.  Both run here
on the corpus, the negative controls, the benchmark's generator
families and 1,200 random protocols, and must give the same verdict:
the same `dump_csm` bytes on acceptance, and the same report where
both reject on the final-state filter or the tameness gate.  Where the
conditions reject a protocol that the oracle accepts at `k`, the oracle
must find the fault by k = 12.

The amicability check is compared the same way with the trace-bounded
one it replaced, `projection_reference.is_amicable`.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from amp import csm
from amp.cli import _load_machine, main
from amp.core import StateMachine, load_machine, recv, send
from amp.csm import dump_csm
from amp.encoding import encode_psm, is_amicable
from amp.projection import (NotProjectable, NotTame, minimize, project_tame,
                            subset_construction)
from amp.psm import UnboundedLoop, infer_channel_bounds, validate
from amp.transform import global_to_psm, make_sink_final, parse_global_type
from perfbench import generators as gen

from . import projection_reference as reference
from .conftest import (kle_machine, random_sender_driven_tree,
                       random_tame_psm, three_party_machine)
from .test_walkers import PROTOCOLS, PSM_SOURCES

DEEPEST = 12
FILTER = "check check_validity"


def outcome(project, psm, **options) -> tuple[str, str]:
    try:
        result = project(psm, **options)
    except (NotProjectable, NotTame) as exc:
        return type(exc).__name__, str(exc)
    return "ok", dump_csm(result.csm)


def verdicts(psm, k: int) -> str:
    """How the conditions and the oracle judge `psm`, which they must
    agree on: "ok", "filter" (a report of `check_validity`),
    "condition" (a report of one of the other conditions, where the
    oracle rejects too), "NotTame", or "deep" when only the conditions
    reject at `k` and the oracle finds the fault deeper."""
    new = outcome(project_tame, psm)
    old = outcome(reference.project_tame, psm, k=k)
    if new[0] == "NotProjectable" and not new[1].startswith(FILTER):
        if old[0] == "ok":
            assert any(outcome(reference.project_tame, psm, k=deeper)[0]
                       == "NotProjectable"
                       for deeper in range(k + 1, DEEPEST + 1)), new[1]
            return "deep"
        assert old[0] == "NotProjectable" and not old[1].startswith(FILTER)
        return "condition"
    assert new == old
    return "filter" if new[0] == "NotProjectable" else new[0]


def odd_ring_totals() -> StateMachine:
    """Three sends on a ring of two: the counters end away from zero."""
    return StateMachine(
        {"k0", "k1", "k2", "k3", "k4", "k5", "k6"}, "k0", {"k6"},
        [("k0", send("p", "q", "a"), "k1"), ("k1", send("p", "q", "b"), "k2"),
         ("k2", recv("p", "q", "a"), "k3"), ("k3", recv("p", "q", "b"), "k4"),
         ("k4", send("p", "q", "c"), "k5"), ("k5", recv("p", "q", "c"), "k6")])


def forwarder_clash() -> StateMachine:
    """A burst of two on p>q, then a participant that has the name of
    the channel's first forwarder sends to r."""
    clash = "(p,q)0"
    return StateMachine(
        [f"w{i}" for i in range(7)], "w0", ["w6"],
        [("w0", send("p", "q", "a"), "w1"), ("w1", send("p", "q", "b"), "w2"),
         ("w2", recv("p", "q", "a"), "w3"), ("w3", recv("p", "q", "b"), "w4"),
         ("w4", send(clash, "r", "x"), "w5"), ("w5", recv(clash, "r", "x"), "w6")])


def gt(text: str) -> StateMachine:
    return global_to_psm(parse_global_type(text))


# one protocol failing each condition, with its report
FAILING = {
    "send validity": (gt("( c->d:a . p->r:x . 0 + c->d:b . p->r:z . 0 )"),
                      "send validity: p may send p>r!x after ε, which not "
                      "every run allows"),
    "mixed state": (gt("( c->d:a . p->r:x . 0 + c->p:y . 0 )"),
                    "send validity: p may send p>r!x after ε where it must "
                    "first receive c>p?y"),
    "receive validity": (
        gt("( c->q2:a . q2->p:n . q1->p:m . 0 + c->q1:b . q1->p:m . 0 )"),
        "receive validity: p may receive q1>p?m after ε where it must "
        "receive q2>p?n"),
    "lost final state": (odd_ring_totals(),
                         "encoding loses final state k6|s:(p,q)=1|r:(p,q)=1 "
                         "after p->(p,q)0:a p->(p,q)1:b (p,q)0->q:a "
                         "(p,q)1->q:b p->(p,q)0:c (p,q)0->q:c"),
    "named like a forwarder": (
        load_machine((PROTOCOLS / "kle_encoded.psm.json").read_text()),
        "participant (e,o)0 is named like a forwarder"),
}


# -- agreement --------------------------------------------------------------------


@pytest.mark.parametrize("path", PSM_SOURCES, ids=lambda p: p.name)
def test_conditions_agree_with_the_oracle_on_the_corpus(path):
    k = 8 if path.name.startswith("kle") else 6
    assert verdicts(validate(_load_machine(str(path))), k) != "deep"


def test_conditions_agree_with_the_oracle_on_the_negative_controls():
    lose = gt("( a->p:sel . q->p:lose . 0 + a->q:sel . p->q:lose . 0 )")
    toy = gt("( p->q:a . 0 + q->p:b . 0 )")
    non_sink_final = StateMachine(
        {"a", "b", "c"}, "a", {"a", "c"},
        [("a", send("p", "q", "m"), "b"), ("b", recv("p", "q", "m"), "c")])
    cases = [
        (three_party_machine(), 6, "ok"),
        (three_party_machine(v1="v1", v2="v2"), 6, "condition"),
        (three_party_machine(m2="m2", m3="m2"), 6, "condition"),
        (lose, 6, "condition"),
        (toy, 4, "NotTame"),
        (make_sink_final(toy), 4, "NotTame"),
        (non_sink_final, 4, "NotTame"),
        (gt("( a->p:sel . p->q:win . 0 + a->q:sel . q->p:win . 0 )"), 6,
         "ok"),
        (gt("( p->q:m1 . p->r:m1 . 0 + p->q:m2 . 0 )"), 6, "ok"),
        (kle_machine(), 8, "ok"),
        # a choice that repeats its exchange: the conditions read the
        # determinised protocol, where d makes the choice
        (gt("( c->d:m . d->e:a . 0 + c->d:m . d->e:b . 0 )"), 6, "ok"),
        (gt("( c->d:m . d->e:a . e->c:x . 0 + c->d:m . d->e:b . 0 )"), 6,
         "ok"),
        (odd_ring_totals(), 8, "condition"),
        (forwarder_clash(), 6, "condition"),
    ]
    cases += [(machine, 6, "condition") for machine, _ in FAILING.values()]
    for machine, k, expected in cases:
        assert verdicts(validate(machine), k) == expected


def generated_families():
    rng = random.Random(18)
    for n in (1, 3, 12, 40):
        messages = gen.chain_messages(n, rng)
        yield load_machine(gen.dump(gen.linear_psm(messages)))
        yield gt(gen.global_text(gen.chain_messages(n, rng)))
    for d in (1, 2, 3, 5):
        yield load_machine(gen.dump(gen.diamonds(d, rng)))
    for b in (1, 2, 3, 6):
        yield load_machine(gen.dump(gen.burst(b, rng)))


def test_conditions_agree_with_the_oracle_on_the_generator_families():
    for machine in generated_families():
        assert verdicts(validate(machine), 6) == "ok"


@pytest.mark.parametrize("draw, tally", [
    (random_tame_psm,
     {"ok": 413, "filter": 71, "condition": 99, "NotTame": 17}),
    (random_sender_driven_tree,
     {"ok": 436, "filter": 57, "condition": 106, "deep": 1}),
], ids=["random_tame_psm", "random_sender_driven_tree"])
def test_conditions_agree_with_the_oracle_on_random_protocols(draw, tally):
    rng = random.Random(7)
    seen = Counter(verdicts(validate(draw(rng, max_states=8)), 6)
                   for _ in range(600))
    assert seen == tally


def test_conditions_agree_with_the_oracle_on_the_kernel_corpus_draws():
    """The draws behind `test_csm_kernel.random_projections`, with the
    reference at a bound of 4."""
    rng = random.Random(20240811)
    seen = Counter(verdicts(validate(random_tame_psm(rng)), 4)
                   for _ in range(200))
    assert seen["ok"] >= 6


def test_a_fault_beyond_the_bound_is_reported_by_its_condition():
    """Draw 563 of `random_sender_driven_tree` at Random(7): Receive
    Validity fails, and the oracle first sees it at k = 9."""
    rng = random.Random(7)
    for _ in range(564):
        machine = random_sender_driven_tree(rng, max_states=8)
    psm = validate(machine)
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(psm)
    assert str(excinfo.value) == ("receive validity: q may receive r>q?d "
                                  "after p>q?c where it must receive p>q?c")
    assert [str(ev) for ev in excinfo.value.witness] == ["p>q?c"]
    assert outcome(reference.project_tame, psm, k=8)[0] == "ok"
    assert outcome(reference.project_tame, psm, k=9)[0] == "NotProjectable"


def test_a_condition_witness_is_decoded_like_its_message():
    """Draw 334 of `random_tame_psm` at Random(1), max_states=10, which
    the oracle first rejects at k = 14: the witness names the protocol's
    channels, as the message does, and not the forwarders of the
    encoding."""
    rng = random.Random(1)
    for _ in range(335):
        machine = random_tame_psm(rng, max_states=10)
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(machine))
    word = "q>p?c p>q!ack q>p?c p>q!c p>q!c q>p?b"
    assert str(excinfo.value) == (f"send validity: p may send p>q!c after "
                                  f"{word} where it must first receive "
                                  f"q>p?b")
    assert [str(ev) for ev in excinfo.value.witness] == word.split()


# -- each condition -------------------------------------------------------------


@pytest.mark.parametrize("name", FAILING)
def test_each_condition_reports_itself_when_the_oracle_finds_nothing(name):
    """`project_tame` runs no oracle, so the failed condition's own
    message is the report."""
    machine, message = FAILING[name]
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(machine))
    assert str(excinfo.value) == message


def test_a_shallow_oracle_leaves_the_report_to_the_condition():
    """The reference oracle sees the send validity fault from k = 2;
    the condition reports it whatever the bound."""
    machine, message = FAILING["send validity"]
    psm = validate(machine)
    with pytest.raises(NotProjectable, match=f"^{message}$"):
        project_tame(psm)
    for k in (0, 1):
        assert outcome(reference.project_tame, psm, k=k)[0] == "ok"
    assert outcome(reference.project_tame, psm, k=2)[1].startswith(
        "CSM adds prefix")


def test_project_never_calls_the_oracle_or_the_explorer(monkeypatch):
    """Neither `csm.check_projection` nor `csm.explore` runs, through
    any module that binds them, on the corpus, each failing condition
    and the 1,200 random draws."""
    def refuse(*args, **kwargs):
        raise AssertionError("project_tame explored a CSM")

    for name in ("check_projection", "explore"):
        original = getattr(csm, name)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("amp") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    machines = [_load_machine(str(path)) for path in PSM_SOURCES]
    machines += [machine for machine, _ in FAILING.values()]
    for draw in (random_tame_psm, random_sender_driven_tree):
        rng = random.Random(7)
        machines += [draw(rng, max_states=8) for _ in range(600)]
    seen = Counter(outcome(project_tame, validate(machine))[0]
                   for machine in machines)
    # corpus + FAILING + random_tame_psm + random_sender_driven_tree
    assert seen == {"ok": 7 + 0 + 413 + 436,
                    "NotProjectable": 4 + 5 + 170 + 164,
                    "NotTame": 1 + 0 + 17 + 0}


def test_project_reports_the_conditions(capsys):
    """The three-party choice loops, so the oracle's exploration was cut
    at its queue cap and the report said `boundedOnly`; the conditions
    decide it without a bound."""
    assert main(["project", str(PROTOCOLS / "three_party_choice.gt"),
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert '"validity": "subset projection conditions"' in out
    assert '"boundedOnly": false' in out


# -- amicability ----------------------------------------------------------------


KLE_BOUNDS = {("e", "o"): 1, ("o", "e"): 1}


def components_of(machine: StateMachine, bounds: dict) -> dict:
    encoded = encode_psm(machine, bounds)
    return {name: minimize(subset_construction(encoded, name))
            for name in sorted(encoded.participants())}


def test_subset_components_of_encoding_amicable():
    components = components_of(kle_machine(), KLE_BOUNDS)
    assert set(components) == {"e", "o", "(e,o)0", "(o,e)0"}
    assert is_amicable(components, KLE_BOUNDS)


def test_reference_is_amicable_enumerates_each_sender_once(monkeypatch):
    """A burst of three messages p->q under bound 3 has three forwarders
    for p; kle has one each for e and o."""
    from amp import core
    labels = ("a", "b", "c")
    reads = ["w3", "r1", "r2", "r3"]
    burst = StateMachine(
        ["w0", "w1", "w2"] + reads, "w0", ["r3"],
        [(f"w{i}", send("p", "q", label), f"w{i + 1}")
         for i, label in enumerate(labels)]
        + [(reads[i], recv("p", "q", label), reads[i + 1])
           for i, label in enumerate(labels)])
    real = core.maximal_traces_upto
    enumerated = []
    monkeypatch.setattr(core, "maximal_traces_upto",
                        lambda m, k: enumerated.append(m) or real(m, k))
    for machine, bounds, senders in ((burst, {("p", "q"): 3}, ["p"]),
                                     (kle_machine(), KLE_BOUNDS, ["e", "o"])):
        components = components_of(machine, bounds)
        enumerated.clear()
        assert reference.is_amicable(components, bounds, k=8)
        assert enumerated == [components[p] for p in senders]


def amicability_inputs():
    """The components and bounds of every corpus protocol and random
    tame draw that has forwarders."""
    machines = [_load_machine(str(path)) for path in PSM_SOURCES]
    rng = random.Random(7)
    machines += [random_tame_psm(rng, max_states=8) for _ in range(600)]
    for machine in machines:
        psm = validate(machine)
        try:
            bounds = infer_channel_bounds(psm)
        except UnboundedLoop:
            continue
        if bounds:
            yield components_of(psm.machine, bounds), bounds


def test_amicability_agrees_with_the_bounded_reference():
    checked = 0
    for components, bounds in amicability_inputs():
        assert is_amicable(components, bounds)
        assert reference.is_amicable(components, bounds, k=8)
        checked += 1
    assert checked >= 60


def line(name: str, events, final: bool = True) -> StateMachine:
    """A machine that takes `events` in a row."""
    states = [f"{name}{i}" for i in range(len(events) + 1)]
    return StateMachine(states, states[0], [states[-1]] if final else [],
                        [(states[i], ev, states[i + 1])
                         for i, ev in enumerate(events)])


def forwarder(name: str, source: str, target: str, labels) -> StateMachine:
    """A forwarder that passes on `labels` in this order, and stops."""
    events = []
    for label in labels:
        events += [recv(source, name, label), send(name, target, label)]
    return line(name, events)


RING = {("p", "q"): 2}
F0, F1 = "(p,q)0", "(p,q)1"


@pytest.mark.parametrize("case", ["skips a ring slot", "sends first",
                                  "refuses a message", "deep slot skip"])
def test_non_amicable_components(case):
    sender = line("p", [send("p", F0, "a"), send("p", F1, "b")])
    forwarders = {F0: forwarder(F0, "p", "q", "a"),
                  F1: forwarder(F1, "p", "q", "b")}
    short = 8
    if case == "skips a ring slot":
        sender = line("p", [send("p", F0, "a"), send("p", F0, "b")])
        forwarders[F0] = forwarder(F0, "p", "q", "ab")
    elif case == "sends first":
        forwarders[F0] = line(F0, [send(F0, "q", "a"), recv("p", F0, "a")])
    elif case == "refuses a message":
        forwarders[F1] = forwarder(F1, "p", "q", "c")
    else:
        # ring order holds for four sends, then slot 0 is taken twice
        sender = line("p", [send("p", F0, "a"), send("p", F1, "a")] * 2
                      + [send("p", F0, "a"), send("p", F0, "a")])
        forwarders = {F0: forwarder(F0, "p", "q", "aaaa"),
                      F1: forwarder(F1, "p", "q", "aa")}
        short = 4
    components = {"p": sender, **forwarders}
    assert not is_amicable(components, RING)
    assert not reference.is_amicable(components, RING, k=8)
    # the trace bound hides a violation deeper than it
    assert reference.is_amicable(components, RING, k=short) == (
        case == "deep slot skip")
