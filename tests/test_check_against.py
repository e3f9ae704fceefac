"""`projection.check_against`, the decision behind `check-csm --against`,
against the bounded oracle `csm.check_projection`.

The decision rejects a candidate CSM when the protocol is not
projectable or when a component cannot follow its projection, accepts
it when its components are deterministic, take no epsilon move and have
their projection's words, and leaves the rest to the oracle, with the
protocols that the encoding cannot carry.  Where it rejects, the oracle
must find the fault by k = 12; where it accepts, the oracle must pass
at every k tried.  On every shipped pair that it decides, and on the
benchmark's `pairs` candidates, neither the oracle nor an exploration
beyond those of `check-csm` alone runs.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import pytest

from amp import csm
from amp.cli import _load_protocol, main
from amp.core import StateMachine, dump_machine, recv, send
from amp.csm import (Csm, ProjectionVerdict, check_projection, dump_csm,
                     load_csm)
from amp.encoding import decode_fsm, encode_psm
from amp.projection import (NotProjectable, NotTame, check_against,
                            project_tame, subset_construction)
from amp.psm import infer_channel_bounds, validate
from perfbench import generators as gen

from . import projection_reference as reference
from .conftest import (random_looping_protocol, random_sender_driven_tree,
                       random_tame_psm)
from .test_projection_conditions import forwarder_clash, odd_ring_totals
from .test_walkers import CSM_SOURCES, PROTOCOLS, PSM_SOURCES

DEEPEST = 12


def unchecked_projection(psm) -> Csm:
    """The projection's candidate built without its conditions, as the
    pipeline built it before it decided on them."""
    machine = psm.machine.trim()
    protocol = reference.compiled(encode_psm(
        psm.compiled, infer_channel_bounds(psm)).machine())
    return Csm({p: decode_fsm(reference.minimal_machine(
        subset_construction(protocol, p))) for p in machine.participants()})


def plain_projection(psm) -> Csm:
    """Each participant's view of the protocol, determinised, with no
    encoding: a CSM that implements the protocol where one does and
    the channels need no forwarder."""
    machine = psm.machine.trim()
    protocol = reference.compiled(machine)
    return Csm({p: reference.minimal_machine(subset_construction(protocol, p))
                for p in machine.participants()})


def with_component(candidate: Csm, participant: str, *, finals=None,
                   drop=(), add=()) -> Csm:
    """`candidate` with one component's finals or transitions changed."""
    m = candidate.components[participant]
    changed = StateMachine(
        m.states, m.initial, m.finals if finals is None else finals,
        [t for t in m.transitions if t not in drop] + list(add))
    return Csm({**candidate.components, participant: changed})


def mutations(candidate: Csm, rng: random.Random):
    """The candidate, then one component with a receive relabelled, a
    transition dropped, a final state made non-final, a receive branch
    added and an epsilon move added."""
    yield "same", candidate
    p = rng.choice(candidate.participants)
    m = candidate.components[p]
    states = sorted(m.states)
    transitions = list(m.transitions)
    receives = [t for t in transitions
                if t[1] is not None and t[1].kind == "recv"]
    if receives:
        src, ev, dst = t = rng.choice(receives)
        yield "relabelled", with_component(
            candidate, p, drop=[t],
            add=[(src, recv(ev.sender, ev.receiver, ev.label + "x"), dst)])
    if transitions:
        yield "dropped", with_component(candidate, p,
                                        drop=[rng.choice(transitions)])
    if m.finals:
        yield "not final", with_component(
            candidate, p, finals=m.finals - {min(m.finals)})
    if receives:
        src, ev, _ = rng.choice(receives)
        branch = (src, recv(ev.sender, ev.receiver, "zz"), rng.choice(states))
        yield "branch", with_component(candidate, p, add=[branch])
    src, dst = rng.choice(states), rng.choice(states)
    if src != dst:
        yield "epsilon", with_component(candidate, p, add=[(src, None, dst)])


def case(verdict) -> str:
    if verdict.passed:
        return "oracle" if verdict.bounded_only else "same"
    for kind in ("not projectable", "no component", "cannot follow",
                 "does not end"):
        if kind in verdict.reasons[0]:
            return kind
    return "oracle"


def judge(psm, candidate: Csm) -> str:
    """The decision's case for `candidate`, checked against the oracle."""
    verdict = check_against(psm, candidate, 6)
    if case(verdict) == "oracle":
        oracle = check_projection(psm, candidate, 6)
        assert verdict == oracle
    elif verdict.passed:
        assert all(check_projection(psm, candidate, k).passed
                   for k in (4, 6, 8))
    else:
        assert any(not check_projection(psm, candidate, k).passed
                   for k in range(DEEPEST + 1)), verdict.reasons
    return case(verdict)


# draw -> (candidate, case) -> count; the receive branch and the epsilon
# move add behaviour, so the oracle decides them.  A protocol that is not
# projectable gets the projection built without the conditions and the
# one built without the encoding, and the oracle must reject both.
TALLY = {
    "random_tame_psm": {
        "NotTame": 5, ("unchecked_projection", "not projectable"): 73,
        ("plain_projection", "not projectable"): 73,
        ("same", "same"): 222, ("relabelled", "cannot follow"): 135,
        ("dropped", "cannot follow"): 222, ("not final", "does not end"): 222,
        ("branch", "oracle"): 135, ("epsilon", "oracle"): 131},
    "random_sender_driven_tree": {
        ("unchecked_projection", "not projectable"): 72,
        ("plain_projection", "not projectable"): 72,
        ("same", "same"): 228, ("relabelled", "cannot follow"): 131,
        ("dropped", "cannot follow"): 228, ("not final", "does not end"): 228,
        ("branch", "oracle"): 131, ("epsilon", "oracle"): 112},
}


@pytest.mark.parametrize("draw", [random_tame_psm, random_sender_driven_tree])
def test_the_decision_agrees_with_the_oracle_on_random_protocols(draw):
    rng = random.Random(22)
    seen = Counter()
    for _ in range(300):
        psm = validate(draw(rng, max_states=8))
        try:
            projected = project_tame(psm).csm
        except NotTame:
            seen["NotTame"] += 1
            continue
        except NotProjectable:
            for candidate in (unchecked_projection, plain_projection):
                seen[candidate.__name__, judge(psm, candidate(psm))] += 1
            continue
        for name, candidate in mutations(projected, rng):
            seen[name, judge(psm, candidate)] += 1
    assert seen == TALLY[draw.__name__]


def test_the_decision_agrees_with_the_oracle_on_protocols_that_loop():
    """Protocols that end in a loop that some participant or forwarder
    takes no part in, at a word length k that covers their row and one
    turn of a loop.  An accepted projection has no deadlock, passes the
    oracle and is decided without it.  A rejected protocol is rejected
    by `check_against` too, and the oracle rejects the projection built
    without the conditions by k or by `DEEPEST`, since a fault may need
    a turn of one loop and then the other branch."""
    rng = random.Random(25)
    seen = Counter()
    for _ in range(150):
        machine, k = random_looping_protocol(rng)
        psm = validate(machine)
        try:
            projected = project_tame(psm).csm
        except NotTame:
            seen["NotTame"] += 1
            continue
        except NotProjectable as exc:
            unchecked = unchecked_projection(psm)
            assert check_against(psm, unchecked, k).reasons == (
                f"not projectable: {exc}",)
            assert not check_projection(psm, unchecked,
                                        max(k, DEEPEST)).passed
            seen["not projectable"] += 1
            continue
        assert not csm.explore(projected).deadlocks
        assert check_projection(psm, projected, k).passed
        assert check_against(psm, projected, k) == ProjectionVerdict(True, ())
        seen["forwarders" if infer_channel_bounds(psm) else "ok"] += 1
    assert seen == {"ok": 27, "forwarders": 61, "not projectable": 32,
                    "NotTame": 30}


def corpus_pairs():
    """Every shipped CSM against every shipped tame protocol that the
    encoding carries."""
    protocols = [p for p in PSM_SOURCES
                 if p.name not in ("mixed_choice_toy.gt", "kle_encoded.psm.json")]
    return [(c, p) for c in CSM_SOURCES for p in protocols]


def pairs_inputs(tmp_path):
    """The benchmark's `pairs` candidates, right and wrong, with their
    protocols."""
    rng = random.Random(22)
    for n, m in ((3, 2), (4, 1), (2, 3), (2, 1)):
        messages = gen.pairs_messages(n, m, rng)
        psm = tmp_path / f"pairs{n}x{m}.psm.json"
        psm.write_text(gen.dump(gen.linear_psm(messages)))
        for wrong in (False, True):
            candidate = tmp_path / f"pairs{n}x{m}-{wrong}.csm.json"
            candidate.write_text(gen.dump(gen.pairs_csm(messages, wrong)))
            yield candidate, psm


def test_the_projection_decides_without_the_oracle(tmp_path, monkeypatch,
                                                  capsys):
    """Neither `check_projection` nor an `explore` beyond those of
    `check-csm` alone runs on the 100 shipped pairs of a tame protocol
    that the encoding carries and on the `pairs` candidates."""
    def refuse(*args, **kwargs):
        raise AssertionError("check-csm --against ran the oracle")

    explored = []
    real_explore = csm.explore
    for name, replacement in (
            ("check_projection", refuse),
            ("explore", lambda machine, **kw: explored.append(
                (machine.participants, kw)) or real_explore(machine, **kw))):
        original = getattr(csm, name)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("amp") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, replacement)
    pairs = corpus_pairs()
    assert len(pairs) == 100
    seen = Counter()
    for candidate, protocol in pairs + list(pairs_inputs(tmp_path)):
        explored.clear()
        main(["check-csm", str(candidate), "--json"])
        capsys.readouterr()
        alone = explored[:]
        explored.clear()
        main(["check-csm", str(candidate), "--against", str(protocol),
              "-K", "4", "--json"])
        report = json.loads(capsys.readouterr().out)["projection"]
        assert explored == alone and alone and not report["boundedOnly"]
        seen["c" if report["passed"]
             else "a" if report["reasons"][0].startswith("not projectable: ")
             else "b"] += 1
    # the corpus, then the pairs: the right candidates are their
    # projections and the wrong ones cannot follow theirs
    assert seen == {"a": 30, "b": 63 + 4, "c": 7 + 4}


def test_the_contradiction_pair_is_rejected_as_project_rejects_it(capsys):
    """The oracle passed this pair at -K 4; `project` proves that no CSM
    implements the protocol, and `check-csm` now says the same."""
    protocol = str(PROTOCOLS / "three_party_reply_mismatch.gt")
    assert main(["project", protocol]) == 1
    reason = capsys.readouterr().out.strip()
    assert reason == ("not projectable: send validity: r may send r>p!v1 "
                      "after q>r?1, which not every run allows")
    assert main(["check-csm", str(PROTOCOLS / "three_party_choice.csm.json"),
                 "--against", protocol, "-K", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"projection check: fail ({reason})"


def draw(generator, seed: int, index: int, max_states: int) -> StateMachine:
    rng = random.Random(seed)
    for _ in range(index + 1):
        machine = generator(rng, max_states=max_states)
    return machine


@pytest.mark.parametrize("machine", [
    draw(random_sender_driven_tree, 7, 563, 8),
    draw(random_tame_psm, 1, 334, 10)],
    ids=["receive validity at k=9", "send validity at k=14"])
def test_faults_beyond_the_bound_are_rejected(tmp_path, capsys, machine):
    """Two draws whose projection before the conditions the oracle passes
    up to k = 8 and k = 13: `check-csm --against` rejects that CSM at
    its default -K, with the condition `project` reports."""
    psm = validate(machine)
    candidate = reference.project_tame(psm, k=6).csm
    assert check_projection(psm, candidate, 6).passed
    protocol, csm_file = tmp_path / "p.psm.json", tmp_path / "c.csm.json"
    protocol.write_text(dump_machine(machine))
    csm_file.write_text(dump_csm(candidate))
    assert main(["check-csm", str(csm_file), "--against", str(protocol),
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)["projection"]
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(psm)
    assert report == {"passed": False, "boundedOnly": False,
                      "reasons": [f"not projectable: {excinfo.value}"]}


@pytest.mark.parametrize("candidate, protocol, reason", [
    ("three_party_choice.csm.json", "three_party_reply_mismatch.gt",
     "not projectable: send validity: r may send r>p!v1 after q>r?1, which "
     "not every run allows"),
    ("ping.csm.json", "three_party_choice.gt",
     "component p cannot follow its projection: p>q!m1 after ε"),
    ("ping.csm.json", "kle.psm.json", "no component for participant e"),
    ("kle.csm.json", "kle.psm.json", None)],
    ids=["not projectable", "cannot follow", "no component", "same"])
def test_the_bound_does_not_change_a_decided_report(capsys, candidate,
                                                    protocol, reason):
    outputs = set()
    for bound in ("0", "4", "50"):
        main(["check-csm", str(PROTOCOLS / candidate), "--against",
              str(PROTOCOLS / protocol), "-K", bound, "--json"])
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    report = json.loads(outputs.pop())["projection"]
    assert report == {"passed": reason is None, "boundedOnly": False,
                      "reasons": [reason] if reason else []}


def test_a_component_that_cannot_end_is_rejected():
    """The witness is the first word, breadth first in `Event.sort_key`
    order, after which the projection's component can end."""
    psm = validate(_load_protocol(str(PROTOCOLS / "kle.psm.json")))
    candidate = load_csm((PROTOCOLS / "kle.csm.json").read_text())
    verdict = check_against(psm, with_component(candidate, "e",
                                                finals=frozenset()), 6)
    assert verdict == ProjectionVerdict(
        False, ("component e does not end after e>o!0 o>e?0 o>e?win, where "
                "its projection does",))


def test_added_behaviour_goes_to_the_oracle_and_names_the_bound(tmp_path,
                                                                capsys):
    """A receive branch no one sends to changes no word, but the
    projection cannot tell: the oracle passes it up to -K only."""
    candidate = load_csm((PROTOCOLS / "kle.csm.json").read_text())
    e = candidate.components["e"]
    branched = with_component(candidate, "e", add=[
        (e.initial, recv("o", "e", "zz"), e.initial)])
    path = tmp_path / "branched.csm.json"
    path.write_text(dump_csm(branched))
    argv = ["check-csm", str(path), "--against",
            str(PROTOCOLS / "kle.psm.json"), "-K", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "projection check: pass (words up to -K 4)"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["projection"] == {
        "passed": True, "boundedOnly": True, "reasons": []}


def line(participant: str, events) -> StateMachine:
    """A component that takes `events` in order and ends."""
    states = [f"{participant}.{i}" for i in range(len(events) + 1)]
    return StateMachine(states, states[0], [states[-1]],
                        [(states[i], ev, states[i + 1])
                         for i, ev in enumerate(events)])


def exchanges(sender: str, receiver: str, labels: str) -> Csm:
    """`sender` sends `labels` in order and `receiver` takes them."""
    return Csm({sender: line(sender, [send(sender, receiver, a)
                                      for a in labels]),
                receiver: line(receiver, [recv(sender, receiver, a)
                                          for a in labels])})


FORWARDER_NAMED = StateMachine(
    {"s0", "s1", "s2"}, "s0", {"s2"},
    [("s0", send("p", "(x,y)0", "m"), "s1"),
     ("s1", recv("p", "(x,y)0", "m"), "s2")])


@pytest.mark.parametrize("protocol, candidate", [
    (odd_ring_totals(), exchanges("p", "q", "abc")),
    (FORWARDER_NAMED, exchanges("p", "(x,y)0", "m")),
    (forwarder_clash(), Csm({**exchanges("p", "q", "ab").components,
                             **exchanges("(p,q)0", "r", "x").components}))],
    ids=["lost final state", "named like a forwarder",
         "not amicable after a name clash"])
def test_a_protocol_the_encoding_cannot_carry_goes_to_the_oracle(
        tmp_path, capsys, protocol, candidate):
    """`project` rejects these protocols on a limit of the encoding, not
    on a proof that no CSM implements them: the hand-built CSM does,
    and `check-csm --against` passes it on the oracle."""
    psm = validate(protocol)
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(psm)
    assert not excinfo.value.decisive
    path, csm_file = tmp_path / "p.psm.json", tmp_path / "c.csm.json"
    path.write_text(dump_machine(protocol))
    csm_file.write_text(dump_csm(candidate))
    assert main(["check-csm", str(csm_file), "--against", str(path),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["projection"] == {
        "passed": True, "boundedOnly": True, "reasons": []}


def test_an_oracle_failure_is_not_bounded(capsys):
    """A `NotTame` protocol goes to the oracle, whose failure comes with
    a witness that no larger bound undoes."""
    assert main(["check-csm", str(PROTOCOLS / "three_party_choice.csm.json"),
                 "--against", str(PROTOCOLS / "mixed_choice_toy.gt"),
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)["projection"]
    assert not report["passed"] and not report["boundedOnly"]
