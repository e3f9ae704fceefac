"""The subset projection conditions against the bounded oracle.

`project_tame` decides on Send Validity, Receive Validity and the
conditions around them, and reports a rejection by the condition that
failed; it never runs the bounded oracle.
`projection_reference.project_tame` is the projection as it stood
before, which accepts only after `csm.check_projection`.  Both run here
on the corpus, the negative controls, the benchmark's generator
families and 1,200 random protocols, and must give the same verdict:
the same `dump_csm` bytes on acceptance, and the same report where
both reject on the tameness gate.  Where the conditions reject a
protocol that the oracle accepts at `k`, the oracle must find the fault
by k = 12.

The amicability check, which reads `minimize`'s classes, is compared
with the string-machine check it replaced,
`projection_reference.named_is_amicable`, and with the trace-bounded one
before that, `projection_reference.is_amicable`, on projections,
mutated projections and hand-built components.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from amp import csm, projection
from amp.cli import _load_machine, main
from amp.core import (RECV, SEND, Compiled, Event, StateMachine, load_machine,
                      recv, send, walk)
from amp.csm import dump_csm
from amp.encoding import (ChannelParticipant, channel_participants,
                          encode_psm, is_amicable)
from amp.projection import (NotProjectable, NotTame, minimize, project_tame,
                            subset_construction)
from amp.psm import PsmError, infer_channel_bounds, validate
from amp.transform import global_to_psm, make_sink_final, parse_global_type
from perfbench import generators as gen

from . import projection_reference as reference
from .conftest import (kle_machine, random_looping_protocol,
                       random_sender_driven_tree, random_tame_psm,
                       three_party_machine)
from .test_walkers import PROTOCOLS, PSM_SOURCES

DEEPEST = 12


def outcome(project, psm, **options) -> tuple[str, str]:
    try:
        result = project(psm, **options)
    except (NotProjectable, NotTame) as exc:
        return type(exc).__name__, str(exc)
    return "ok", dump_csm(result.csm)


def verdicts(psm, k: int) -> str:
    """How the conditions and the oracle judge `psm`, which they must
    agree on: "ok", "condition" (a report of one of the conditions,
    where the reference rejects too, on its final-state filter or its
    oracle), "NotTame", or "deep" when only the conditions reject at `k`
    and the oracle finds the fault deeper."""
    new = outcome(project_tame, psm)
    old = outcome(reference.project_tame, psm, k=k)
    if new[0] == "NotProjectable":
        if old[0] == "ok":
            assert any(outcome(reference.project_tame, psm, k=deeper)[0]
                       == "NotProjectable"
                       for deeper in range(k + 1, DEEPEST + 1)), new[1]
            return "deep"
        assert old[0] == "NotProjectable"
        return "condition"
    assert new == old
    return new[0]


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
                         "encoding loses final state k6 after p>q!a p>q!b "
                         "p>q?a p>q?b p>q!c p>q?c"),
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
     {"ok": 413, "condition": 170, "NotTame": 17}),
    (random_sender_driven_tree,
     {"ok": 436, "condition": 163, "deep": 1}),
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


def test_a_lost_final_state_is_reported_in_the_protocols_terms():
    """The protocol's state and its word on the protocol's channels, with
    no forwarder and no ring counter of the encoding."""
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(odd_ring_totals()))
    assert [str(ev) for ev in excinfo.value.witness] == \
        "p>q!a p>q!b p>q?a p>q?b p>q!c p>q?c".split()


def test_a_lost_final_state_is_named_by_the_state_it_stands_for():
    """A second final state named like an encoded state of k6: the
    encoding loses k6, whose encoded name k6|s:(p,q)=1|r:(p,q)=1 also
    starts with the other's name, which was reported when the lost
    state was found by its name."""
    plain = odd_ring_totals()
    named = "k6|s:(p,q)=1"
    machine = StateMachine(
        plain.states | {"z1", named}, plain.initial, plain.finals | {named},
        plain.transitions + (("k0", send("p", "r", "z"), "z1"),
                             ("z1", recv("p", "r", "z"), named)))
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(machine))
    assert str(excinfo.value) == FAILING["lost final state"][1]


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


# -- the order of the conditions ----------------------------------------------


def test_a_name_clash_is_reported_before_amicability():
    """The participant named like p>q's first forwarder shares one
    component with that forwarder, which is then not amicable; the name
    is reported, a limit of the encoding."""
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(forwarder_clash()))
    assert str(excinfo.value) == \
        "participant (p,q)0 is named like a forwarder"
    assert not excinfo.value.decisive


def test_no_component_is_minimised_after_a_failed_condition(monkeypatch):
    """a, the first participant in name order, breaks Send Validity, so
    `project_tame` stops before it minimises any component."""
    minimised = []

    def counting(machine):
        minimised.append(machine)
        return minimize(machine)

    monkeypatch.setattr(projection, "minimize", counting)
    with pytest.raises(NotProjectable, match="^send validity: a may send "
                       "a>r!x after ε, which not every run allows$"):
        project_tame(validate(
            gt("( c->d:a . a->r:x . 0 + c->d:b . a->r:z . 0 )")))
    assert minimised == []
    project_tame(validate(three_party_machine()))
    assert len(minimised) == 3


def test_amicability_is_decisive(monkeypatch, capsys):
    """No protocol fails amicability alone, so `is_amicable` is made to
    fail on kle, whose channels have forwarders: the rejection proves
    that no CSM implements the protocol, and `check-csm --against`
    reports it without the oracle."""
    def refuse(*args, **kwargs):
        raise AssertionError("check-csm --against ran the oracle")

    monkeypatch.setattr(projection, "is_amicable", lambda *args: False)
    monkeypatch.setattr(projection, "check_projection", refuse)
    with pytest.raises(NotProjectable) as excinfo:
        project_tame(validate(_load_machine(str(PROTOCOLS / "kle.psm.json"))))
    assert str(excinfo.value) == "forwarder components are not amicable"
    assert excinfo.value.decisive
    assert main(["check-csm", str(PROTOCOLS / "kle.csm.json"), "--against",
                 str(PROTOCOLS / "kle.psm.json")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "projection check: fail (not projectable: forwarder components "
        "are not amicable)")


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
    encoded = encode_psm(Compiled(machine), bounds).machine()
    protocol = reference.compiled(encoded)
    return {name: reference.minimal_machine(subset_construction(protocol,
                                                                name))
            for name in sorted(encoded.participants())}


def ranked(components: dict) -> tuple[dict, list]:
    """Component machines as `is_amicable` reads them: each machine's
    states numbered breadth first from its initial one, and its moves
    ranked over one letter list that all the machines share."""
    letters = sorted({ev for machine in components.values()
                      for ev in machine.alphabet()}, key=Event.sort_key)
    rank = {ev: r for r, ev in enumerate(letters)}
    moves = {}
    for name, machine in components.items():
        assert machine.is_deterministic()
        assert all(ev is not None for _, ev, _ in machine.transitions)
        order = list(walk((machine.initial,),
                          lambda q: [dst for _, dst in machine.out(q)]))
        number = {q: i for i, q in enumerate(order)}
        moves[name] = [sorted((rank[ev], number[dst])
                              for ev, dst in machine.out(q)) for q in order]
    return moves, letters


def amicable(components: dict, bounds: dict) -> bool:
    """The library's verdict, which must be the string reference's."""
    verdict = is_amicable(*ranked(components), bounds)
    assert verdict == reference.named_is_amicable(components, bounds)
    return verdict


def test_subset_components_of_encoding_amicable():
    components = components_of(kle_machine(), KLE_BOUNDS)
    assert set(components) == {"e", "o", "(e,o)0", "(o,e)0"}
    assert amicable(components, KLE_BOUNDS)


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
    """The components and bounds of every corpus protocol, random tame
    draw and random looping draw that has forwarders.  Only the looping
    draws have rings of two or more slots."""
    machines = [_load_machine(str(path)) for path in PSM_SOURCES]
    rng = random.Random(7)
    machines += [random_tame_psm(rng, max_states=8) for _ in range(600)]
    machines += [random_looping_protocol(rng)[0] for _ in range(200)]
    for machine in machines:
        try:
            psm = validate(machine)
            bounds = infer_channel_bounds(psm)
        except PsmError:
            continue
        if bounds:
            yield components_of(psm.machine, bounds), bounds


def test_amicability_agrees_with_the_bounded_reference():
    """The library, the string reference and the trace-bounded one all
    accept every projection that has forwarders."""
    checked = 0
    for components, bounds in amicability_inputs():
        assert amicable(components, bounds)
        assert reference.is_amicable(components, bounds, k=8)
        checked += 1
    assert checked >= 60


def drop_a_move(machine: StateMachine, rng) -> StateMachine:
    """`machine` without one of its transitions."""
    kept = sorted(machine.transitions, key=str)
    del kept[rng.randrange(len(kept))]
    return StateMachine(machine.states, machine.initial, machine.finals, kept)


def send_before_receive(machine: StateMachine, rng) -> StateMachine:
    """A forwarder that sends one message before it receives it: the
    labels of a receive and of the send after it swapped."""
    transitions = sorted(machine.transitions, key=str)
    i = rng.choice([i for i, (_, ev, _) in enumerate(transitions)
                    if ev.kind == RECV])
    src, received, mid = transitions[i]
    j, (_, sent, dst) = next((j, t) for j, t in enumerate(transitions)
                             if t[0] == mid)
    transitions[i], transitions[j] = (src, sent, mid), (mid, received, dst)
    return StateMachine(machine.states, machine.initial, machine.finals,
                        transitions)


def pass_another_message(machine: StateMachine, rng) -> StateMachine:
    """A forwarder that passes on one message with another label than
    the one it received."""
    transitions = sorted(machine.transitions, key=str)
    i = rng.choice([i for i, (_, ev, _) in enumerate(transitions)
                    if ev.kind == SEND])
    src, ev, dst = transitions[i]
    transitions[i] = (src, send(ev.sender, ev.receiver, ev.label + "'",
                                ev.payload), dst)
    return StateMachine(machine.states, machine.initial, machine.finals,
                        transitions)


def skip_a_slot(machine: StateMachine, rng, bounds: dict) -> StateMachine:
    """A sender that sends one message to the forwarder after the one
    whose turn it is, on a ring of two or more slots."""
    transitions = sorted(machine.transitions, key=str)
    slots = {cp.name: cp for cp in channel_participants(bounds)
             if bounds[cp.source, cp.target] >= 2}
    i = rng.choice([i for i, (_, ev, _) in enumerate(transitions)
                    if ev.kind == SEND and ev.receiver in slots])
    src, ev, dst = transitions[i]
    cp = slots[ev.receiver]
    skipped = ChannelParticipant(cp.source, cp.target,
                                 (cp.index + 1) % bounds[cp.source, cp.target])
    transitions[i] = (src, send(ev.sender, skipped.name, ev.label, ev.payload),
                      dst)
    return StateMachine(machine.states, machine.initial, machine.finals,
                        transitions)


def test_mutated_projections_are_not_amicable():
    """Each projection with forwarders, made not amicable four ways: a
    forwarder loses one move, sends a message before it receives it or
    passes on a message with another label, or a sender skips a slot of
    a ring of two or more.  The library and the string reference both
    refuse every mutant."""
    rng = random.Random(33)
    tally = Counter()
    for components, bounds in amicability_inputs():
        cps = [cp for cp in channel_participants(bounds)
               if cp.name in components]
        forwarder = rng.choice(cps).name
        mutants = [("drop", forwarder,
                    drop_a_move(components[forwarder], rng)),
                   ("swap", forwarder,
                    send_before_receive(components[forwarder], rng)),
                   ("relabel", forwarder,
                    pass_another_message(components[forwarder], rng))]
        senders = sorted({cp.source for cp in cps
                          if bounds[cp.source, cp.target] >= 2})
        if senders:
            sender = rng.choice(senders)
            mutants.append(("skip", sender,
                            skip_a_slot(components[sender], rng, bounds)))
        for kind, name, mutant in mutants:
            assert not amicable({**components, name: mutant}, bounds), kind
            tally[kind] += 1
    assert tally == {"drop": 255, "swap": 255, "relabel": 255, "skip": 80}


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
    assert not amicable(components, RING)
    assert not reference.is_amicable(components, RING, k=8)
    # the trace bound hides a violation deeper than it
    assert reference.is_amicable(components, RING, k=short) == (
        case == "deep slot skip")
