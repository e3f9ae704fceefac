"""The projection on a protocol compiled to integers against the
string-named pipeline it replaced (`projection_reference.py`): the
subset machine with states named `{a,b}`, Hopcroft's refinement on
state names and `subset_validity` on `StateMachine`s.

On random protocols (trees, protocols with bounded channels, protocols
that run forever), on every corpus protocol and on small sizes of the
benchmark's chain, diamonds and burst families, `project_tame` must
give the same CSM and bounds as the reference, or raise the
same exception with the same message, witness and decisiveness; each
participant's and forwarder's subset construction must name the same
machine, and minimise to the same one.
"""

from __future__ import annotations

import random

import pytest

from amp import encoding, projection
from amp.cli import _load_machine, main
from amp.core import (Compiled, Event, StateMachine, dump_machine,
                      load_machine, recv, send)
from amp.csm import dump_csm
from amp.encoding import channel_participants, encode_psm
from amp.projection import project_tame, subset_construction
from amp.psm import PsmError, infer_channel_bounds, validate
from amp.transform import global_to_psm, parse_global_type
from perfbench import generators as gen

from . import projection_reference as reference
from .conftest import (random_looping_protocol, random_sender_driven_tree,
                       random_tame_psm)
from .test_walkers import PSM_SOURCES


def outcome(project, machine: StateMachine) -> tuple:
    try:
        result = project(machine)
    except PsmError as exc:
        return (type(exc).__name__, str(exc), exc.witness,
                getattr(exc, "decisive", None))
    return "ok", dump_csm(result.csm), result.bounds


def assert_projections_agree(machine: StateMachine) -> str:
    """`project_tame` against the reference; the outcome's kind."""
    new = outcome(project_tame, machine)
    assert new == outcome(reference.named_project_tame, machine)
    return new[0]


def assert_components_agree(machine: StateMachine) -> None:
    """Each participant's and forwarder's subset construction and its
    minimal machine, on the encoded protocol, against the reference."""
    try:
        bounds = infer_channel_bounds(validate(machine))
    except PsmError:
        return
    encoded = encode_psm(Compiled(machine), bounds).machine()
    protocol = reference.compiled(encoded)
    names = list(machine.participants()) + [
        cp.name for cp in channel_participants(bounds)]
    for name in names:
        subsets = subset_construction(protocol, name)
        named = reference.named_subset_construction(encoded, name)
        assert dump_machine(StateMachine(*subsets.named())) == \
            dump_machine(named)
        assert len(subsets.states) == len(named.states)
        assert dump_machine(reference.minimal_machine(subsets)) == \
            dump_machine(reference.hopcroft_minimize(named))


def gt(text: str) -> StateMachine:
    return global_to_psm(parse_global_type(text))


@pytest.mark.parametrize("draw", [random_tame_psm, random_sender_driven_tree],
                         ids=["random_tame_psm", "random_sender_driven_tree"])
def test_projection_agrees_on_random_protocols(draw):
    rng = random.Random(26)
    seen = set()
    for _ in range(300):
        machine = draw(rng, max_states=rng.choice((6, 8, 12)))
        seen.add(assert_projections_agree(machine))
        assert_components_agree(machine)
    assert {"ok", "NotProjectable"} <= seen


def test_projection_agrees_on_protocols_that_run_forever():
    rng = random.Random(27)
    seen = set()
    for _ in range(200):
        machine, _ = random_looping_protocol(rng)
        seen.add(assert_projections_agree(machine))
        assert_components_agree(machine)
    assert {"ok", "NotProjectable", "NotTame"} <= seen


@pytest.mark.parametrize("path", PSM_SOURCES, ids=lambda p: p.name)
def test_projection_agrees_on_the_corpus(path):
    machine = _load_machine(str(path))
    assert_projections_agree(machine)
    assert_components_agree(machine)


def test_projection_agrees_on_the_benchmark_families():
    rng = random.Random(28)
    machines = []
    for n in (1, 2, 7, 30):
        machines.append(load_machine(gen.dump(gen.linear_psm(
            gen.chain_messages(n, rng)))))
    for d in (1, 2, 4):
        machines.append(load_machine(gen.dump(gen.diamonds(d, rng))))
    for b in (1, 2, 3, 9):
        machines.append(load_machine(gen.dump(gen.burst(b, rng))))
    for machine in machines:
        assert assert_projections_agree(machine) == "ok"
        assert_components_agree(machine)


def test_projection_agrees_where_the_protocol_is_determinised_first():
    """A choice that repeats its exchange, so `project_tame` compiles the
    determinised protocol; and one that then fails Send Validity."""
    for text in ("( c->d:m . d->e:a . 0 + c->d:m . d->e:b . 0 )",
                 "( c->d:m . d->e:a . e->c:x . 0 + c->d:m . d->e:b . 0 )",
                 "( c->d:m . q2->p:n . q1->p:m . 0"
                 " + c->d:m . c->q1:b . q1->p:m . 0 )"):
        machine = gt(text)
        assert not encode_psm(Compiled(machine), {}).deterministic
        assert_projections_agree(machine)


def test_component_states_follow_the_decoded_machine():
    """Decoding reorders p's first moves: `minimize` names the state
    after p>(p,r)0!a s1, which sorts before p>q!m, but p>r!a sorts after
    it, so the component numbers that state p_2."""
    m, a, n = send("p", "q", "m"), send("p", "r", "a"), send("p", "q", "n")
    machine = StateMachine(
        {"0", "1", "2", "3", "4", "5", "6"}, "0", {"2", "6"},
        [("0", m, "1"), ("1", recv("p", "q", "m"), "2"),
         ("0", a, "3"), ("3", n, "4"), ("4", recv("p", "q", "n"), "5"),
         ("5", recv("p", "r", "a"), "6")])
    assert assert_projections_agree(machine) == "ok"
    assert_components_agree(machine)
    result = project_tame(machine)
    assert result.bounds == {("p", "r"): 1}
    minimal = reference.minimal_machine(subset_construction(
        reference.compiled(encode_psm(Compiled(machine),
                                      result.bounds).machine()), "p"))
    assert ("s0", send("p", "(p,r)0", "a"), "s1") in minimal.transitions
    component = result.csm.components["p"]
    assert component.finals == {"p_1"}
    assert set(component.transitions) == {
        ("p_0", m, "p_1"), ("p_0", a, "p_2"), ("p_2", n, "p_1")}


@pytest.mark.parametrize("family,built,rings,events", [
    (lambda rng: gen.linear_psm(gen.chain_messages(30, rng)), 3, None, 0),
    (lambda rng: gen.diamonds(2, rng), 3, False, 32),
    (lambda rng: gen.burst(3, rng), 2, True, 12)],
    ids=["chain(30)", "diamonds(2)", "burst(3)"])
def test_projection_builds_only_the_machines_it_writes(monkeypatch, family,
                                                       built, rings, events):
    """One component per participant: no merged or encoded protocol, no
    decoded or renamed copy, and no machine for the amicability check,
    which reads `minimize`'s classes.  diamonds(2) built 5 machines and
    64 events, and burst(3) 4 and 24, when the encoding compiled the
    protocol again and wrote its merged and encoded machines out (10 and
    88, and 9 and 33, when amicability read string machines and built
    events to compare forwarder moves).  They build 32 and 12 events:
    the two letters of each forwarder exchange once per letter and slot,
    and no pair for it.  One
    pair is built per distinct exchange (chain(30) built 36 events when
    each transition had its own).  chain(30) needs no bound, so its
    projection reads the form that validation compiled, fused, and does
    not encode it (it built 4 machines and 9 events when it merged the
    protocol and compiled the merged machine again).  No ring counter
    moves without a ring of two or more slots: the encoding of
    diamonds(2), whose rings have one slot, names each state as the
    protocol state it stands for, while burst(3)'s names each with its
    counters."""
    psm = validate(load_machine(gen.dump(family(random.Random(1)))))
    calls, encoded = [], []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    def encode(*args):
        encoded.append(encode_psm(*args))
        return encoded[-1]

    monkeypatch.setattr(StateMachine, "__init__",
                        counted("machine", StateMachine.__init__))
    monkeypatch.setattr(Event, "__init__", counted("event", Event.__init__))
    monkeypatch.setattr(encoding, "decode_fsm",
                        counted("decode_fsm", encoding.decode_fsm))
    monkeypatch.setattr(projection, "encode_psm", encode)
    project_tame(psm)
    assert calls.count("machine") == built
    assert calls.count("event") == events
    assert "decode_fsm" not in calls
    assert len(encoded) == (rings is not None)
    for protocol in encoded:
        names = psm.compiled.names
        assert {protocol.names[q] == names[protocol.origin[q]]
                for q in protocol.states} == {not rings}


def test_a_global_type_shares_one_pair_per_exchange(monkeypatch):
    """40 messages over 3 distinct exchanges: 3 events, not 40."""
    messages = gen.chain_messages(40, random.Random(1))
    text = gen.global_text(messages)
    built = []
    init = Event.__init__

    def counted(ev, *args):
        built.append(ev)
        init(ev, *args)

    monkeypatch.setattr(Event, "__init__", counted)
    term = parse_global_type(text)
    monkeypatch.undo()
    assert len(built) == len(set(messages)) == 3
    assert parse_global_type(text) == term


# Send Validity where the participant's silent graph has a bottom
# component on a cycle.  In bottomcycle.gt, once r sends loop, q and r
# ping and pong forever: that cycle is silent to p and no silent move
# leaves it, so p may not send m at its start.  In exitcycle.gt the
# cycle can always be left by stop, so every run lets p send m.
BOTTOM_CYCLES = {
    "bottomcycle.gt": (
        "( r->q:loop . rec X . q->r:ping . r->q:pong . X"
        " + r->q:stop . p->q:m . 0 )",
        1, "not projectable: send validity: p may send p>q!m after ε, "
           "which not every run allows\n"),
    "exitcycle.gt": (
        "rec X . ( r->q:loop . q->r:ping . X + r->q:stop . p->q:m . 0 )",
        0, "tame, projectable\nchannel bounds: none needed\n"
           "participants: p, q, r\n"),
}


@pytest.mark.parametrize("name", BOTTOM_CYCLES)
def test_send_validity_reads_bottom_components_on_cycles(name, tmp_path,
                                                         capsys):
    text, code, printed = BOTTOM_CYCLES[name]
    assert assert_projections_agree(gt(text)) == \
        ("ok" if code == 0 else "NotProjectable")
    assert_components_agree(gt(text))
    path = tmp_path / name
    path.write_text(text + "\n")
    assert main(["project", str(path)]) == code
    assert capsys.readouterr().out == printed
