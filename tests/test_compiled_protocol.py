"""The compiled protocol (`core.Compiled`) and its fused view
(`encoding.Fused`, which projection reads as `_Compiled`) against the
string-named analyses they replaced (`compiled_reference.py`): the
expanded machine, trimmed; density and epsilon cycles; the branching
scan (`psm.choice_report`: sink-finality, the choice class and the
first state that branches on a receive or on two senders) and the
`NotTame` text `project_tame` reads from it; the channels that need a
bound; the merge of each send with its immediate receive, with its
errors; the encoding (`encode_psm`) against the protocol that
projection compiled from the string encoder's output
(`projection_reference.NamedCompiled`); and the lost-final search on the
encoding against the string search (`projection_reference._lost_final`).

The draws are the generators of `conftest.py`, random machines that are
neither dense nor trimmed, and every corpus protocol.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from amp.cli import _load_machine
from amp.core import Compiled, StateMachine, expand_pairs, pair, recv, send
from amp.encoding import Fused, channel_participants, encode_psm
from amp.projection import NotTame, _Compiled, _lost_final, project_tame
from amp.psm import (PsmError, UnboundedLoop, choice_report,
                     detected_channels, infer_channel_bounds, validate)
from amp.transform import global_to_psm, parse_global_type
from perfbench import generators as gen

from . import compiled_reference as reference
from .conftest import (random_looping_protocol, random_sender_driven_tree,
                       random_tame_psm)
from .graph_reference import encode_psm as reference_encode_psm
from .projection_reference import NamedCompiled
from .projection_reference import _lost_final as named_lost_final
from .test_graph_analyses import random_bounds, random_machine
from .test_walkers import PSM_SOURCES
from .walker_reference import compiled_names


def draws():
    """Protocols from every generator, and machines of any shape."""
    rng = random.Random(34)
    for _ in range(150):
        yield random_tame_psm(rng, max_states=rng.choice((6, 8, 12)))
        yield random_sender_driven_tree(rng, max_states=8)
        yield random_looping_protocol(rng)[0]
        yield random_machine(rng, rng.randrange(1, 10),
                             rng.choice((0.0, 0.3)))
    for path in PSM_SOURCES:
        yield _load_machine(str(path))


def test_the_compiled_form_answers_as_the_string_machine():
    for machine in draws():
        form = Compiled(machine)
        expanded = expand_pairs(machine)
        trimmed = expanded.trim()
        names = compiled_names(machine)
        assert {names[q] for q in form.keep} == trimmed.states
        assert {names[q] for q in form.finals} == trimmed.finals
        assert names[form.initial] == trimmed.initial
        assert form.letters == sorted(trimmed.alphabet(),
                                      key=lambda ev: ev.sort_key())
        assert {(names[q], form.letters[r], names[d])
                for q in form.keep for r, d in form.moves[q]} | {
            (names[q], None, names[d]) for q in form.keep
            for d in form.eps[q]} == set(trimmed.transitions)
        assert form.dense == reference.is_dense(expanded)
        assert form.eps_cycle == reference.has_pure_eps_cycle(expanded)
        assert detected_channels(form) == \
            reference.detected_channels(trimmed)


def mixing(rng: random.Random) -> StateMachine:
    """A line of exchanges, each a pair or a send and its receive, with
    a few more transitions into states between a send and its receive,
    or out of them: states that the merge drops and something else
    enters."""
    n = rng.randrange(2, 7)
    states = [f"s{i}" for i in range(n + 1)] + [f"m{i}" for i in range(n)]
    transitions = []
    for i in range(n):
        p, q = rng.sample(("p", "q", "r"), 2)
        label = rng.choice("ab")
        if rng.random() < 0.3:
            transitions.append((f"s{i}", pair(p, q, label), f"s{i + 1}"))
        else:
            transitions += [(f"s{i}", send(p, q, label), f"m{i}"),
                            (f"m{i}", recv(p, q, label), f"s{i + 1}")]
    for _ in range(rng.randrange(3)):
        p, q = rng.sample(("p", "q", "r"), 2)
        transitions.append((rng.choice(states), rng.choice(
            [None, pair(p, q, "x"), send(p, q, "a"), recv(p, q, "b")]),
            rng.choice(states)))
    return StateMachine(states, "s0", [f"s{n}"], transitions)


def not_tame(psm) -> Optional[str]:
    """The NotTame text of `project_tame`, or None when it passes the
    gate (whatever it does after)."""
    try:
        project_tame(psm)
    except NotTame as exc:
        return str(exc)
    except (PsmError, ValueError):
        pass
    return None


def named_not_tame(psm) -> Optional[str]:
    """The projection's gate as it read the string machine, and then
    bound inference."""
    machine = expand_pairs(psm.compiled.source).trim()
    if not machine.is_sink_final():
        return "machine is not sink-final"
    ok, state = reference.single_sender_branching(machine)
    if not ok:
        return f"state {state!r} branches on mixed or multi-sender actions"
    try:
        infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        return f"no channel bounds: {exc}"
    return None


def test_the_branching_scan_reads_as_the_string_classifier():
    """Sink-finality, the choice class and the first state that
    branches on a receive or on two senders, on the compiled form and
    on the string machine; and, on each machine that validates, the
    NotTame text of the projection's gate."""
    rng = random.Random(39)
    classes, texts = set(), set()
    for machine in [*draws(), *(mixing(rng) for _ in range(500))]:
        trimmed = expand_pairs(machine).trim()
        sink_final, choice, branching = choice_report(Compiled(machine))
        assert sink_final == trimmed.is_sink_final()
        assert choice == reference.classify_choice(trimmed)
        ok, state = reference.single_sender_branching(trimmed)
        assert (branching is None, branching) == (ok, state)
        classes.add(choice)
        try:
            psm = validate(machine)
        except PsmError:
            continue
        text = not_tame(psm)
        assert text == named_not_tame(psm)
        texts.add(text and text.split()[0])
    assert len(classes) == 4
    assert texts == {None, "machine", "state", "no"}


def merge_outcome(merge, machine, bounds):
    try:
        return merge(machine, bounds)
    except ValueError as exc:
        return str(exc)


def test_the_merge_agrees_with_the_string_merge_on_trimmed_machines():
    """Every send on an unbounded channel joined to its immediate
    receive, or the same error, on the trimmed machine with its pairs
    split, as validation leaves it."""
    rng = random.Random(35)
    errors = set()
    for machine in [*draws(), *(mixing(rng) for _ in range(500))]:
        trimmed = expand_pairs(machine).trim()
        for bounds in ({}, random_bounds(rng, trimmed)):
            new = merge_outcome(lambda m, b: Fused(Compiled(m), b).machine(),
                                trimmed, bounds)
            assert new == merge_outcome(reference.merge_immediate_pairs,
                                        trimmed, bounds)
            if isinstance(new, str):
                errors.add(new.split()[0])
    assert errors == {"send", "state"}


def shape(protocol, states) -> tuple:
    """A compiled protocol read back to state names: its transitions,
    initial and final states, letters, participants, who takes part
    where, and the states on or after a cycle."""
    names = protocol.names
    return ({names[q]: sorted((*move[:4], names[move[4]])
                              for move in protocol.out[q]) for q in states},
            names[protocol.initial], {names[q] for q in protocol.finals},
            protocol.letters, protocol.participants,
            {p: {names[q] for q in qs}
             for p, qs in protocol.takes_part.items()},
            [names[q] for q in protocol.cyclic])


def encodings():
    """Each draw that validates, with its bounds, and with rings of 3."""
    for machine in draws():
        try:
            psm = validate(machine)
            bounds = infer_channel_bounds(psm)
        except PsmError:
            continue
        yield psm, bounds
        if bounds:
            yield psm, {ch: 3 for ch in bounds}


def test_the_fused_view_is_the_protocol_projection_compiled():
    """With no bounded channel, the validated form read fused; with
    some, its encoding: the protocol that `project_tame` compiled from
    the string encoder's output, and that output when written."""
    bounded = unbounded = 0
    for psm, bounds in encodings():
        try:
            encoded = reference_encode_psm(psm.machine, bounds)
        except ValueError:
            continue
        fused = _Compiled(encode_psm(psm.compiled, bounds) if bounds
                          else Fused(psm.compiled, {}))
        assert fused.deterministic == encoded.is_deterministic()
        assert fused.machine() == encoded
        old = NamedCompiled(encoded.states, encoded.initial, encoded.finals,
                            encoded.transitions)
        assert shape(fused, fused.states) == \
            shape(old, range(len(old.names)))
        bounded += bool(bounds)
        unbounded += not bounds
    assert bounded > 40 and unbounded > 100


def lost_final_outcome(failure) -> Optional[tuple]:
    return failure and (str(failure), failure.witness, failure.decisive)


def test_the_lost_final_search_agrees_with_the_string_search():
    """The first final state the encoding loses, with its word, on the
    encoding's ints and on the string encoder's output, with rings of 2
    and 3 slots on each channel that needs a bound."""
    rng = random.Random(36)
    lost = 0
    for _ in range(300):
        for machine in (random_tame_psm(rng), random_sender_driven_tree(rng),
                        random_looping_protocol(rng)[0]):
            try:
                psm = validate(machine)
                needed = infer_channel_bounds(psm)
            except PsmError:
                continue
            for ring in (2, 3) if needed else ():
                bounds = {ch: ring for ch in needed}
                try:
                    encoded = reference_encode_psm(psm.machine, bounds)
                except ValueError:
                    continue
                new = lost_final_outcome(_lost_final(
                    _Compiled(encode_psm(psm.compiled, bounds)),
                    psm.compiled.names,
                    [cp.name for cp in channel_participants(bounds)]))
                assert new == lost_final_outcome(named_lost_final(
                    encoded, psm.machine.finals))
                lost += new is not None
    assert lost > 50


@pytest.mark.parametrize("text", [
    gen.global_text(gen.chain_messages(30, random.Random(3))),
    "( c->d:m . d->e:a . 0 + c->d:m . d->e:b . 0 )"],
    ids=["chain(30)", "determinised"])
def test_a_global_type_builds_only_its_components(monkeypatch, text):
    """Validation and projection of a global type, whose exchanges are
    pairs, build one machine per written component: no expanded, merged
    or encoded machine.  Where the protocol repeats an exchange at a
    choice, the fused protocol is written out to be determinised, and
    the determinised one compiled in its turn."""
    machine = global_to_psm(parse_global_type(text))
    built = []
    init = StateMachine.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(StateMachine, "__init__", counted)
    components = project_tame(validate(machine)).csm.components
    assert built[-len(components):] == list(components.values())
    assert len(built) == len(components) + 2 * ("+" in text)
