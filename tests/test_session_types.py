"""Differential tests: the one session-type representation of
`amp.transform` against the separate global and local classes it
replaced.

`type_reference` keeps the eight old classes with their builders,
readers, parsers and printers.  Printed types, machines (byte for
byte) and exceptions (type and message) must be equal on random global
and local types, on the machines read back from random trees and on the
shipped corpus.  Two differences are intended: a machine whose only
word is ε now reads as `0`, where the old readers failed in
`regex_to_psm`, and a machine that accepts ε and longer words is
rejected, where the old local reader dropped words.
"""

import random
from pathlib import Path

import pytest

from amp.cli import _load_machine
from amp.core import (SEND, StateMachine, dump_machine,
                      languages_equal_upto, pair, recv, send)
from amp.encoding import merge_immediate_pairs
from amp.projection import project_tame
from amp.psm import validate
from amp.transform import (End, MixedChoiceState, Rec, TypeSyntaxError,
                           Var, fsm_to_local_type, global_to_psm, local_to_fsm,
                           make_sink_final, parse_global_type,
                           parse_local_type, psm_to_global_type, psm_to_regex,
                           regex_to_psm, tree_of)

from . import type_reference as reference
from .conftest import random_local_tree, random_sender_driven_tree
from .test_walkers import outcome, random_global, random_local

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"
PSM_SOURCES = sorted(PROTOCOLS.glob("*.psm.json")) + sorted(
    PROTOCOLS.glob("*.gt"))

EPS_ERROR = (ValueError, "regex_to_psm requires an ε-free expression", None)


def to_reference(t, local: bool):
    """The old-class term of a new one: a local choice keeps its kind
    and, per branch, the peer, label and payload of its event."""
    if isinstance(t, End):
        return reference.LEnd() if local else reference.GEnd()
    if isinstance(t, Var):
        return reference.LVar(t.name) if local else reference.GVar(t.name)
    if isinstance(t, Rec):
        body = to_reference(t.body, local)
        return reference.LRec(t.var, body) if local \
            else reference.GRec(t.var, body)
    if not local:
        return reference.GChoice(tuple((ev, to_reference(cont, False))
                                       for ev, cont in t.branches))
    kind = t.branches[0][0].kind
    return reference.LChoice(kind, tuple(
        (ev.receiver if ev.kind == SEND else ev.sender, ev.label, ev.payload,
         to_reference(cont, True)) for ev, cont in t.branches))


def printed(fn, *args):
    """A call's result as text (a type printed, a machine dumped), or its
    exception as (type, message, witness)."""
    result = outcome(fn, *args)
    if isinstance(result, tuple):
        return result
    if isinstance(result, StateMachine):
        return dump_machine(result)
    return str(result)


def assert_reads_agree(new, old, machine: StateMachine) -> bool:
    """Equal readings, or the old ε failure on a machine whose only word
    is ε, read as end now.  True in that second case."""
    if new == old:
        return False
    assert (new, old) == ("0", EPS_ERROR)
    assert languages_equal_upto(machine, global_to_psm(End()), 6)
    return True


def old_tree(machine: StateMachine) -> StateMachine:
    return regex_to_psm(psm_to_regex(machine))


def test_global_types_agree_with_reference():
    rng = random.Random(59)
    errors, eps_cases = set(), 0
    for _ in range(1500):
        g = random_global(rng)
        old = to_reference(g, local=False)
        assert str(g) == reference.format_global_type(old)
        assert printed(parse_global_type, str(g)) == \
            printed(reference.parse_global_type, str(old))
        machine = printed(global_to_psm, g)
        assert machine == printed(reference.global_to_psm, old)
        if isinstance(machine, tuple):
            errors.add(machine[0])
            continue
        machine = global_to_psm(g)
        assert printed(psm_to_global_type, machine) == \
            printed(reference.psm_to_global_type, machine)
        new = printed(lambda m: psm_to_global_type(tree_of(m)), machine)
        eps_cases += assert_reads_agree(
            new, printed(lambda m: reference.psm_to_global_type(old_tree(m)),
                         machine), machine)
        if isinstance(new, tuple):
            errors.add(new[0])
    assert errors == {TypeSyntaxError, ValueError}
    assert eps_cases > 0


def test_local_types_agree_with_reference():
    rng = random.Random(61)
    errors, eps_cases = set(), 0
    for _ in range(1500):
        l = random_local(rng)
        old = to_reference(l, local=True)
        assert str(l) == reference.format_local_type(old)
        assert printed(parse_local_type, str(l), "p") == \
            printed(reference.parse_local_type, str(old), "p")
        machine = printed(local_to_fsm, l)
        assert machine == printed(reference.local_to_fsm, old, "p")
        if isinstance(machine, tuple):
            errors.add(machine[0])
            continue
        machine = local_to_fsm(l)
        new = printed(fsm_to_local_type, machine, "p")
        eps_cases += assert_reads_agree(
            new, printed(reference.fsm_to_local_type, machine, "p"), machine)
        if isinstance(new, tuple):
            errors.add(new[0])
    assert errors == {KeyError, MixedChoiceState, ValueError}
    assert eps_cases > 0


def test_readers_agree_on_random_trees():
    rng = random.Random(67)
    for _ in range(150):
        tree = random_sender_driven_tree(rng, 10)
        assert printed(psm_to_global_type, tree) == \
            printed(reference.psm_to_global_type, tree)
        local = random_local_tree(rng)
        new = printed(fsm_to_local_type, local, "p")
        assert new == printed(reference.fsm_to_local_type, local, "p")
        assert printed(parse_local_type, new, "p") == \
            printed(reference.parse_local_type, new, "p")


def test_mixed_choice_in_the_tree_is_reported_alike():
    """Determinising by derivatives can put a send and a receive on one
    tree state, although no state of the machine mixes them."""
    machine = StateMachine(
        {"a", "b", "c", "d"}, "a", {"d"},
        [("a", send("p", "q", "m"), "b"), ("a", send("p", "q", "m"), "c"),
         ("b", send("p", "q", "x"), "d"), ("c", recv("q", "p", "y"), "d")])
    new = printed(fsm_to_local_type, machine, "p")
    assert new[0] is MixedChoiceState
    assert new == printed(reference.fsm_to_local_type, machine, "p")


def test_readers_reject_foreign_events_alike():
    tree = StateMachine({"a", "b", "c"}, "a", {"c"},
                        [("a", pair("p", "q", "m"), "b"),
                         ("b", send("q", "r", "n"), "c")])
    new = printed(psm_to_global_type, tree)
    assert new == (ValueError, "global types need paired events; merge "
                               "first", None)
    assert new == printed(reference.psm_to_global_type, tree)
    for text in ("(+ ?q:a . 0 )", "(& !q:a . 0 ?q:b . 0 )",
                 "(+ (+ !q:a . 0 !q:b . 0 ) )"):
        new = printed(parse_local_type, text, "p")
        assert new == (TypeSyntaxError,
                       "choice branches must be single actions", None)
        assert new == printed(reference.parse_local_type, text, "p")


def test_a_machine_accepting_eps_and_longer_words_has_no_type():
    """The old reader gave `a*` a type without finite words."""
    machine = StateMachine({"s0", "s1", "f"}, "s0", {"f"},
                           [("s0", send("p", "q", "a"), "s1"),
                            ("s1", None, "s0"), ("s0", None, "f")])
    assert str(reference.fsm_to_local_type(machine, "p")) == \
        "rec X1 . !q:a . X1"
    with pytest.raises(ValueError, match="accepts ε and longer words"):
        fsm_to_local_type(machine, "p")


@pytest.mark.parametrize("path", PSM_SOURCES, ids=lambda p: p.name)
def test_corpus_agrees_with_reference(path):
    if path.suffix == ".gt":
        text = path.read_text()
        g = parse_global_type(text)
        old = reference.parse_global_type(text)
        assert str(g) == reference.format_global_type(old)
        assert dump_machine(global_to_psm(g)) == \
            dump_machine(reference.global_to_psm(old))
    machine = _load_machine(str(path))
    validated = outcome(validate, machine)
    if not isinstance(validated, tuple) and validated.sum_one:
        merged = merge_immediate_pairs(validated.machine, {})
        if not merged.trim().is_sink_final():
            merged = outcome(make_sink_final, merged)
        if isinstance(merged, StateMachine):
            assert printed(lambda m: psm_to_global_type(tree_of(m)),
                           merged) == \
                printed(lambda m: reference.psm_to_global_type(old_tree(m)),
                        merged)
    result = outcome(project_tame, machine)
    if isinstance(result, tuple):
        return
    for participant, component in sorted(result.csm.components.items()):
        new = printed(fsm_to_local_type, component, participant)
        assert new == printed(reference.fsm_to_local_type, component,
                              participant)
        if not isinstance(new, tuple):
            assert printed(parse_local_type, new, participant) == new
            assert printed(local_to_fsm,
                           parse_local_type(new, participant)) == printed(
                reference.local_to_fsm,
                reference.parse_local_type(new, participant), participant)

