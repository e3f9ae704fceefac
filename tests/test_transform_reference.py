"""The tree workflow against its reference copy.

`transform_reference.py` keeps the regex nodes, `canon`, `brz_deriv`,
`psm_to_regex`, `regex_to_psm`, the tree reader and the type printers
as they stood before regex nodes hashed in constant time, before
canonical forms were remembered per call and before elimination
substituted only where a state is used.  Every check here requires the
same printed expressions, the same dumped machines and the same printed
types from both, or the same exception.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from amp import cli, encoding, projection
from amp import psm as psm_mod
from amp import transform
from amp.core import (StateMachine, backward_closure, dump_machine, pair,
                      recv, send)

from . import transform_reference as ref
from .conftest import (LABELS, PARTICIPANTS, paired_chain, random_local_tree,
                       random_tame_psm)
from .test_transform import _random_regex

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted(str(p.relative_to(ROOT))
                for pattern in ("*.psm.json", "*.gt")
                for p in (ROOT / "protocols").glob(pattern))


def _as_reference(r):
    """The reference copy of a library expression."""
    if isinstance(r, transform.RLetter):
        return ref.RLetter(r.event)
    if isinstance(r, transform.RAlt):
        return ref.RAlt(_as_reference(r.left), _as_reference(r.right))
    if isinstance(r, transform.RCat):
        return ref.RCat(_as_reference(r.left), _as_reference(r.right))
    if isinstance(r, transform.RStar):
        return ref.RStar(_as_reference(r.inner))
    return ref.REps() if isinstance(r, transform.REps) else ref.REmpty()


def _outcome(f, *args):
    """What `f` returns, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _shown(value) -> object:
    """A machine as its dump, an expression or a type as its text."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, StateMachine):
        return dump_machine(value)
    return str(value)


def _same(f_new, f_ref, *args) -> object:
    new = _outcome(f_new, *args)
    old = _outcome(f_ref, *args)
    assert _shown(new) == _shown(old)
    return new


def _same_global(machine: StateMachine) -> None:
    """Equal expressions, trees and global types for a sink-final machine."""
    _same(transform.psm_to_regex, ref.psm_to_regex, machine)
    tree = _same(transform.tree_of, ref.tree_of, machine)
    if isinstance(tree, StateMachine):
        _same(transform.psm_to_global_type, ref.psm_to_global_type, tree)


def _same_local(machine: StateMachine, participant: str) -> None:
    _same(transform.fsm_to_local_type, ref.fsm_to_local_type, machine,
          participant)


def _to_global_input(machine: StateMachine):
    """The sink-final paired machine `amp to-global` reads a type off,
    or None where the command stops before the tree workflow."""
    try:
        validated = psm_mod.validate(machine)
    except ValueError:
        return None
    if not validated.sum_one:
        return None
    merged = encoding.merge_immediate_pairs(validated.compiled)
    if not merged.trim().is_sink_final():
        try:
            merged = transform.make_sink_final(merged)
        except ValueError:
            return None
    return merged


def _random_machine(rng: random.Random) -> StateMachine:
    """A small sink-final machine over paired events that may merge
    branches, loop through any state and take ε steps, and whose every
    state can reach the final one."""
    while True:
        n = rng.randrange(2, 6)
        states = [f"s{i}" for i in range(n)]
        transitions = []
        for src in states:
            for _ in range(rng.choice([1, 1, 1, 2])):
                sender, receiver = rng.sample(PARTICIPANTS[:3], 2)
                ev = (None if rng.random() < 0.1 else
                      pair(sender, receiver, rng.choice(LABELS)))
                transitions.append((src, ev, rng.choice(states)))
        finals = set(rng.sample(states[1:], rng.randrange(1, 3)
                                if n > 2 else 1))
        try:
            machine = transform.make_sink_final(
                StateMachine(states, states[0], finals, transitions))
        except ValueError:  # it accepts the empty word
            continue
        # a branch that can never finish has no expression
        if backward_closure(machine.states, machine.out,
                            machine.finals) == machine.states:
            return machine


def test_random_regexes_match_reference(rng):
    for _ in range(1000):
        regex = _random_regex(rng, depth=rng.randrange(1, 5))
        old = _as_reference(regex)
        assert _as_reference(transform.canon(regex, {})) == ref.canon(old)
        for a in sorted(transform.first_letters(regex),
                        key=lambda e: e.sort_key()):
            derived = transform.brz_deriv(a, regex)
            assert str(derived) == str(ref.brz_deriv(a, old))
        assert (dump_machine(transform.regex_to_psm(regex))
                == dump_machine(ref.regex_to_psm(old)))


def _regex_with_repeats(rng: random.Random, depth: int):
    """A random expression over two letters whose alternatives may repeat
    a member or hold ∅.  `canon` of such an alternative can be a
    concatenation, which is not its own canonical form: as a part of a
    longer concatenation, it must not be taken for one."""
    letters = [transform.RLetter(pair("p", "q", label)) for label in "ab"]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(letters)
    shape = rng.randrange(4)
    if shape == 0:
        left = _regex_with_repeats(rng, depth - 1)
        return transform.RAlt(left, left if rng.random() < 0.5
                              else _regex_with_repeats(rng, depth - 1))
    if shape == 1:
        return transform.RCat(_regex_with_repeats(rng, depth - 1),
                              _regex_with_repeats(rng, depth - 1))
    if shape == 2:
        return transform.RAlt(_regex_with_repeats(rng, depth - 1),
                              transform.REmpty())
    inner = _regex_with_repeats(rng, depth - 1)
    return inner if transform.nullable(inner) else transform.RStar(inner)


def test_regexes_with_repeated_alternatives_match_reference(rng):
    for _ in range(1000):
        regex = _regex_with_repeats(rng, rng.randrange(1, 6))
        old = _as_reference(regex)
        assert _as_reference(transform.canon(regex, {})) == ref.canon(old)
        assert (dump_machine(transform.regex_to_psm(regex))
                == dump_machine(ref.regex_to_psm(old)))


def test_random_sink_final_machines_match_reference(rng):
    for _ in range(500):
        _same_global(_random_machine(rng))


def test_tree_reader_follows_forward_epsilon_edges_into_a_shared_state():
    """A state left behind on one branch is not on the path of the next:
    an ε edge into it is followed again, not read as recursion."""
    x, y, m = (pair("p", "q", label) for label in ("x", "y", "m"))
    machine = StateMachine(
        "abcde", "a", {"e"},
        [("a", x, "b"), ("a", y, "c"), ("b", None, "d"), ("c", None, "d"),
         ("d", m, "e")])
    g = _same(transform.psm_to_global_type, ref.psm_to_global_type, machine)
    assert str(g) == "( p->q:x . p->q:m . 0 + p->q:y . p->q:m . 0 )"


def test_random_tame_machines_match_reference(rng):
    """300 draws that reach the tree workflow: the others keep two
    messages in flight, which no global type expresses."""
    compared = 0
    for _ in range(600):
        merged = _to_global_input(random_tame_psm(rng))
        if merged is not None:
            _same_global(merged)
            compared += 1
            if compared == 300:
                return
    pytest.fail(f"only {compared} of 600 draws reach the tree workflow")


def test_random_local_machines_match_reference(rng):
    for _ in range(300):
        _same_local(random_local_tree(rng), "p")


@pytest.mark.parametrize("path", CORPUS)
def test_corpus_matches_reference(path):
    machine = cli._load_protocol(str(ROOT / path)).source
    merged = _to_global_input(machine)
    if merged is not None:
        _same_global(merged)
    try:
        components = projection.project_tame(machine).csm.components
    except (projection.NotTame, projection.NotProjectable):
        return
    for participant in machine.trim().participants():
        _same_local(components[participant], participant)


def _line(owner: str, events: list) -> StateMachine:
    states = [f"{owner}{i}" for i in range(len(events) + 1)]
    return StateMachine(states, states[0], {states[-1]},
                        [(states[i], ev, states[i + 1])
                         for i, ev in enumerate(events)])


def test_chains_match_reference():
    """Every length up to 40, then every eighth up to 200: the reference
    takes quadratic time, about 17 s for all 200 lengths."""
    for n in [*range(1, 41), *range(48, 201, 8)]:
        chain = paired_chain(n)
        _same_global(chain)
        if n % 40:
            continue
        exchanges = []
        q = chain.initial
        while chain.out(q):
            (ev, q), = chain.out(q)
            exchanges.append(ev)
        for who in chain.participants():
            # who's projection: its sends and receives, in a line
            _same_local(_line(who, [
                send(who, ev.receiver, ev.label) if ev.sender == who
                else recv(ev.sender, who, ev.label)
                for ev in exchanges if who in (ev.sender, ev.receiver)]), who)
