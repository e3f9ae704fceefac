"""Hopcroft minimisation, channel bounds read off the configuration
graph, the cycle search confined to strongly connected components and
the hashed ancestor lookup of `regex_to_psm`, checked against the Moore
refinement, the simple-path search, the unconfined cycle search and the
ancestor scan they replaced (`projection_reference.py`), and on inputs
too large for the old code.
"""

from __future__ import annotations

import json
import random

import pytest

from amp.cli import _load_machine, main
from amp.core import StateMachine, dump_machine, pair, recv, send
from amp.encoding import channel_participants, encode_psm, merge_immediate_pairs
from amp.projection import _whole, subset_construction
from amp.psm import PsmError, _simple_cycles, infer_channel_bounds, validate
from amp.transform import (make_sink_final, psm_to_global_type, psm_to_regex,
                           regex_to_psm)

from . import projection_reference as reference
from .conftest import random_sender_driven_tree, random_tame_psm
from .test_graph_analyses import random_machine, random_protocol
from .test_transform import _random_regex
from .test_walkers import PSM_SOURCES, outcome

EVENTS = (send("p", "q", "a"), send("p", "q", "b"), recv("p", "q", "a"),
          pair("q", "r", "a"))


# -- minimisation ---------------------------------------------------------------


def random_dfa(rng: random.Random, size: int) -> StateMachine:
    """A random partial deterministic machine.  State names are shuffled,
    so the smallest member of a class is not its first state."""
    names = [f"s{i}" for i in range(size)]
    rng.shuffle(names)
    events = rng.sample(EVENTS, rng.randrange(1, len(EVENTS) + 1))
    density = rng.choice((0.3, 0.6, 0.9))
    transitions = [(q, ev, rng.choice(names)) for q in names for ev in events
                   if rng.random() < density]
    finals = [q for q in names if rng.random() < 0.3]
    return StateMachine(names, names[0], finals, transitions)


def blown_up(rng: random.Random, machine: StateMachine) -> StateMachine:
    """The machine with each state copied up to three times, every copy
    moving to some copy of the original target: copies of one state are
    equivalent, so minimisation has to merge them again."""
    copies = {q: [f"{q}.{i}" for i in range(rng.randrange(1, 4))]
              for q in machine.states}
    transitions = [(c, ev, rng.choice(copies[dst]))
                   for src, ev, dst in machine.transitions
                   for c in copies[src]]
    return StateMachine([c for cs in copies.values() for c in cs],
                        copies[machine.initial][0],
                        [c for q in machine.finals for c in copies[q]],
                        transitions)


def assert_minimize_agrees(machine) -> None:
    """On a deterministic `StateMachine` through `_whole`, or on `Subsets`
    and, through `_whole`, the machine they name."""
    if isinstance(machine, StateMachine):
        new = reference.minimal_machine(_whole(machine))
    else:
        new = reference.minimal_machine(machine)
        machine = StateMachine(*machine.named())
        assert reference.minimal_machine(_whole(machine)) == new
    old = reference.minimize(machine)
    assert new == old
    assert dump_machine(new) == dump_machine(old)


def test_minimize_agrees_on_random_partial_dfas():
    """On trimmed machines: the reference trims first, and `minimize`
    keeps the states that reach no final state."""
    rng = random.Random(71)
    for trial in range(3000):
        machine = random_dfa(rng, rng.randrange(1, 13))
        assert_minimize_agrees(machine.trim())
        if trial % 2:
            assert_minimize_agrees(blown_up(rng, machine).trim())


def test_minimize_keeps_reachable_dead_ends():
    """A reachable state that reaches no final state stays, told apart
    from a state that still moves; such states with equal moves merge,
    and an unreachable state goes."""
    a, b, c = send("p", "q", "a"), send("p", "q", "b"), send("p", "q", "c")
    machine = StateMachine(
        {"x", "y", "z", "v", "w", "u"}, "x", {"z"},
        [("x", a, "y"), ("x", b, "z"), ("x", c, "v"), ("y", a, "w"),
         ("u", a, "x")])
    assert reference.minimal_machine(_whole(machine)) == StateMachine(
        {"s0", "s1", "s2", "s3"}, "s0", {"s2"},
        [("s0", a, "s1"), ("s0", b, "s2"), ("s0", c, "s3"),
         ("s1", a, "s3")])


def test_minimize_agrees_on_subset_machines_of_tame_protocols():
    rng = random.Random(73)
    checked = 0
    while checked < 500:
        try:
            psm = validate(random_tame_psm(rng, rng.choice((8, 12))))
            bounds = infer_channel_bounds(psm)
        except PsmError:
            continue
        machine = psm.machine.trim()
        encoded = encode_psm(psm.compiled, bounds).machine()
        names = list(machine.participants()) + [
            cp.name for cp in channel_participants(bounds)]
        protocols = (reference.compiled(encoded), reference.compiled(machine))
        for name in names:
            for protocol in protocols:
                assert_minimize_agrees(subset_construction(protocol, name))
        checked += 1


def test_minimize_keeps_a_long_chain_with_repeated_labels():
    # Moore refinement needs one round per state here.
    labels = [pair("p", "q", "a"), pair("q", "r", "a"), pair("r", "p", "a")]
    n = 5000
    chain = StateMachine([f"s{i}" for i in range(n)], "s0", [f"s{n - 1}"],
                         [(f"s{i}", labels[i % 3], f"s{i + 1}")
                          for i in range(n - 1)])
    assert reference.minimal_machine(_whole(chain)) == chain
    looped = StateMachine(chain.states, "s0", chain.finals,
                          chain.transitions + (("s0", labels[2], "s0"),))
    assert len(reference.minimal_machine(_whole(looped)).states) == n


# -- channel-bound inference ---------------------------------------------------


def test_simple_cycles_agree_on_random_machines():
    rng = random.Random(79)
    for trial in range(2000):
        machine = random_machine(rng, rng.randrange(1, 10),
                                 (0.0, 0.3, 0.9)[trial % 3])
        assert (list(_simple_cycles(machine))
                == list(reference._simple_cycles(machine)))


def assert_bounds_agree(psm) -> object:
    new = outcome(infer_channel_bounds, psm)
    assert new == outcome(reference.infer_channel_bounds, psm)
    return new


def test_bounds_agree_on_random_tame_protocols_and_trees():
    rng = random.Random(83)
    loops = nonempty = 0
    for trial in range(4000):
        machine = (random_sender_driven_tree(rng) if trial % 4 == 0
                   else random_tame_psm(rng))
        bounds = assert_bounds_agree(validate(machine))
        loops += isinstance(bounds, tuple)
        nonempty += bool(bounds) and not isinstance(bounds, tuple)
    assert loops > 20 and nonempty > 400


def test_bounds_agree_on_random_dense_machines():
    # Walks with deferred receives, back edges and loops that never
    # receive what is pending.
    rng = random.Random(87)
    for _ in range(1000):
        try:
            psm = validate(random_protocol(rng, rng.randrange(2, 12)))
        except PsmError:
            continue
        assert_bounds_agree(psm)


@pytest.mark.parametrize("source", PSM_SOURCES, ids=lambda p: p.name)
def test_bounds_agree_on_corpus(source):
    try:
        psm = validate(_load_machine(str(source)))
    except PsmError:
        return
    assert_bounds_agree(psm)


def diamonds(d: int) -> StateMachine:
    """d two-way branches in sequence; in each, p sends one label to q
    and to r before either receives: bounds {p>q: 1, p>r: 1}, and 2^d
    loop-free paths."""
    transitions = []
    for i in range(d):
        for branch in "ab":
            a, b, c = (f"d{i}{branch}{j}" for j in range(1, 4))
            label = f"{branch}{i}"
            transitions += [(f"d{i}", send("p", "q", label), a),
                            (a, send("p", "r", label), b),
                            (b, recv("p", "q", label), c),
                            (c, recv("p", "r", label), f"d{i + 1}")]
    states = {q for src, _, dst in transitions for q in (src, dst)}
    return StateMachine(states, "d0", [f"d{d}"], transitions)


@pytest.mark.parametrize("d", [4, 9])
def test_bounds_agree_on_diamonds(d):
    psm = validate(diamonds(d))
    assert (infer_channel_bounds(psm) == reference.infer_channel_bounds(psm)
            == {("p", "q"): 1, ("p", "r"): 1})


def test_bounds_of_forty_diamonds():
    # The old path search walks 2^40 paths here.
    assert infer_channel_bounds(validate(diamonds(40))) == {
        ("p", "q"): 1, ("p", "r"): 1}


def test_project_thirty_diamonds(tmp_path, capsys):
    path = tmp_path / "diamonds.json"
    path.write_text(dump_machine(diamonds(30)))
    assert main(["project", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bounds"] == {"p>q": 1, "p>r": 1}


# -- regular expressions back to machines ---------------------------------------


def assert_regex_machines_agree(regex) -> None:
    new = regex_to_psm(regex)
    old = reference.regex_to_psm(regex)
    assert new == old
    assert dump_machine(new) == dump_machine(old)


def test_regex_to_psm_agrees_on_random_regexes():
    rng = random.Random(89)
    for trial in range(1500):
        assert_regex_machines_agree(_random_regex(rng, 3 + trial % 3))


def test_regex_to_psm_agrees_on_random_trees():
    rng = random.Random(97)
    for _ in range(300):
        tree = random_sender_driven_tree(rng, rng.choice((8, 12)))
        assert_regex_machines_agree(psm_to_regex(tree))


@pytest.mark.parametrize("source", PSM_SOURCES, ids=lambda p: p.name)
def test_regex_to_psm_agrees_on_corpus(source):
    # The regex `amp to-global` builds its global type from.
    try:
        psm = validate(_load_machine(str(source)))
    except PsmError:
        return
    if not psm.sum_one:
        return
    merged = merge_immediate_pairs(psm.compiled)
    if not merged.trim().is_sink_final():
        merged = make_sink_final(merged)
    regex = psm_to_regex(merged)
    assert_regex_machines_agree(regex)
    assert (str(psm_to_global_type(regex_to_psm(regex)))
            == str(psm_to_global_type(reference.regex_to_psm(regex))))
