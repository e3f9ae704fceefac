"""Differential tests: the shared walkers of `amp.core` and their callers
against the per-module copies they replaced.

`walker_reference` keeps the epsilon closures, reachability walks,
subset-construction steps, bounded-word loop, parent-chain witnesses,
type-to-machine builders, binder pruners and regex classifiers as they
were.  Sets, trace sets (key order included), machines (byte for byte),
types, exceptions and witnesses must be equal on random machines with
epsilon edges, random protocols that break FIFO order or outgrow the
caps, random tame protocols projected onto every participant, random
global and local types, random expressions and the shipped corpus.
"""

import random
from pathlib import Path

import pytest

from amp.cli import _load_machine
from amp.core import (Event, StateMachine, StateRef, dump_machine,
                      eps_closure, expand_pairs, maximal_traces_upto, pair,
                      reachable)
from amp.csm import explore, load_csm
from amp.encoding import encode_psm
from amp.projection import subset_construction
from amp.psm import (PsmError, build_config_graph, infer_channel_bounds,
                     validate)
from amp.transform import (Choice, End, Rec, TypeSyntaxError, Var,
                           _prune_unused_recs, _uses_var, fsm_to_local_type,
                           global_to_psm, is_ancestor_recursive, local_to_fsm,
                           psm_deriv, psm_deriv_rooted, psm_to_global_type,
                           regex_choice_class, regex_choice_class_bounded,
                           regex_to_psm)

from . import walker_reference as reference
from .conftest import (random_local_tree, random_sender_driven_tree,
                       random_tame_psm)
from .test_graph_analyses import random_csm, random_machine, random_protocol
from .test_transform import _random_regex

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

PSM_SOURCES = sorted(PROTOCOLS.glob("*.psm.json")) + sorted(
    PROTOCOLS.glob("*.gt"))
CSM_SOURCES = sorted(PROTOCOLS.glob("*.csm.json"))

PARTICIPANTS = ("p", "q", "r")


def outcome(fn, *args, **kwargs):
    """The result of a call, or its exception as (type, message, witness)."""
    try:
        return fn(*args, **kwargs)
    except (PsmError, ValueError, KeyError, TypeSyntaxError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def random_machines(seed: int, count: int):
    rng = random.Random(seed)
    for trial in range(count):
        if trial % 2:
            yield random_protocol(rng, rng.randrange(2, 10))
        else:
            yield random_machine(rng, rng.randrange(1, 10),
                                 (0.0, 0.3, 0.9)[trial % 3])


def corpus_machines():
    return [_load_machine(str(path)) for path in PSM_SOURCES]


# -- reachability and epsilon closures ---------------------------------------


def assert_reachability_agrees(machine: StateMachine, rng) -> None:
    assert machine.reachable_states() == reference.reachable_states(machine)
    states = sorted(machine.states)
    for _ in range(3):
        starts = rng.sample(states, rng.randrange(1, len(states) + 1))
        assert machine.eps_closure(starts) == reference.eps_closure(
            machine, starts)
        assert eps_closure(starts, machine.out) == reference.eps_closure(
            machine, starts)
    successors = lambda q: [dst for _, dst in machine.out(q)]
    for source in states:
        reached = reachable((source,), successors)
        for target in states:
            assert (target in reached) == reference._reaches(
                machine, source, target)
    assert is_ancestor_recursive(machine) == \
        reference.is_ancestor_recursive(machine)


def test_reachability_agrees_on_random_machines():
    rng = random.Random(3)
    for machine in random_machines(11, 1500):
        assert_reachability_agrees(machine, rng)


def test_reachability_agrees_on_trees_and_corpus():
    rng = random.Random(5)
    for _ in range(150):
        assert_reachability_agrees(random_sender_driven_tree(rng, 10), rng)
        assert_reachability_agrees(random_local_tree(rng), rng)
    for machine in corpus_machines():
        assert_reachability_agrees(machine, rng)


# -- bounded words ------------------------------------------------------------


def assert_traces_agree(machine: StateMachine, k: int) -> None:
    new = maximal_traces_upto(machine, k)
    old = reference.maximal_traces_upto(machine, k)
    assert list(new.items()) == list(old.items())


def test_maximal_traces_agree_on_random_machines():
    for trial, machine in enumerate(random_machines(13, 800)):
        assert_traces_agree(machine, trial % 6)


def test_maximal_traces_agree_on_corpus():
    for machine in corpus_machines():
        for k in (0, 3, 6):
            assert_traces_agree(machine, k)


def test_negative_bound_raises_the_same_error():
    machine = corpus_machines()[0]
    assert outcome(maximal_traces_upto, machine, -1) == outcome(
        reference.maximal_traces_upto, machine, -1)
    assert outcome(maximal_traces_upto, machine, -1)[0] is ValueError


# -- subset construction ------------------------------------------------------


def assert_subsets_agree(machine: StateMachine, participants) -> None:
    for participant in participants:
        new = subset_construction(machine, participant)
        old = reference.subset_construction(machine, participant)
        assert new == old
        assert dump_machine(new) == dump_machine(old)


def test_subset_construction_agrees_on_random_machines():
    for machine in random_machines(17, 800):
        assert_subsets_agree(machine, PARTICIPANTS)


def test_subset_construction_agrees_on_encoded_tame_protocols():
    rng = random.Random(19)
    checked = 0
    for _ in range(80):
        machine = random_tame_psm(rng)
        assert_subsets_agree(machine, machine.participants())
        try:
            psm = validate(machine)
            bounds = infer_channel_bounds(psm)
        except PsmError:
            continue
        encoded = encode_psm(psm.machine.trim(), bounds)
        assert_subsets_agree(encoded, encoded.participants())
        checked += 1
    assert checked > 40


def test_subset_construction_agrees_on_corpus():
    for machine in corpus_machines():
        assert_subsets_agree(machine, machine.participants())


# -- configuration graphs and witnesses ---------------------------------------


def assert_config_graphs_agree(machine: StateMachine, **caps) -> None:
    new = outcome(build_config_graph, machine, **caps)
    old = outcome(reference.build_config_graph, machine, **caps)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new.machine == old.machine
    assert new.nodes == old.nodes
    assert list(new.index.items()) == list(old.index.items())
    assert list(new.edges.items()) == list(old.edges.items())
    assert list(new.parent.items()) == list(old.parent.items())
    for node_id in range(len(old.nodes)):
        assert new.word_to(node_id) == old.word_to(node_id)


def test_config_graphs_agree_on_random_machines():
    failures = set()
    for trial, machine in enumerate(random_machines(23, 1200)):
        caps = ({}, {"queue_cap": 2}, {"config_cap": 6})[trial % 3]
        assert_config_graphs_agree(machine, **caps)
        result = outcome(reference.build_config_graph, machine, **caps)
        if isinstance(result, tuple):
            failures.add((result[0].__name__, result[1].split()[0]))
    # Non-FIFO receives, unmatched sends, and both caps are all exercised.
    assert {("NonFifo", "receive"), ("NonFifo", "complete"),
            ("UnboundedChannel", "channel"),
            ("UnboundedChannel", "exploration")} <= failures


def test_config_graphs_agree_on_corpus():
    for machine in corpus_machines():
        assert_config_graphs_agree(machine)
        assert_config_graphs_agree(machine, config_cap=5)


def test_explore_witnesses_agree():
    rng = random.Random(29)
    csms = [random_csm(rng) for _ in range(300)]
    csms += [load_csm(path.read_text()) for path in CSM_SOURCES]
    for csm in csms:
        for queue_cap in (1, 3):
            report = explore(csm, queue_cap=queue_cap, config_cap=200)
            for config in report.configs:
                assert report.witness(config) == reference.witness(
                    report, config)


# -- tree-shaped machines: derivatives ----------------------------------------


def assert_derivatives_agree(machine: StateMachine) -> None:
    machine = machine.trim()
    for _, dst in machine.out(machine.initial):
        new = psm_deriv_rooted(machine, dst)
        old = reference.psm_deriv_rooted(machine, dst)
        assert new == old
        assert dump_machine(new) == dump_machine(old)


def test_derivatives_agree_on_trees():
    rng = random.Random(31)
    for _ in range(300):
        assert_derivatives_agree(random_sender_driven_tree(rng, 10))
        assert_derivatives_agree(regex_to_psm(_random_regex(rng)))
    for machine in random_machines(37, 300):
        assert_derivatives_agree(machine)
    tree = random_sender_driven_tree(random.Random(41), 10)
    for ev, _ in tree.out(tree.initial):
        assert psm_deriv(ev, tree).states


# -- global and local types ---------------------------------------------------


def random_payload(rng: random.Random):
    return rng.choice((None, None, "int", StateRef("q0")))


def random_global(rng: random.Random, depth: int = 4, bound: tuple = ()):
    """A random global type; some are unguarded or use unbound variables."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if rng.random() < 0.4:
            return Var(rng.choice(bound or ("Z",)))
        return End()
    if roll < 0.4:
        var = f"X{len(bound) + 1}"
        return Rec(var, random_global(rng, depth - 1, bound + (var,)))
    branches = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        sender, receiver = rng.sample(PARTICIPANTS, 2)
        branches.append((pair(sender, receiver, rng.choice("abc"),
                              random_payload(rng)),
                         random_global(rng, depth - 1, bound)))
    return Choice(tuple(branches))


def random_local(rng: random.Random, depth: int = 4, bound: tuple = ()):
    """A random local type of p; some use unbound variables."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if rng.random() < 0.4:
            return Var(rng.choice(bound or ("Z",)))
        return End()
    if roll < 0.4:
        var = f"X{len(bound) + 1}"
        return Rec(var, random_local(rng, depth - 1, bound + (var,)))
    kind = rng.choice(("send", "recv"))
    branches = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        peer = rng.choice(("q", "r"))
        sender, receiver = ("p", peer) if kind == "send" else (peer, "p")
        ev = Event(kind, sender, receiver, rng.choice("abc"),
                   random_payload(rng))
        branches.append((ev, random_local(rng, depth - 1, bound)))
    return Choice(tuple(branches))


def assert_types_agree(g, l) -> None:
    new, old = outcome(global_to_psm, g), outcome(reference.global_to_psm, g)
    assert new == old
    if isinstance(new, StateMachine):
        assert dump_machine(new) == dump_machine(old)
    new = outcome(local_to_fsm, l)
    old = outcome(reference.local_to_fsm, l)
    assert new == old
    if isinstance(new, StateMachine):
        assert dump_machine(new) == dump_machine(old)
    assert _prune_unused_recs(g) == reference._prune_unused_recs(g)
    assert _prune_unused_recs(l) == reference._prune_unused_lrecs(l)
    for var in ("X1", "X2", "Z"):
        assert _uses_var(g, var) == reference._uses_var(g, var)
        assert _uses_var(l, var) == reference._uses_lvar(l, var)


def test_type_builders_and_pruners_agree_on_random_types():
    rng = random.Random(43)
    errors = set()
    for _ in range(1500):
        g, l = random_global(rng), random_local(rng)
        assert_types_agree(g, l)
        for result in (outcome(reference.global_to_psm, g),
                       outcome(reference.local_to_fsm, l)):
            if isinstance(result, tuple):
                errors.add(result[0])
    assert errors == {TypeSyntaxError, KeyError}


def test_type_builders_agree_on_read_back_types():
    rng = random.Random(47)
    for _ in range(150):
        tree = random_sender_driven_tree(rng, 10)
        local = random_local_tree(rng)
        assert_types_agree(psm_to_global_type(tree),
                           fsm_to_local_type(local, "p"))


# -- regex choice classes -----------------------------------------------------


def test_regex_classifiers_agree():
    rng = random.Random(53)
    classes = set()
    for _ in range(400):
        regex = _random_regex(rng, depth=rng.choice((2, 3, 4)))
        old = reference.regex_choice_class(regex)
        assert regex_choice_class(regex) == old
        assert regex_choice_class_bounded(regex, 4) == \
            reference.regex_choice_class_bounded(regex, 4)
        classes.add(old)
    assert len(classes) >= 3


@pytest.mark.parametrize("path", PSM_SOURCES, ids=lambda p: p.name)
def test_corpus_expansion_agrees(path):
    machine = expand_pairs(_load_machine(str(path)))
    assert_subsets_agree(machine, machine.participants())
    assert_traces_agree(machine, 6)
