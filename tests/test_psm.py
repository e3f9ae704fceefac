"""Tests for protocol machine validation, classification, and bounds."""

import random
from pathlib import Path

import pytest

from amp.cli import _load_machine
from amp.core import Compiled, StateMachine, maximal_traces_upto, recv, send
from amp.fifo import COMPLETE, OK, is_fifo
from amp.psm import (DIRECTED, FerViolation, MIXED, NON_DETERMINISTIC, NonFifo,
                     NotDense, PsmError, SENDER_DRIVEN, UnboundedChannel,
                     UnboundedLoop, build_config_graph, choice_report,
                     detected_channels, infer_channel_bounds, is_tame,
                     validate)
from amp.transform import global_to_psm, parse_global_type

from .compiled_reference import has_pure_eps_cycle
from .conftest import (epsilon_chain, kle_machine, random_looping_protocol,
                       random_sender_driven_tree, random_tame_psm,
                       three_party_machine)
from .semantics import complete_traces
from .test_graph_analyses import random_protocol


def test_three_party_is_sum_one():
    psm = validate(three_party_machine())
    assert psm.bound_total == 1 and psm.sum_one
    assert psm.bound_by_channel == {("p", "q"): 1, ("p", "r"): 1,
                                    ("q", "r"): 1, ("r", "p"): 1}


def test_kle_is_per_channel_one():
    psm = validate(kle_machine())
    assert psm.bound_by_channel[("e", "o")] == 1
    assert psm.bound_by_channel[("o", "e")] == 1
    assert psm.bound_total == 2 and not psm.sum_one


def test_unbounded_send_loop_rejected():
    machine = StateMachine({"a"}, "a", set(), [("a", send("p", "q", "m"), "a")])
    with pytest.raises(UnboundedChannel):
        validate(machine)


def test_non_fifo_receive_rejected():
    machine = StateMachine(
        {"a", "b", "c"}, "a", {"c"},
        [("a", send("p", "q", "1"), "b"), ("b", recv("p", "q", "2"), "c")])
    with pytest.raises(NonFifo):
        validate(machine)


def test_unmatched_send_at_completion_rejected():
    machine = StateMachine({"a", "b"}, "a", {"b"},
                           [("a", send("p", "q", "m"), "b")])
    with pytest.raises(NonFifo):
        validate(machine)


def test_density_violation_rejected():
    machine = StateMachine(
        {"a", "b", "c"}, "a", {"c"},
        [("a", None, "b"), ("a", send("p", "q", "m"), "c"),
         ("b", send("p", "q", "m"), "c"), ("c", recv("p", "q", "m"), "c")])
    with pytest.raises(NotDense):
        validate(machine)


def test_certified_bound_is_minimal():
    """The configuration graph must actually reach the certified bound."""
    machine = StateMachine(
        {"a", "b", "c", "c2", "d"}, "a", {"d"},
        [("a", send("p", "q", "m"), "b"), ("b", send("p", "q", "n"), "c"),
         ("c", recv("p", "q", "m"), "c2"), ("c2", recv("p", "q", "n"), "d")])
    psm = validate(machine)
    assert psm.bound_by_channel[("p", "q")] == 2


def test_fer_violation_detected():
    """A pending send with only an unrelated infinite loop behind it."""
    machine = StateMachine(
        {"a", "b", "c"}, "a", set(),
        [("a", send("p", "q", "m"), "b"),
         ("b", send("r", "s", "x"), "c"), ("c", recv("r", "s", "x"), "b")])
    with pytest.raises(FerViolation):
        validate(machine)


def test_fer_accepts_empty_language():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    validate(machine)  # raises FerViolation on a violation


def test_global_type_machines_satisfy_fer():
    g = parse_global_type("rec X . ( p->q:go . X + p->q:stop . 0 )")
    validate(global_to_psm(g))  # raises FerViolation on a violation


def test_traces_of_valid_psm_are_fifo():
    for machine in (three_party_machine(), kle_machine()):
        psm = validate(machine)
        traces = maximal_traces_upto(psm.machine, 6)
        for word, flags in traces.items():
            status = is_fifo(word).status
            if flags.complete:
                assert status == COMPLETE
            else:
                assert status in (OK, COMPLETE)


def classify_choice(machine: StateMachine) -> str:
    return choice_report(Compiled(machine))[1]


def test_classify_examples():
    assert classify_choice(three_party_machine()) == SENDER_DRIVEN
    assert classify_choice(kle_machine()) == SENDER_DRIVEN
    trivial = StateMachine({"a"}, "a", {"a"}, [])
    assert classify_choice(trivial) == DIRECTED
    mixed = StateMachine(
        {"a", "b", "c", "d", "e"}, "a", {"c", "e"},
        [("a", send("p", "q", "m"), "b"), ("b", recv("p", "q", "m"), "c"),
         ("a", send("q", "p", "n"), "d"), ("d", recv("q", "p", "n"), "e")])
    assert classify_choice(mixed) == MIXED
    dup = StateMachine(
        {"a", "b", "c"}, "a", {"b", "c"},
        [("a", send("p", "q", "m"), "b"), ("a", send("p", "q", "m"), "c")])
    assert classify_choice(dup) == NON_DETERMINISTIC


def test_classification_is_monotone(rng):
    """Directed implies sender-driven implies mixed, on random machines."""
    from .conftest import random_sender_driven_tree
    order = {DIRECTED: 0, SENDER_DRIVEN: 1, MIXED: 2, NON_DETERMINISTIC: 3}
    for _ in range(25):
        machine = random_sender_driven_tree(rng)
        kind = classify_choice(machine)
        assert order[kind] <= order[MIXED]


def test_detected_channels():
    assert detected_channels(Compiled(three_party_machine())) == frozenset()
    assert detected_channels(Compiled(kle_machine())) == {("e", "o"),
                                                          ("o", "e")}


def test_infer_bounds_examples():
    assert infer_channel_bounds(validate(kle_machine())) == {
        ("e", "o"): 1, ("o", "e"): 1}
    assert infer_channel_bounds(validate(three_party_machine())) == {}


def test_infer_bounds_mini_exchange_loop():
    """A loop of crossed sends with return traffic is bounded by one."""
    machine = StateMachine(
        {"a", "a2", "b", "c", "d", "e", "e0"}, "a", {"e"},
        [("a", send("p", "q", "m"), "b"), ("b", send("q", "p", "n"), "c"),
         ("c", recv("p", "q", "m"), "d"), ("d", recv("q", "p", "n"), "a2"),
         ("a2", None, "a"), ("a", send("p", "q", "bye"), "e0"),
         ("e0", recv("p", "q", "bye"), "e")])
    bounds = infer_channel_bounds(validate(machine))
    assert bounds == {("p", "q"): 1, ("q", "p"): 1}


def test_infer_bounds_rejects_unreciprocated_loop():
    """Deferred sends across iterations with no traffic back."""
    machine = StateMachine(
        {"a", "b", "c", "d"}, "a", set(),
        [("a", send("p", "q", "m"), "b"), ("b", send("p", "q", "m"), "c"),
         ("c", recv("p", "q", "m"), "d"), ("d", recv("p", "q", "m"), "a")])
    psm = validate(machine)
    with pytest.raises(UnboundedLoop):
        infer_channel_bounds(psm)


def test_is_tame_examples():
    assert is_tame(validate(kle_machine())).tame
    report = is_tame(validate(three_party_machine()))
    assert report.tame and report.bounds == {}
    mixed = StateMachine(
        {"a", "b", "c", "d", "e"}, "a", {"c", "e"},
        [("a", send("p", "q", "m"), "b"), ("b", recv("p", "q", "m"), "c"),
         ("a", send("q", "p", "n"), "d"), ("d", recv("q", "p", "n"), "e")])
    mixed_report = is_tame(validate(mixed))
    assert not mixed_report.tame
    assert choice_report(Compiled(mixed))[2] == "a"


def test_sink_finalized_nondeterministic_not_tame():
    from amp.transform import make_sink_final
    machine = StateMachine(
        {"a", "b", "f", "f2"}, "a", {"f"},
        [("a", send("p", "q", "m"), "b"), ("b", recv("p", "q", "m"), "f"),
         ("f", send("p", "q", "n"), "f2"), ("f2", recv("p", "q", "n"), "f")])
    finalized = make_sink_final(machine)
    report = is_tame(validate(finalized))
    assert not report.tame
    assert report.choice == NON_DETERMINISTIC


def test_bounds_respected_by_traces(rng):
    """Complete bounded traces obey the inferred per-channel bounds."""
    from amp.fifo import project
    from .semantics import is_b_bounded
    from .conftest import random_tame_psm
    for _ in range(10):
        machine = random_tame_psm(rng)
        psm = validate(machine)
        bounds = infer_channel_bounds(psm)
        traces = maximal_traces_upto(psm.machine, 6)
        for word in complete_traces(traces):
            for channel, bound in bounds.items():
                restricted = project(word, channel=channel)
                assert is_b_bounded(restricted, bound)


def test_validate_long_epsilon_chain():
    # Deeper than the default recursion limit: no analysis may recurse
    # once per state.
    psm = validate(epsilon_chain(3000))
    assert psm.bound_by_channel == {("p", "q"): 1}
    assert not has_pure_eps_cycle(psm.machine)


def _scanned_bounds(machine: StateMachine):
    """The bounds as `validate` found them by scanning every node's queues
    after the configuration walk."""
    graph = build_config_graph(Compiled(machine))
    queues = [q for _, q in graph.nodes]
    total = max(sum(map(len, q)) for q in queues)
    longest = [max(map(len, column)) for column in zip(*queues)]
    return total, {ch: n for ch, n in zip(graph.channels, longest) if n}


def test_the_walk_measures_the_bounds_the_node_scan_found():
    protocols = Path(__file__).resolve().parent.parent / "protocols"
    machines = [_load_machine(str(path)) for path in sorted(
        protocols.glob("*.psm.json")) + sorted(protocols.glob("*.gt"))]
    rng = random.Random(7)
    for _ in range(150):
        machines.append(random_sender_driven_tree(rng))
        machines.append(random_tame_psm(rng))
        machines.append(random_looping_protocol(rng)[0])
        machines.append(random_protocol(rng, rng.randrange(2, 10)))
    busy = checked = 0
    for machine in machines:
        try:
            psm = validate(machine)
        except PsmError:
            continue
        total, per_channel = _scanned_bounds(machine)
        assert (psm.bound_total, psm.bound_by_channel) == (total, per_channel)
        checked += 1
        busy += total > 1
    assert checked > 400 and busy > 50
