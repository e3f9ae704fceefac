"""Tests for protocol machine validation, classification, and bounds."""

import random
from pathlib import Path
from unittest import mock

import pytest

from amp import psm as psm_module
from amp.cli import _load_protocol, main
from amp.core import (Compiled, StateMachine, maximal_traces_upto, pair, recv,
                      send)
from amp.fifo import COMPLETE, OK, is_fifo
from amp.psm import (DIRECTED, FerViolation, MIXED, NON_DETERMINISTIC, NonFifo,
                     NotDense, PsmError, SENDER_DRIVEN, UnboundedChannel,
                     UnboundedLoop, build_config_graph, check_fer,
                     choice_report, detected_channels, infer_channel_bounds,
                     is_tame, validate)
from amp.transform import global_to_psm, parse_global_type

from .compiled_reference import has_pure_eps_cycle
from .conftest import (epsilon_chain, kle_machine, paired_chain,
                       random_looping_protocol, random_sender_driven_tree,
                       random_tame_psm, three_party_machine)
from .semantics import complete_traces
from .test_graph_analyses import random_machine, random_protocol


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
    machines = [_load_protocol(str(path)).source for path in sorted(
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


# -- immediate forms: validation without the configuration walk ----------

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"
CORPUS = sorted(PROTOCOLS.glob("*.psm.json")) + sorted(PROTOCOLS.glob("*.gt"))
# the corpus protocols where every send is received at once
IMMEDIATE = ["kle_encoded.psm.json", "three_party_choice.psm.json",
             "leader_election.gt", "leader_election_lose.gt",
             "mixed_choice_toy.gt", "nonsink_choice.gt", "one_buyer.gt",
             "three_party_choice.gt", "three_party_reply_mismatch.gt"]


def _verdict(machine: StateMachine, **caps):
    """`validate`'s bounds, channel order included, or its error."""
    try:
        got = validate(machine, **caps)
    except PsmError as exc:
        return type(exc), str(exc), exc.witness
    return got.bound_total, list(got.bound_by_channel.items())


def assert_shortcut_agrees(machine: StateMachine, *caps) -> bool:
    """`validate` answers as it does when it walks every form, under each
    of `caps` (config caps) and none; a form it certifies without the
    walk is one whose walk raises nothing, passes FER and makes as many
    nodes as the shortcut counted.  Returns whether it skipped the walk."""
    form = Compiled(machine)
    configs = (form.dense and not form.eps_cycle
               and psm_module._immediate_configs(form))
    runs = [{}] + [{"config_cap": cap} for cap in caps]
    with mock.patch.object(psm_module, "_immediate_configs", return_value=0):
        walked = [_verdict(machine, **run) for run in runs]
    assert [_verdict(machine, **run) for run in runs] == walked
    if configs:
        graph = build_config_graph(form)
        assert check_fer(graph) == (True, None)
        assert len(graph.nodes) == configs
        assert walked[0] == (graph.bound, [
            (ch, n) for ch, n in zip(graph.channels, graph.longest) if n])
    return bool(configs)


def _caps(machine: StateMachine):
    """Config caps around the walk's node count, and the smallest ones."""
    try:
        nodes = len(build_config_graph(Compiled(machine)).nodes)
    except PsmError:
        nodes = 2
    return 0, 1, nodes - 1, nodes


def test_the_shortcut_agrees_with_the_walk_on_the_corpus():
    immediate = []
    for path in CORPUS:
        machine = _load_protocol(str(path)).source
        if assert_shortcut_agrees(machine, *_caps(machine)):
            immediate.append(path.name)
    assert sorted(immediate) == sorted(IMMEDIATE)


def test_the_shortcut_agrees_with_the_walk_on_random_machines():
    rng = random.Random(41)
    machines = [paired_chain(n) for n in range(5)] + [
        epsilon_chain(n) for n in range(1, 5)]
    for _ in range(150):
        machines.append(random_sender_driven_tree(rng))
        machines.append(random_tame_psm(rng))
        machines.append(random_looping_protocol(rng)[0])
        machines.append(random_protocol(rng, rng.randrange(2, 10)))
        machines.append(random_machine(rng, rng.randrange(1, 8), eps=0.1))
    skipped = sum(assert_shortcut_agrees(machine, *_caps(machine))
                  for machine in machines)
    # both paths are taken, each on a hundred draws or more
    assert 100 < skipped < len(machines) - 100


def _machine(finals, *transitions, initial="s0"):
    states = {q for src, _, dst in transitions for q in (src, dst)}
    return StateMachine(states | {initial}, initial, finals, transitions)


NEAR_MISSES = {
    # sum one, but the receive waits behind an epsilon move
    "send-eps-receive": _machine(
        {"s3"}, ("s0", send("p", "q", "m"), "s1"), ("s1", None, "s2"),
        ("s2", recv("p", "q", "m"), "s3")),
    "receive-first": _machine({"s1"}, ("s0", recv("p", "q", "m"), "s1")),
    "final-middle": _machine(
        {"s1", "s2"}, ("s0", send("p", "q", "m"), "s1"),
        ("s1", recv("p", "q", "m"), "s2")),
    # after the receive, an epsilon move goes back to the middle state
    "eps-into-middle": _machine(
        {"s2"}, ("s0", send("p", "q", "m"), "s1"),
        ("s1", recv("p", "q", "m"), "s2"), ("s2", None, "s1")),
    "two-sends-one-middle": _machine(
        {"s2"}, ("s0", send("p", "q", "a"), "s1"),
        ("s0", send("p", "q", "b"), "s1"), ("s1", recv("p", "q", "a"), "s2")),
    "two-receives-one-middle": _machine(
        {"s2"}, ("s0", send("p", "q", "a"), "s1"),
        ("s0", send("p", "q", "b"), "s1"), ("s1", recv("p", "q", "a"), "s2"),
        ("s1", recv("p", "q", "b"), "s2")),
    # a send loops back to the initial state, a middle one
    "send-into-initial": _machine(
        set(), ("s0", send("p", "q", "m"), "s0")),
    "initial-middle": _machine(
        {"s1"}, ("s0", recv("p", "q", "m"), "s1"),
        ("s1", send("p", "q", "m"), "s0")),
    # the receive of a enters the state where b is received
    "receive-into-middle": _machine(
        {"s4"}, ("s0", send("p", "q", "a"), "s1"),
        ("s1", recv("p", "q", "a"), "s2"), ("s2", recv("p", "q", "b"), "s4"),
        ("s4", pair("q", "p", "x"), "s3"), ("s3", send("p", "q", "b"), "s2")),
    # equal letters from one state: the graph determinises them
    "equal-letters": _machine(
        {"s2", "s3"}, ("s0", pair("p", "q", "m"), "s1"),
        ("s0", pair("p", "q", "m"), "s2"), ("s1", pair("q", "p", "a"), "s3")),
    "label-clash": _load_protocol(
        str(PROTOCOLS / "three_party_label_clash.gt")).source,
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_the_shortcut_declines_near_misses(name):
    machine = NEAR_MISSES[name]
    assert not assert_shortcut_agrees(machine, *_caps(machine))


def test_an_exchange_loop_back_to_the_initial_state_is_immediate():
    loop = _machine({"s0"}, ("s0", pair("p", "q", "m"), "s1"),
                    ("s1", pair("q", "p", "n"), "s0"))
    assert assert_shortcut_agrees(loop, *_caps(loop))
    assert validate(loop).bound_by_channel == {("p", "q"): 1, ("q", "p"): 1}


@pytest.mark.parametrize("name", IMMEDIATE)
def test_commands_on_immediate_protocols_walk_no_graph(tmp_path, capsys,
                                                       name):
    source = str(PROTOCOLS / name)
    out = str(tmp_path / "out.csm.json")
    with mock.patch.object(psm_module, "build_config_graph",
                           side_effect=AssertionError("walked")) as walk:
        codes = [main(["validate", source]), main(["bounds", source]),
                 main(["project", source, "-o", out])]
    capsys.readouterr()
    assert not walk.called
    assert codes[:2] == [0, 0] and codes[2] in (0, 1)
