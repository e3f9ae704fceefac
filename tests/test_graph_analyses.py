"""Differential tests: the graph-analysis section of `amp.core` against
the per-module copies it replaced.

`graph_reference` keeps the cycle finders, backward closures, maximal-run
and feasible-eventual-reception searches and ring-counter encoders as
they were; its reception search reads the string-named configuration
graph of `walker_reference`, and the library's the compiled one.  Sets,
verdicts, witness words and encoded machines (byte for byte) must be
equal on random labelled graphs, random machines with epsilon edges,
random CSMs explored with truncation, random tame protocols, the shipped
corpus and hand-built reception failures.
"""

import random
from pathlib import Path

import pytest

from amp.cli import _load_machine
from amp.core import (Compiled, StateMachine, backward_closure, dump_machine,
                      expand_pairs, fer_violation, maximal_capable,
                      nodes_on_cycles, pair, recv, send)
from amp.csm import Csm, explore, is_final_config, load_csm
from amp.encoding import encode_psm
from amp.psm import (FerViolation, NonFifo, PsmError,
                     UnboundedChannel, UnboundedLoop, build_config_graph,
                     check_fer, infer_channel_bounds, validate)
from amp.transform import psm_to_regex
from amp.typecheck import _csm_fer, check_well_annotated

from . import graph_reference as reference
from . import walker_reference
from .conftest import random_local_tree, random_tame_psm
from .semantics import encode_fsm

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

PSM_SOURCES = sorted(PROTOCOLS.glob("*.psm.json")) + sorted(
    PROTOCOLS.glob("*.gt"))
CSM_SOURCES = sorted(PROTOCOLS.glob("*.csm.json"))

PARTICIPANTS = ("p", "q", "r")


def random_event(rng: random.Random):
    sender, receiver = rng.sample(PARTICIPANTS, 2)
    kind = rng.choice((send, recv, pair))
    return kind(sender, receiver, rng.choice("ab"))


def random_machine(rng: random.Random, size: int,
                   eps: float = 0.3) -> StateMachine:
    """A random machine, not necessarily dense, with some epsilon edges."""
    states = [f"s{i}" for i in range(size)]
    transitions = []
    for _ in range(rng.randrange(size * 2 + 1)):
        event = None if rng.random() < eps else random_event(rng)
        transitions.append((rng.choice(states), event, rng.choice(states)))
    finals = [q for q in states if rng.random() < 0.2]
    return StateMachine(states, states[0], finals, transitions)


def random_protocol(rng: random.Random, size: int) -> StateMachine:
    """A random dense machine: a walk of exchanges, some split so that
    the receive comes later, with a few back edges and a few exits into
    a loop that never receives what is pending."""
    states = ["s0"]
    transitions = []
    pending = []
    for i in range(1, size):
        src, dst = f"s{i - 1}", f"s{i}"
        states.append(dst)
        sender, receiver = rng.sample(PARTICIPANTS, 2)
        label = rng.choice("ab")
        if pending and rng.random() < 0.4:
            transitions.append((src, recv(*pending.pop(0)), dst))
        elif rng.random() < 0.4:
            transitions.append((src, send(sender, receiver, label), dst))
            pending.append((sender, receiver, label))
        else:
            transitions.append((src, pair(sender, receiver, label), dst))
        roll = rng.random()
        if roll < 0.15:
            transitions.append((src, pair(sender, receiver, "x"),
                                rng.choice(states)))
        elif roll < 0.25:
            states.append(f"loop{i}")
            transitions.append((src, pair(sender, receiver, "y"), f"loop{i}"))
            transitions.append((f"loop{i}", pair(receiver, sender, "z"),
                                f"loop{i}"))
    return StateMachine(states, "s0", [f"s{size - 1}"], transitions)


def random_csm(rng: random.Random) -> Csm:
    """Two or three random components, each over its own sends and
    receives, with cycles and epsilon edges."""
    components = {}
    for owner in PARTICIPANTS[:rng.choice((2, 3))]:
        peers = [p for p in PARTICIPANTS if p != owner]
        size = rng.randrange(1, 5)
        states = [f"{owner}{i}" for i in range(size)]
        transitions = []
        for _ in range(rng.randrange(size * 2 + 1)):
            peer = rng.choice(peers)
            roll = rng.random()
            if roll < 0.1:
                event = None
            elif roll < 0.55:
                event = send(owner, peer, rng.choice("ab"))
            else:
                event = recv(peer, owner, rng.choice("ab"))
            transitions.append((rng.choice(states), event, rng.choice(states)))
        finals = [q for q in states if rng.random() < 0.4]
        components[owner] = StateMachine(states, states[0], finals,
                                         transitions)
    return Csm(components)


def random_bounds(rng: random.Random, machine: StateMachine) -> dict:
    channels = sorted({ev.channel for _, ev, _ in machine.transitions
                       if ev is not None})
    return {ch: rng.choice((1, 2, 3)) for ch in channels
            if rng.random() < 0.7}


# -- one machine: cycles, maximal runs, backward closure -------------------


def assert_machine_analyses_agree(machine: StateMachine) -> None:
    assert (nodes_on_cycles(machine.states, machine.out)
            == reference._states_on_cycles(machine))
    assert machine.useful_states() == reference.useful_states(machine)
    assert (backward_closure(machine.states, machine.out, machine.finals)
            == reference._states_reaching(machine, machine.finals))
    assert Compiled(machine).eps_cycle == reference.has_pure_eps_cycle(
        machine)


def test_machine_analyses_agree_on_random_machines():
    rng = random.Random(7)
    for trial in range(3000):
        eps = (0.0, 0.3, 0.9)[trial % 3]
        assert_machine_analyses_agree(
            random_machine(rng, rng.randrange(1, 14), eps))


def test_machine_analyses_agree_on_larger_machines():
    # Large enough for deep DFS trees, small enough for the recursive
    # reference's epsilon search.
    rng = random.Random(8)
    for _ in range(40):
        assert_machine_analyses_agree(
            random_machine(rng, rng.randrange(50, 300), eps=0.6))


def test_epsilon_cycle_detection_without_recursion():
    n = 5000
    states = [f"s{i}" for i in range(n)]
    line = [(states[i], None, states[i + 1]) for i in range(n - 1)]
    assert not Compiled(StateMachine(states, "s0", [], line)).eps_cycle
    looped = line + [(states[-1], None, "s0")]
    assert Compiled(StateMachine(states, "s0", [], looped)).eps_cycle
    mixed = line + [(states[-1], send("p", "q", "m"), "s0")]
    assert not Compiled(StateMachine(states, "s0", [], mixed)).eps_cycle


# -- feasible eventual reception on labelled graphs ----------------------


def test_fer_violation_agrees_on_random_labelled_graphs():
    """Many triples per channel, with backlogs up to 5, so that searches
    meet what earlier ones found reachable and unreachable."""
    rng = random.Random(31)
    verdicts = set()
    for _ in range(3000):
        size = rng.randrange(1, 12)
        nodes = range(size)
        edges = [[] for _ in nodes]
        for _ in range(rng.randrange(size * 3)):
            edges[rng.randrange(size)].append(
                (rng.choice((None, None, 0, 1)), rng.randrange(size)))
        finals = [v for v in nodes if rng.random() < 0.2]
        pending = [(rng.randrange(size), rng.choice((0, 1)),
                    rng.randrange(1, 6)) for _ in range(rng.randrange(12))]
        stuck = fer_violation(pending, edges.__getitem__, nodes, finals)
        assert stuck == reference.fer_violation(pending, edges.__getitem__,
                                                nodes, finals)
        verdicts.add(stuck is None)
    assert verdicts == {True, False}


# -- protocol configuration graphs: FER and its witness ------------------


def assert_fer_agrees(machine: StateMachine, **caps) -> bool:
    """Compare on the configuration graph, when one can be built; return
    the verdict."""
    try:
        graph = build_config_graph(Compiled(machine), **caps)
    except (NonFifo, UnboundedChannel):
        return True
    old = walker_reference.build_config_graph(machine, **caps)
    nodes = range(len(graph.nodes))
    finals = [i for i in nodes if graph.finals & graph.nodes[i][0]]
    assert (maximal_capable(nodes, graph.moves.__getitem__, finals)
            == reference._maximal_capable(old))
    verdict = check_fer(graph)
    assert verdict == reference.check_fer(old)
    return verdict[0]


def test_fer_agrees_on_random_protocols():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(1500):
        machine = random_protocol(rng, rng.randrange(2, 10))
        verdicts.add(assert_fer_agrees(machine, queue_cap=3,
                                       config_cap=400))
    assert verdicts == {True, False}


def test_fer_agrees_on_random_machines():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(1500):
        machine = random_machine(rng, rng.randrange(1, 9), eps=0.1)
        verdicts.add(assert_fer_agrees(machine, queue_cap=2, config_cap=200))
    assert verdicts == {True, False}


def test_fer_agrees_on_random_tame_protocols():
    rng = random.Random(13)
    for _ in range(60):
        assert assert_fer_agrees(random_tame_psm(rng))


@pytest.mark.parametrize("source", PSM_SOURCES, ids=lambda p: p.name)
def test_corpus_protocols_agree(source):
    machine = _load_machine(str(source))
    assert_machine_analyses_agree(machine)
    assert_fer_agrees(machine)


STUCK = [
    # A send nobody ever receives, then a loop.
    (StateMachine({"s0", "s1"}, "s0", (),
                  [("s0", send("p", "q", "m"), "s1"),
                   ("s1", pair("r", "p", "x"), "s1")]),
     ("p>q!m",)),
    # The same, after an exchange; the other branch completes.
    (StateMachine({"s0", "s1", "s2", "s3", "s4"}, "s0", {"s4"},
                  [("s0", pair("p", "r", "go"), "s1"),
                   ("s1", send("p", "q", "m"), "s2"),
                   ("s2", pair("q", "r", "x"), "s2"),
                   ("s0", pair("p", "r", "stop"), "s3"),
                   ("s3", pair("p", "q", "y"), "s4")]),
     ("p>r!go", "p>r?go", "p>q!m")),
    # One channel drains, the other never does.
    (StateMachine({"s0", "s1", "s2", "s3"}, "s0", (),
                  [("s0", send("p", "q", "m"), "s1"),
                   ("s1", send("r", "q", "n"), "s2"),
                   ("s2", recv("p", "q", "m"), "s3"),
                   ("s3", pair("q", "p", "z"), "s3")]),
     ("p>q!m", "r>q!n")),
]


@pytest.mark.parametrize("machine, witness", STUCK)
def test_fer_violations_have_equal_witnesses(machine, witness):
    assert not assert_fer_agrees(machine)
    with pytest.raises(FerViolation) as caught:
        validate(machine)
    assert tuple(str(ev) for ev in caught.value.witness) == witness


def test_psm_to_regex_needs_every_state_to_finish():
    machine = StateMachine({"s0", "s1", "s2"}, "s0", {"s2"},
                           [("s0", pair("p", "q", "a"), "s2"),
                            ("s0", pair("p", "q", "b"), "s1"),
                            ("s1", pair("q", "p", "c"), "s1")])
    with pytest.raises(ValueError, match="no path to a final state"):
        psm_to_regex(machine)


# -- CSM exploration: well-annotation ------------------------------------


def assert_csm_fer_agrees(csm: Csm, **caps) -> tuple[bool, bool]:
    """Compare on the explored configurations; return the FER verdict and
    whether exploration was truncated."""
    report = explore(csm, **caps)
    configs = report.configs
    nodes = range(len(configs))
    edges = {i: tuple((ev, j) for ev, j in report.out(i) if j in nodes)
             for i in nodes}
    finals = [i for i in nodes if is_final_config(csm, configs[i])]
    assert (maximal_capable(nodes, edges.__getitem__, finals)
            == reference._capable_nodes(csm, configs, edges))
    fer = _csm_fer(csm, report)
    assert fer == reference._csm_fer(csm, report)
    annotated = check_well_annotated(csm, **caps)
    assert (annotated.deadlock_free, annotated.fer) == (
        not report.deadlocks, fer)
    return fer, report.truncated


def test_csm_fer_agrees_on_random_csms():
    rng = random.Random(21)
    outcomes = set()
    for trial in range(1500):
        config_cap = (6, 40, 2000)[trial % 3]
        outcomes.add(assert_csm_fer_agrees(random_csm(rng), queue_cap=2,
                                           config_cap=config_cap))
    # FER holds and fails, with and without truncation.
    assert len(outcomes) == 4


@pytest.mark.parametrize("source", CSM_SOURCES, ids=lambda p: p.name)
def test_corpus_csms_agree(source):
    csm = load_csm(source.read_text())
    for queue_cap in (1, 2, 4):
        assert_csm_fer_agrees(csm, queue_cap=queue_cap, config_cap=50_000)
    for machine in csm.components.values():
        assert_machine_analyses_agree(machine)


def test_csm_fer_violation():
    # p sends q a message q never takes, then keeps sending to r.
    csm = Csm({
        "p": StateMachine({"p0", "p1"}, "p0", (),
                          [("p0", send("p", "q", "m"), "p1"),
                           ("p1", send("p", "r", "t"), "p1")]),
        "q": StateMachine({"q0"}, "q0", (), [("q0", None, "q0")]),
        "r": StateMachine({"r0"}, "r0", (),
                          [("r0", recv("p", "r", "t"), "r0")]),
    })
    assert assert_csm_fer_agrees(csm, queue_cap=2, config_cap=100) == (
        False, True)
    assert not check_well_annotated(csm, queue_cap=2).fer


# -- the ring-counter encoders ---------------------------------------------


def assert_encoders_agree(machine: StateMachine, bounds: dict) -> None:
    """The encoding of the compiled machine, written out, against the
    string encoder's of the machine with its pairs split, as validation
    leaves a protocol: a pair on a bounded channel is routed through the
    ring like any other message."""
    assert (dump_machine(encode_psm(Compiled(machine), bounds).machine())
            == dump_machine(reference.encode_psm(expand_pairs(machine),
                                                 bounds)))


def assert_fsm_encoders_agree(machine: StateMachine, participant: str,
                              bounds: dict) -> None:
    new = encode_fsm(machine, participant, bounds)
    old = reference.encode_fsm(machine, participant, bounds)
    assert new == old and dump_machine(new) == dump_machine(old)


def test_encode_psm_agrees_on_random_tame_protocols():
    rng = random.Random(31)
    for _ in range(80):
        psm = validate(random_tame_psm(rng))
        try:
            bounds = infer_channel_bounds(psm)
        except UnboundedLoop:
            continue
        assert_encoders_agree(psm.machine, bounds)
        assert_encoders_agree(psm.machine,
                              {ch: rng.choice((2, 3)) for ch in bounds})


def test_encode_psm_agrees_on_random_machines():
    # Every send is on a bounded channel, so only a pair on an unbounded
    # channel is merged again after its split.
    rng = random.Random(34)
    for _ in range(500):
        machine = random_machine(rng, rng.randrange(1, 8))
        bounds = random_bounds(rng, machine)
        for _, ev, _ in machine.transitions:
            if ev is not None and ev.kind == "send":
                bounds.setdefault(ev.channel, rng.choice((1, 2, 3)))
        assert_encoders_agree(machine, bounds)


@pytest.mark.parametrize("source", PSM_SOURCES, ids=lambda p: p.name)
def test_encode_psm_agrees_on_corpus(source):
    try:
        psm = validate(_load_machine(str(source)))
        bounds = infer_channel_bounds(psm)
    except PsmError:
        return
    assert_encoders_agree(psm.machine, bounds)
    # Wider rings than needed thread the same counters.
    assert_encoders_agree(psm.machine, {ch: 3 for ch in bounds})


def test_encode_fsm_agrees_on_random_local_machines():
    rng = random.Random(32)
    for _ in range(300):
        participant = rng.choice(PARTICIPANTS)
        machine = random_local_tree(rng, participant)
        assert_fsm_encoders_agree(machine, participant,
                                  random_bounds(rng, machine))


def test_encode_fsm_agrees_on_random_machines():
    # Foreign and paired events included, which local machines never have.
    rng = random.Random(33)
    for _ in range(500):
        machine = random_machine(rng, rng.randrange(1, 8))
        assert_fsm_encoders_agree(machine, rng.choice(PARTICIPANTS),
                                  random_bounds(rng, machine))


@pytest.mark.parametrize("source", CSM_SOURCES, ids=lambda p: p.name)
def test_encode_fsm_agrees_on_corpus(source):
    csm = load_csm(source.read_text())
    rng = random.Random(source.name)
    for participant, machine in csm.components.items():
        for _ in range(3):
            assert_fsm_encoders_agree(machine, participant,
                                      random_bounds(rng, machine))
