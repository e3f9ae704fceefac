"""Differential tests: the compiled CSM kernel against the reference.

`csm_reference` keeps the semantics as they were before the kernel.
Reports, languages, verdicts and schedules must be equal, in the same
order, on the shipped CSMs, random tame projections, the concurrent
`pairs` family, a hand-built CSM with tied moves, the hand-drawn
three-party CSMs with epsilon back edges, 300 random hand-drawn CSMs
and one CSM whose state and queue ids need wide packed fields.  A
report reads its moves back from the kernel, so they must not change
when a later exploration or witness grows the kernel's queue tables.
The kernel memoises each participant's moves per queue cap and local
view: one CSM explored at several caps in turn, before and after a
witness interns a foreign message, must match the reference at each
cap, also when the tables are full, and `pairs(4,4)` must derive
moves once per local view.

It also keeps the word-level oracle, which enumerates every CSM word
and the swap closure of the protocol's words, while `amp.csm` compares
projection vectors.  Their verdicts must be equal, reasons and
witnesses included, on random tame projections and a mutated candidate
for each, on the `pairs` family, on the negative controls and on the
shipped goldens.
"""

import itertools
import random
from pathlib import Path

import pytest

from amp import csm as kernel
from amp.cli import _load_machine
from amp.core import (RECV, Event, StateMachine, StateRef, pair, recv,
                      send)
from amp.csm import Csm, load_csm
from amp.fifo import VIOLATION, is_fifo
from amp.projection import NotProjectable, NotTame, project_tame
from amp.psm import Psm, validate

from . import csm_reference as reference
from . import projection_reference
from .conftest import random_tame_psm, three_party_csm, three_party_machine
from .semantics import initial_config

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

SHIPPED = sorted(PROTOCOLS.glob("*.csm.json"))

# Shipped CSMs with the protocol they project.
GOLDENS = [path.name[:-len(".csm.json")] for path in SHIPPED
           if any(path.with_name(path.name.replace(".csm.json", ext)).exists()
                  for ext in (".psm.json", ".gt"))]

QUEUE_CAPS = (1, 2, 8)


def pairs(n: int, m: int, wrong: bool = False) -> tuple[StateMachine, Csm]:
    """n disjoint pairs p<i> -> q<i> of m messages each, as a protocol
    machine and its projection; with `wrong`, q1 expects its labels in
    reverse order (or one nobody sends) and the CSM deadlocks."""
    labels = [f"l{j}" for j in range(m)]
    messages = [(f"p{i}", f"q{i}", label)
                for i in range(1, n + 1) for label in labels]
    protocol = StateMachine(
        {f"s{j}" for j in range(len(messages) + 1)}, "s0",
        {f"s{len(messages)}"},
        [(f"s{j}", pair(*msg), f"s{j + 1}") for j, msg in enumerate(messages)])
    components = {}
    for i in range(1, n + 1):
        sender, receiver = f"p{i}", f"q{i}"
        received = labels
        if wrong and i == 1:
            received = labels[::-1] if m > 1 else ["never"]
        components[sender] = _line(
            sender, [send(sender, receiver, label) for label in labels])
        components[receiver] = _line(
            receiver, [recv(sender, receiver, label) for label in received])
    return protocol, Csm(components)


def _line(owner: str, events) -> StateMachine:
    states = [f"{owner}_{i}" for i in range(len(events) + 1)]
    return StateMachine(states, states[0], [states[-1]],
                        [(states[i], ev, states[i + 1])
                         for i, ev in enumerate(events)])


def tied_csm(swap: bool = False) -> Csm:
    """One send to two destinations, and epsilon self-loops in two
    participants, so some moves tie on event and successor; `swap`
    swaps the names of the two destinations, and so their order."""
    b, c = ("c", "b") if swap else ("b", "c")
    p = StateMachine(
        {"a", "b", "c", "d"}, "a", {b, "d"},
        [("a", send("p", "q", "m"), b), ("a", send("p", "q", "m"), c),
         (b, None, b), (c, send("p", "q", "n"), "d"),
         ("a", None, "a")])
    q = StateMachine(
        {"x", "y", "z"}, "x", {"y", "z"},
        [("x", None, "x"), ("x", recv("p", "q", "m"), "y"),
         ("y", recv("p", "q", "n"), "z"), ("y", None, "y")])
    return Csm({"p": p, "q": q})


def random_projections(count: int = 6, draws: int = 200) -> list[Csm]:
    """The projections of the first `count` random tame protocols that
    project; raises when `draws` protocols give fewer, so that a
    projection that rejects every candidate fails collection instead of
    hanging."""
    rng = random.Random(20240811)
    found = []
    for _ in range(draws):
        try:
            found.append(project_tame(validate(random_tame_psm(rng))).csm)
        except (NotTame, NotProjectable):
            continue
        if len(found) == count:
            return found
    raise RuntimeError(f"only {len(found)} of {draws} random tame protocols "
                       f"projected, {count} needed")


def test_random_projections_give_up_after_their_draws():
    with pytest.raises(RuntimeError, match="random tame protocols projected"):
        random_projections(draws=3)


def corpus() -> list[tuple[str, Csm]]:
    cases = [(path.name, load_csm(path.read_text())) for path in SHIPPED]
    cases += [(f"random{i}", csm)
              for i, csm in enumerate(random_projections())]
    for n, m in ((2, 2), (3, 1), (2, 3)):
        for wrong in (False, True):
            cases.append((f"pairs({n},{m}){' wrong' * wrong}",
                          pairs(n, m, wrong)[1]))
    cases.append(("tied", tied_csm()))
    # Hand-drawn, with epsilon back edges that projections never have.
    cases.append(("three_party", three_party_csm()))
    cases.append(("three_party mismatch", three_party_csm(v1="v1", v2="v2")))
    return cases


CORPUS = corpus()
IDS = [name for name, _ in CORPUS]


def assert_same_tree(new, old) -> None:
    """Equal reports, witnesses aside: they follow from `parent`."""
    assert new.configs == old.configs
    assert list(new.edges.items()) == list(old.edges.items())
    assert list(new.parent.items()) == list(old.parent.items())
    assert new.deadlocks == old.deadlocks
    assert new.soft_deadlocks == old.soft_deadlocks
    assert new.finals == old.finals
    assert new.truncated == old.truncated


def assert_same_report(new, old) -> None:
    assert_same_tree(new, old)
    for config in new.configs:
        assert new.witness(config) == old.witness(config)


@pytest.mark.parametrize("queue_cap", QUEUE_CAPS)
@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_explore_matches_reference(name, csm, queue_cap):
    assert_same_report(kernel.explore(csm, queue_cap=queue_cap),
                       reference.explore(csm, queue_cap=queue_cap))


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_explore_matches_reference_when_truncated(name, csm):
    for config_cap in (1, 2, 5):
        assert_same_report(
            kernel.explore(csm, queue_cap=2, config_cap=config_cap),
            reference.explore(csm, queue_cap=2, config_cap=config_cap))


def all_out(report) -> list:
    return [report.out(i) for i in range(len(report))]


def queue_ids(csm: Csm) -> list:
    """How many contents and messages each channel's tables hold."""
    return [(len(queues.length), len(queues.messages))
            for queues in csm._kernel.queues]


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_out_survives_a_larger_exploration(name, csm):
    """A report steps its configurations again on the kernel its CSM
    shares with later explorations, which intern more queue contents."""
    fresh = Csm(csm.components)
    report = kernel.explore(fresh, queue_cap=1)
    before, ids = all_out(report), queue_ids(fresh)
    kernel.explore(fresh, queue_cap=8)
    assert queue_ids(fresh) != ids or not report.truncated
    assert all_out(report) == before


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_out_survives_a_witness_with_a_foreign_message(name, csm):
    fresh = Csm(csm.components)
    report = kernel.explore(fresh, queue_cap=2)
    before, ids = all_out(report), queue_ids(fresh)
    initial = report.configs[0]
    channel = fresh._kernel.queues[0].channel
    foreign = kernel.Configuration(
        initial.states, ((channel, (("never sent", "unit"),)),))
    assert report.witness(foreign) == ()
    assert queue_ids(fresh)[0][1] == ids[0][1] + 1
    assert all_out(report) == before


# The queue caps one CSM is explored at, in this order, by the tests
# that tables do not leak between caps: `None` is no queue cap, the
# cap `step` uses, with a config cap so that unbounded channels end.
CAP_ORDER = (8, 1, 0, 2, None)


def assert_caps_do_not_leak(csm: Csm, reports: dict, steps: dict) -> None:
    """Explore `csm` at each cap of `CAP_ORDER`, stepping each
    configuration after the first exploration that reaches it, against
    the reference; `reports` and `steps` memoise the reference."""
    stepped = set()
    for cap in CAP_ORDER:
        caps = ({"queue_cap": cap} if cap is not None else
                {"queue_cap": kernel._NO_CAP, "config_cap": 300})
        if cap not in reports:
            reports[cap] = reference.explore(csm, **caps)
        assert_same_tree(kernel.explore(csm, **caps), reports[cap])
        for config in reports[cap].configs:
            if config in stepped:
                continue
            stepped.add(config)
            if config not in steps:
                steps[config] = reference.step(csm, config)
            assert kernel.step(csm, config) == steps[config]


def assert_tables_do_not_leak(csm: Csm) -> None:
    """On a fresh kernel, the caps of `CAP_ORDER` in turn, and again
    after a witness interned a message no component sends."""
    fresh, reports, steps = Csm(csm.components), {}, {}
    assert_caps_do_not_leak(fresh, reports, steps)
    report = kernel.explore(fresh, queue_cap=2)
    for queues in fresh._kernel.queues[:1]:
        foreign = kernel.Configuration(
            report.configs[0].states,
            ((queues.channel, (("never sent", "unit"),)),))
        assert report.witness(foreign) == ()
    assert_caps_do_not_leak(fresh, reports, steps)


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_move_tables_do_not_leak_across_caps(name, csm):
    """The corpus, the random projections among it, at every cap on
    one kernel: a participant's moves are memoised per queue cap and
    local view, and neither may answer for another."""
    assert_tables_do_not_leak(csm)


def test_move_tables_do_not_leak_across_caps_on_hand_drawn_csms(hand_drawn):
    for csm in hand_drawn:
        assert_tables_do_not_leak(csm)


def test_moves_are_derived_once_per_local_view():
    """pairs(4,4) has 50,625 configurations, but each of its 8
    participants sees only its own state and channel: 15 views each,
    one per (sent, received) count of its pair."""
    csm = pairs(4, 4)[1]
    assert len(kernel.explore(csm, queue_cap=8)) == 50_625
    tables = csm._kernel.tables
    assert list(tables) == [8]
    assert [len(table) for _, table, _ in tables[8]] == [15] * 8


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_full_move_tables_match_the_reference(name, csm, monkeypatch):
    """With room for two views a table, most lookups miss once the
    first configurations are in: a miss derives the same moves."""
    monkeypatch.setattr(kernel, "_VIEWS_PER_TABLE", 2)
    assert_tables_do_not_leak(csm)


def test_move_tables_stop_growing_at_their_size():
    """p sends any of 4 labels to q, which receives them, at a queue
    cap of 6: 5,461 configurations, each nearly a local view of its
    own, so a table that kept them all would grow with the search."""
    p = StateMachine({"a"}, "a", {"a"},
                     [("a", send("p", "q", x), "a") for x in "wxyz"])
    q = StateMachine({"b"}, "b", {"b"},
                     [("b", recv("p", "q", x), "b") for x in "wxyz"])
    csm = Csm({"p": p, "q": q})
    report = kernel.explore(csm, queue_cap=6)
    assert len(report) == 5461
    assert_same_tree(report, reference.explore(csm, queue_cap=6))
    assert [len(table) for _, table, _ in csm._kernel.tables[6]] == \
        [kernel._VIEWS_PER_TABLE] * 2


@pytest.mark.parametrize("config_cap", [2, 100_000])
def test_out_past_the_admitted_configurations_raises(config_cap):
    report = kernel.explore(tied_csm(), queue_cap=2, config_cap=config_cap)
    report.out(len(report) - 1)  # the last admitted configuration
    with pytest.raises(IndexError):
        report.out(len(report))


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_step_matches_reference_everywhere(name, csm):
    for config in reference.explore(csm, queue_cap=2).configs:
        assert kernel.step(csm, config) == reference.step(csm, config)


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_language_matches_reference_in_order(name, csm):
    for queue_cap in (None, 1):
        new = kernel.csm_language_upto(csm, 5, queue_cap=queue_cap)
        old = reference.csm_language_upto(csm, 5, queue_cap=queue_cap)
        assert list(new.items()) == list(old.items())


@pytest.mark.parametrize("name,csm", CORPUS, ids=IDS)
def test_simulate_matches_reference(name, csm):
    for seed in range(4):
        assert (kernel.simulate(csm, seed=seed, max_steps=30)
                == reference.simulate(csm, seed=seed, max_steps=30))


def test_tied_moves_are_listed_once_each():
    csm = tied_csm()
    moves = kernel.step(csm, initial_config(csm))
    assert moves == reference.step(csm, initial_config(csm))
    # Both epsilon self-loops lead back to the initial configuration.
    assert [succ for ev, succ in moves if ev is None] == \
        [initial_config(csm)] * 2
    assert len([ev for ev, _ in moves if ev is not None]) == 2


@pytest.mark.parametrize("name", [
    "three_party_reply_mismatch", "three_party_label_clash",
    "leader_election_lose"])
def test_check_projection_matches_reference_on_negative_controls(
        name, monkeypatch):
    """The candidate CSMs that the projection before the subset
    conditions built and handed to the oracle."""
    calls = []
    real = projection_reference.check_projection

    def spy(psm, csm, k, **options):
        calls.append((psm, csm, k, options))
        return real(psm, csm, k, **options)

    monkeypatch.setattr(projection_reference, "check_projection", spy)
    machine = _load_machine(str(PROTOCOLS / f"{name}.gt"))
    with pytest.raises(NotProjectable) as excinfo:
        projection_reference.project_tame(machine, k=6)
    (psm, csm, k, options), = calls
    old = reference.check_projection(psm, csm, k, **options)
    assert kernel.check_projection(psm, csm, k, **options) == old
    assert not old.passed
    assert str(excinfo.value) == "; ".join(old.reasons)
    with pytest.raises(NotProjectable):
        project_tame(machine)


# Every n * m <= 6, at the largest k <= 8 the word-level oracle does in
# about a second.
PAIRS = [(2, 2, 5), (3, 1, 6)] + [
    (n, m, {1: 8, 2: 8, 3: 7, 4: 6}.get(n, 5))
    for n in range(1, 7) for m in range(1, 7) if n * m <= 6]


@pytest.mark.parametrize("n,m,k", PAIRS)
@pytest.mark.parametrize("wrong", [False, True])
def test_check_projection_matches_reference_on_pairs(n, m, k, wrong):
    machine, csm = pairs(n, m, wrong)
    psm = validate(machine)
    old = reference.check_projection(psm, csm, k)
    assert kernel.check_projection(psm, csm, k) == old
    assert old.passed != wrong


@pytest.mark.parametrize("wrong", [False, True])
def test_check_projection_on_large_pairs(wrong):
    """pairs(3,3) at k = 10 has 2,468,158 CSM words but 687 projection
    vectors, too many words for the word-level oracle to enumerate."""
    machine, csm = pairs(3, 3, wrong)
    verdict = kernel.check_projection(validate(machine), csm, 10)
    assert verdict.passed != wrong


@pytest.mark.parametrize("stem", GOLDENS)
def test_check_projection_matches_reference_on_goldens(stem):
    source = next(path for path in (PROTOCOLS / f"{stem}.psm.json",
                                    PROTOCOLS / f"{stem}.gt")
                  if path.exists())
    psm = validate(_load_machine(str(source)))
    csm = load_csm((PROTOCOLS / f"{stem}.csm.json").read_text())
    assert kernel.check_projection(psm, csm, 6) == \
        reference.check_projection(psm, csm, 6)


def mutate(csm: Csm, rng: random.Random) -> Csm:
    """The CSM with one receive relabelled or one transition dropped."""
    components = dict(csm.components)
    name = rng.choice([p for p, m in components.items() if m.transitions])
    machine = components[name]
    transitions = list(machine.transitions)
    index = rng.randrange(len(transitions))
    src, ev, dst = transitions[index]
    if ev is not None and ev.kind == RECV and rng.random() < 0.5:
        transitions[index] = (src, Event(RECV, ev.sender, ev.receiver,
                                         ev.label + "x", ev.payload), dst)
    else:
        del transitions[index]
    components[name] = StateMachine(machine.states, machine.initial,
                                    machine.finals, transitions)
    return Csm(components)


def test_check_projection_matches_reference_on_random_projections():
    rng = random.Random(8)
    checked = failed = 0
    while checked < 300:
        psm = validate(random_tame_psm(rng, rng.choice((5, 8))))
        try:
            csm = project_tame(psm).csm
        except (NotTame, NotProjectable):
            continue
        checked += 1
        k = rng.randrange(7)
        verdicts = []
        for candidate in (csm, mutate(csm, rng)):
            verdicts.append(kernel.check_projection(psm, candidate, k))
            assert verdicts[-1] == reference.check_projection(psm, candidate, k)
        assert verdicts[0].passed
        failed += not verdicts[1].passed
    # The mutants exercise the failing reasons, not only passes.
    assert failed > 100


TIED_PROTOCOL = StateMachine({"s0", "s1", "s2"}, "s0", {"s1", "s2"},
                             [("s0", pair("p", "q", "m"), "s1"),
                              ("s1", pair("p", "q", "n"), "s2")])


@pytest.mark.parametrize("machine,csm", [
    (three_party_machine(), three_party_csm()),
    (three_party_machine(), three_party_csm(v1="v1", v2="v2")),
    (three_party_machine(v1="v1", v2="v2"), three_party_csm(v1="v1", v2="v2")),
    (TIED_PROTOCOL, tied_csm()),
    (TIED_PROTOCOL, tied_csm(swap=True)),
], ids=["three_party", "three_party mismatch", "three_party replies",
        "tied", "tied swapped"])
def test_check_projection_matches_reference_on_hand_drawn_csms(machine, csm):
    """Epsilon back edges and non-determinism: one projection vector
    reaches final and non-final configurations."""
    psm = validate(machine)
    for k in range(9):
        assert kernel.check_projection(psm, csm, k) == \
            reference.check_projection(psm, csm, k)


def test_word_embeds_matches_reference(rng):
    for machine in (pairs(2, 2)[0], _load_machine(
            str(PROTOCOLS / "three_party_choice.gt"))):
        alphabet = sorted({letter for ev in machine.alphabet()
                           for letter in ev.letters()},
                          key=lambda ev: ev.sort_key())
        checked = 0
        while checked < 300:
            word = tuple(alphabet[rng.randrange(len(alphabet))]
                         for _ in range(rng.randrange(1, 6)))
            if is_fifo(word).status == VIOLATION and rng.random() < 0.8:
                continue
            checked += 1
            assert kernel.word_embeds(machine, word) == \
                reference.word_embeds(machine, word)


def test_check_projection_matches_reference_past_a_dead_end():
    """The b branch of the protocol can never finish, so trimming drops
    it and the CSM's b words must not embed, also when the machine
    comes untrimmed, not from `validate`."""
    machine = StateMachine(
        {"s0", "s1", "s2", "s3"}, "s0", {"s1"},
        [("s0", pair("p", "q", "a"), "s1"), ("s0", pair("p", "q", "b"), "s2"),
         ("s2", pair("p", "q", "c"), "s3")])
    csm = Csm({owner: StateMachine(
        {"a", "b", "c", "d"}, "a", {"b"},
        [("a", act("p", "q", "a"), "b"), ("a", act("p", "q", "b"), "c"),
         ("c", act("p", "q", "c"), "d")])
        for owner, act in (("p", send), ("q", recv))})
    for psm in (validate(machine), Psm(machine, 1, {("p", "q"): 1})):
        old = reference.check_projection(psm, csm, 4)
        assert kernel.check_projection(psm, csm, 4) == old
        assert "CSM adds prefix p>q!b" in old.reasons


# -- random hand-drawn CSMs ------------------------------------------------

# Two labels, each with no payload, a sort or a state reference.
MESSAGES = (("a", None), ("b", None), ("a", "int"), ("b", StateRef("p1")))


def hand_drawn_csm(rng: random.Random) -> Csm:
    """Two to four components over the channels between them, with
    epsilon edges (back edges among them), states with two transitions
    on one event, and payloads that name a state."""
    names = ("p", "q", "r", "s")[:rng.randrange(2, 5)]
    components = {}
    for owner in names:
        peers = [p for p in names if p != owner]
        size = rng.randrange(1, 5)
        states = [f"{owner}{i}" for i in range(size)]
        transitions = []
        for _ in range(rng.randrange(2 * size + 2)):
            src = rng.randrange(size)
            roll = rng.random()
            if roll < 0.2:
                transitions.append((states[src], None,
                                    states[rng.randrange(size)]))
                continue
            peer = rng.choice(peers)
            label, payload = rng.choice(MESSAGES)
            ev = (send(owner, peer, label, payload) if roll < 0.55
                  else recv(peer, owner, label, payload))
            for _ in range(rng.choice((1, 1, 1, 2))):
                transitions.append((states[src], ev,
                                    states[rng.randrange(size)]))
        finals = [q for q in states if rng.random() < 0.4]
        components[owner] = StateMachine(states, states[0], finals,
                                         transitions)
    return Csm(components)


@pytest.fixture(scope="module")
def hand_drawn() -> list[Csm]:
    """300 random hand-drawn CSMs.  One with more than 2,000
    configurations at queue cap 8 is drawn again, so that the reference
    explorations stay fast."""
    rng = random.Random(91)
    found = []
    for _ in range(3000):
        csm = hand_drawn_csm(rng)
        if len(kernel.explore(csm, config_cap=2001)) <= 2000:
            found.append(csm)
            if len(found) == 300:
                return found
    raise RuntimeError(f"only {len(found)} hand-drawn CSMs were small enough")


def test_random_hand_drawn_csms_cover_the_cases(hand_drawn):
    def events(csm):
        return [ev for m in csm.components.values()
                for _, ev, _ in m.transitions]

    def branches_on_one_event(csm):
        return any(len(moves) != len(set(moves))
                   for m in csm.components.values() for q in m.states
                   for moves in [[ev for ev, _ in m.out(q) if ev]])

    assert {len(csm.participants) for csm in hand_drawn} == {2, 3, 4}
    assert sum(None in events(csm) for csm in hand_drawn) > 100
    assert sum(any(isinstance(ev.payload, StateRef) for ev in events(csm)
                   if ev is not None) for csm in hand_drawn) > 100
    assert sum(map(branches_on_one_event, hand_drawn)) > 50
    assert sum(len(kernel.explore(csm)) > 500 for csm in hand_drawn) > 10


def test_explore_matches_reference_on_random_hand_drawn_csms(hand_drawn):
    for csm in hand_drawn:
        for queue_cap in (0, 1, 2, 8):
            for caps in ({"config_cap": 1}, {"config_cap": 2},
                         {"config_cap": 5}, {}):
                assert_same_report(
                    kernel.explore(csm, queue_cap=queue_cap, **caps),
                    reference.explore(csm, queue_cap=queue_cap, **caps))


def test_step_matches_reference_on_random_hand_drawn_csms(hand_drawn):
    for csm in hand_drawn:
        for config in reference.explore(csm).configs:
            assert kernel.step(csm, config) == reference.step(csm, config)


def test_simulate_matches_reference_on_random_hand_drawn_csms(hand_drawn):
    for csm in hand_drawn:
        for seed in range(3):
            assert (kernel.simulate(csm, seed=seed, max_steps=30)
                    == reference.simulate(csm, seed=seed, max_steps=30))


def test_language_matches_reference_on_random_hand_drawn_csms(hand_drawn):
    for csm in hand_drawn:
        for queue_cap in (None, 1):
            new = kernel.csm_language_upto(csm, 4, queue_cap=queue_cap)
            old = reference.csm_language_upto(csm, 4, queue_cap=queue_cap)
            assert list(new.items()) == list(old.items())


def test_check_projection_matches_reference_on_random_hand_drawn_csms(hand_drawn):
    rng = random.Random(92)
    passed = 0
    for csm in hand_drawn:
        psm = validate(random_tame_psm(rng, 5))
        k = rng.randrange(5)
        verdict = kernel.check_projection(psm, csm, k)
        assert verdict == reference.check_projection(psm, csm, k)
        passed += verdict.passed
    assert passed < len(hand_drawn)


def wide_csm() -> Csm:
    """p has one state per word over {x, y} of length at most 8 and
    sends that word to q, which may receive at any time: p has 511
    states, and channel p>q reaches 511 distinct contents."""
    words = ["".join(letters) for n in range(9)
             for letters in itertools.product("xy", repeat=n)]
    states = [f"w{word}" for word in words]
    p = StateMachine(states, "w", states,
                     [(f"w{word[:-1]}", send("p", "q", word[-1]), f"w{word}")
                      for word in words if word])
    q = StateMachine({"q0"}, "q0", {"q0"},
                     [("q0", recv("p", "q", label), "q0") for label in "xy"])
    return Csm({"p": p, "q": q})


def test_wide_fields_match_reference():
    """A packed state field of 8 bits cannot hold p's states, nor a
    queue field of 8 bits the contents of p>q."""
    csm = wide_csm()
    new, old = kernel.explore(csm), reference.explore(csm)
    assert len(new) == len(old.configs) > 4000
    assert_same_report(new, old)
    assert len({c.queue(("p", "q")) for c in old.configs}) == 511
    for config in old.configs[::97]:
        assert kernel.step(csm, config) == reference.step(csm, config)
