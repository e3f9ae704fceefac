"""Shared machines and random generators for the test suite."""

from __future__ import annotations

import random

import pytest

from amp.core import StateMachine, pair, recv, send
from amp.csm import Csm

from .compiled_reference import detected_channels
from .goldengen import kle_machine


def three_party_machine(m2: str = "m2", m3: str = "m3",
                        v1: str = "v", v2: str = "v") -> StateMachine:
    """The three-way choice protocol as a flat machine: p picks a branch,
    q relays to r, r (or p) replies; the third branch loops."""
    states = {"t0"}
    finals = set()
    transitions: list = []

    def chain(name: str, events, back: bool) -> None:
        prev = "t0"
        for i, ev in enumerate(events):
            nxt = f"{name}{i + 1}"
            states.add(nxt)
            transitions.append((prev, ev, nxt))
            prev = nxt
        if back:
            transitions.append((prev, None, "t0"))
        else:
            finals.add(prev)

    chain("a", [send("p", "q", "m1"), recv("p", "q", "m1"),
                send("q", "r", "1"), recv("q", "r", "1"),
                send("r", "p", v1), recv("r", "p", v1)], back=False)
    chain("b", [send("p", "q", m2), recv("p", "q", m2),
                send("q", "r", "1"), recv("q", "r", "1"),
                send("r", "p", v2), recv("r", "p", v2)], back=False)
    chain("c", [send("p", "q", m3), recv("p", "q", m3),
                send("q", "r", "3"), recv("q", "r", "3"),
                send("p", "r", "v3"), recv("p", "r", "v3")], back=True)
    return StateMachine(states, "t0", finals, transitions)


def three_party_csm(v1: str = "v", v2: str = "v", m3: str = "m3") -> Csm:
    """The hand-drawn candidate projection of the three-way choice."""
    p = StateMachine(
        {"p0", "p1", "p2", "p3", "p4", "p5", "p6"}, "p0", {"p2", "p4"},
        [("p0", send("p", "q", "m1"), "p1"), ("p1", recv("r", "p", v1), "p2"),
         ("p0", send("p", "q", "m2"), "p3"), ("p3", recv("r", "p", v2), "p4"),
         ("p0", send("p", "q", m3), "p5"), ("p5", send("p", "r", "v3"), "p6"),
         ("p6", None, "p0")])
    q = StateMachine(
        {"q0", "q1", "q2", "q3", "q4"}, "q0", {"q2"},
        [("q0", recv("p", "q", "m1"), "q1"), ("q0", recv("p", "q", "m2"), "q1"),
         ("q1", send("q", "r", "1"), "q2"),
         ("q0", recv("p", "q", m3), "q3"), ("q3", send("q", "r", "3"), "q4"),
         ("q4", None, "q0")])
    r_trans = [("r0", recv("q", "r", "1"), "r1"),
               ("r1", send("r", "p", v1), "r2"),
               ("r0", recv("q", "r", "3"), "r3"),
               ("r3", recv("p", "r", "v3"), "r4"), ("r4", None, "r0")]
    if v2 != v1:
        r_trans.append(("r1", send("r", "p", v2), "r2"))
    r = StateMachine({"r0", "r1", "r2", "r3", "r4"}, "r0", {"r2"}, r_trans)
    return Csm({"p": p, "q": q, "r": r})


def kle_expected_local_e() -> StateMachine:
    """The expected projection of the leader-election game onto e."""
    return StateMachine(
        {"a", "b0", "b1", "wE", "wO", "end"}, "a", {"end"},
        [("a", send("e", "o", "0"), "b0"), ("a", send("e", "o", "1"), "b1"),
         ("b0", recv("o", "e", "0"), "wE"), ("b0", recv("o", "e", "1"), "wO"),
         ("b1", recv("o", "e", "0"), "wO"), ("b1", recv("o", "e", "1"), "wE"),
         ("wE", recv("o", "e", "win"), "end"),
         ("wO", send("e", "o", "win"), "end")])


def kle_encoded_expected() -> StateMachine:
    """The encoded game: every exchange routed through a forwarder."""
    eo, oe = "(e,o)0", "(o,e)0"
    machine = kle_machine()
    transitions = []
    for src, ev, dst in machine.transitions:
        if ev is None:
            transitions.append((src, None, dst))
        elif ev.kind == "send":
            transitions.append((src, pair(ev.sender, eo if ev.channel == ("e", "o")
                                          else oe, ev.label), dst))
        else:
            transitions.append((src, pair(eo if ev.channel == ("e", "o") else oe,
                                          ev.receiver, ev.label), dst))
    return StateMachine(machine.states, machine.initial, machine.finals,
                        transitions)


def one_buyer_seller_expected() -> StateMachine:
    """The seller's behaviour in the book purchase, drawn by hand."""
    return StateMachine(
        {"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"},
        "q0", {"q6", "q8", "q9"},
        [("q0", recv("b", "s", "query"), "q1"),
         ("q1", send("s", "b", "price"), "q2"),
         ("q2", recv("b", "s", "buy"), "q3"),
         ("q2", recv("b", "s", "no"), "q9"),
         ("q3", recv("b", "s", "ccard"), "q4"),
         ("q4", send("s", "b", "valid"), "q5"),
         ("q5", send("s", "b", "confirm"), "q6"),
         ("q4", send("s", "b", "invalid"), "q7"),
         ("q7", send("s", "b", "cancel"), "q8")])


# -- random generators --------------------------------------------------------

PARTICIPANTS = ("p", "q", "r", "s")
LABELS = ("a", "b", "c", "d")


def random_fifo_word(rng: random.Random, length: int = 8,
                     participants=PARTICIPANTS[:3], labels=LABELS[:3],
                     bounds: dict | None = None) -> tuple:
    """A random FIFO word; with bounds, pending counts respect them."""
    word = []
    queues: dict = {}
    for _ in range(length):
        options = []
        for a in participants:
            for b in participants:
                if a == b:
                    continue
                pending = queues.get((a, b), [])
                limit = None if bounds is None else bounds.get((a, b))
                if limit is None or len(pending) < limit:
                    options.append(("send", a, b))
                if pending:
                    options.append(("recv", a, b))
        kind, a, b = options[rng.randrange(len(options))]
        if kind == "send":
            label = labels[rng.randrange(len(labels))]
            queues.setdefault((a, b), []).append(label)
            word.append(send(a, b, label))
        else:
            label = queues[(a, b)].pop(0)
            word.append(recv(a, b, label))
    return tuple(word)


def random_bounded_complete_word(rng: random.Random, length: int = 8,
                                 bounds: dict | None = None) -> tuple:
    """A random FIFO word whose sends are all matched at the end."""
    word = list(random_fifo_word(rng, length, bounds=bounds))
    queues: dict = {}
    for ev in word:
        if ev.kind == "send":
            queues.setdefault(ev.channel, []).append(ev.label)
        else:
            queues[ev.channel].pop(0)
    for (a, b), labels in sorted(queues.items()):
        for label in labels:
            word.append(recv(a, b, label))
    return tuple(word)


def random_sender_driven_tree(rng: random.Random, max_states: int = 8,
                              allow_backedges: bool = True) -> StateMachine:
    """A random sink-final sender-driven machine over paired events.

    Grown as a tree of single-sender branching states; some leaves loop
    back to an ancestor with an epsilon edge.  Regenerates until every
    state can still reach a final state, so the core language is dense
    in the machine's runs.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []

    def grow(node: str, budget: int, ancestors: tuple) -> None:
        if budget <= 0:
            finals.add(node)
            return
        sender = PARTICIPANTS[rng.randrange(3)]
        branches = set()
        for _ in range(rng.choice([1, 1, 1, 2, 2, 3])):
            receiver = rng.choice([x for x in PARTICIPANTS[:3] if x != sender])
            label = rng.choice(LABELS)
            branches.add((receiver, label))
        if not branches:
            finals.add(node)
            return
        share = max(1, (budget - len(branches)) // len(branches))
        for receiver, label in sorted(branches):
            child = fresh()
            states.append(child)
            transitions.append((node, pair(sender, receiver, label), child))
            if allow_backedges and ancestors and rng.random() < 0.2:
                transitions.append((child, None, rng.choice(ancestors)))
            else:
                grow(child, min(share, rng.randrange(0, 4)),
                     ancestors + (node,))

    root = fresh()
    states.append(root)
    grow(root, max_states - 1, ())
    machine = StateMachine(states, root, finals, transitions)
    trimmed = machine.trim()
    incoming: dict = {q: set() for q in trimmed.states}
    for src, _, dst in trimmed.transitions:
        incoming[dst].add(src)
    reach_final = set(trimmed.finals)
    work = list(reach_final)
    while work:
        q = work.pop()
        for p in incoming[q]:
            if p not in reach_final:
                reach_final.add(p)
                work.append(p)
    # Every branch must be able to finish: loop-only branches have no
    # flat-expression form, so the round-trip workflow excludes them.
    if (not trimmed.finals or len(trimmed.states) > max_states
            or reach_final != set(trimmed.states)
            or trimmed.states != machine.reachable_states()):
        return random_sender_driven_tree(rng, max_states, allow_backedges)
    return trimmed


def random_tame_psm(rng: random.Random, max_states: int = 8) -> StateMachine:
    """A random machine, most often tame: a paired tree with some
    exchanges replaced by the commit-then-learn gadget, which defers
    receives on two channels bounded by one.

    It is not always tame: draws 28 and 49 (counting from 0) at
    `random.Random(31)` make `psm.infer_channel_bounds` raise
    `UnboundedLoop`, and neither is projectable.  A caller that needs
    a tame machine must expect `UnboundedLoop` (or `NotTame` from
    `project_tame`)."""
    base = random_sender_driven_tree(rng, max_states)
    states = set(base.states)
    transitions: list = []
    counter = [0]
    for src, ev, dst in base.transitions:
        if (ev is not None and ev.kind == "pair" and rng.random() < 0.3
                and {ev.sender, ev.receiver} == {"p", "q"}):
            counter[0] += 1
            mid = [f"x{counter[0]}_{i}" for i in range(3)]
            states.update(mid)
            transitions.extend([
                (src, send(ev.sender, ev.receiver, ev.label, ev.payload), mid[0]),
                (mid[0], send(ev.receiver, ev.sender, "ack"), mid[1]),
                (mid[1], recv(ev.sender, ev.receiver, ev.label, ev.payload), mid[2]),
                (mid[2], recv(ev.receiver, ev.sender, "ack"), dst),
            ])
        else:
            transitions.append((src, ev, dst))
    return StateMachine(states, base.initial, base.finals, transitions)


def random_looping_protocol(rng: random.Random,
                            max_exchanges: int = 3) -> tuple[StateMachine, int]:
    """A random protocol that runs forever, with the word length that
    covers its row and one turn of its longest loop.

    It has no final state: a row of exchanges, then one sender's choice
    between one or two branches, each a row that goes back by an epsilon
    move to its start or to the choice.  An exchange is a pair or a
    deferred send: one to three messages on a channel, received only
    after the exchange between them.  Regenerates until some participant
    or some channel that needs a bound, and so its forwarders, takes no
    part in one of the loops.  Such a protocol need not be tame: a loop
    that defers a send may have no bound.
    """
    participants, labels = PARTICIPANTS[:3], LABELS[:3]
    states, transitions = ["s0"], []

    def row(start: str, count: int, parts, defer: float) -> str:
        for _ in range(count):
            a, b = rng.sample(parts, 2)
            if rng.random() >= defer:
                events = [pair(a, b, rng.choice(labels))]
            else:
                sent = [rng.choice(labels) for _ in range(rng.randint(1, 3))]
                c, d = rng.sample(parts, 2)
                between = [pair(c, d, rng.choice(labels))] \
                    if (c, d) != (a, b) else []
                events = ([send(a, b, m) for m in sent] + between
                          + [recv(a, b, m) for m in sent])
            for ev in events:
                states.append(f"s{len(states)}")
                transitions.append((start, ev, states[-1]))
                start = states[-1]
        return start

    def letters(part) -> int:
        return sum(len(ev.letters()) for _, ev, _ in part if ev is not None)

    choice = row("s0", rng.randint(0, max_exchanges), participants, 0.5)
    prefix = letters(transitions)
    chooser, told = rng.sample(participants, 2)
    branches, loops = [], []
    for label in labels[:rng.choice((1, 2))]:
        mark = len(transitions)
        states.append(f"s{len(states)}")
        transitions.append((choice, pair(chooser, told, label), states[-1]))
        top = rng.choice((choice, states[-1]))
        parts = rng.sample(participants, rng.choice((2, 3)))
        end = row(states[-1], rng.randint(1, max_exchanges), parts, 0.1)
        transitions.append((end, None, top))
        branches.append(transitions[mark:])
        loops.append(transitions[mark if top == choice else mark + 1:])
    machine = StateMachine(states, "s0", (), transitions)
    bounded = detected_channels(machine)
    for loop in loops:
        events = [ev for _, ev, _ in loop if ev is not None]
        if set(machine.participants()) - {x for ev in events
                                          for x in ev.channel} \
                or bounded - {ev.channel for ev in events}:
            return machine, prefix + max(map(letters, branches))
    return random_looping_protocol(rng, max_exchanges)


def random_local_tree(rng: random.Random, participant: str = "p",
                      max_states: int = 8) -> StateMachine:
    """A random sink-final local machine without mixed-choice states."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"m{counter[0]}"

    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []

    def grow(node: str, budget: int, ancestors: tuple) -> None:
        if budget <= 0:
            finals.add(node)
            return
        kind = rng.choice(["send", "recv"])
        n_branches = rng.choice([1, 1, 2])
        used = set()
        for _ in range(n_branches):
            peer = rng.choice([x for x in PARTICIPANTS[:3] if x != participant])
            label = rng.choice(LABELS)
            if (peer, label) in used:
                continue
            used.add((peer, label))
            child = fresh()
            states.append(child)
            ev = (send(participant, peer, label) if kind == "send"
                  else recv(peer, participant, label))
            transitions.append((node, ev, child))
            if ancestors and rng.random() < 0.15:
                transitions.append((child, None, rng.choice(ancestors)))
            else:
                grow(child, budget - rng.randrange(1, 3), ancestors + (node,))
        if not used:
            finals.add(node)

    root = fresh()
    states.append(root)
    grow(root, max_states, ())
    machine = StateMachine(states, root, finals, transitions).trim()
    incoming: dict = {q: set() for q in machine.states}
    for src, _, dst in machine.transitions:
        incoming[dst].add(src)
    reach_final = set(machine.finals)
    work = list(reach_final)
    while work:
        q = work.pop()
        for p in incoming[q]:
            if p not in reach_final:
                reach_final.add(p)
                work.append(p)
    if not machine.finals or reach_final != set(machine.states):
        return random_local_tree(rng, participant, max_states)
    return machine


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def epsilon_chain(n: int) -> StateMachine:
    """n states joined by epsilon steps, then one exchange to a final."""
    states = [f"s{i}" for i in range(n + 1)]
    transitions = [(states[i], None, states[i + 1]) for i in range(n - 1)]
    transitions.append((states[n - 1], send("p", "q", "m"), f"s{n}~"))
    transitions.append((f"s{n}~", recv("p", "q", "m"), states[n]))
    return StateMachine(states + [f"s{n}~"], "s0", {states[n]}, transitions)


def paired_chain(n: int) -> StateMachine:
    """n exchanges in a row, rotating p->q, q->r, r->p: the shape of
    what `to-global` reads a type off for a chain protocol, once each
    send is merged with its receive."""
    ring = ("p", "q", "r")
    states = [f"c{i}" for i in range(n + 1)]
    return StateMachine(
        states, states[0], {states[-1]},
        [(states[i], pair(ring[i % 3], ring[(i + 1) % 3], f"m{i % 3}"),
          states[i + 1]) for i in range(n)])
