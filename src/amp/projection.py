"""Projection: subset construction per participant, the tame-PSM
pipeline (encode, project, decode), and strong-projection analysis.

A candidate CSM is accepted on the validity conditions of the subset
projection, checked on every subset state: final states offer no send
(`check_validity`), and Send Validity and Receive Validity hold
(`subset_validity`, whose docstring states them), around the amicable
forwarders of the encoding.  Projectability is decided on these
conditions alone: no CSM is explored and no trace enumerated, and a
rejection reports the condition that failed, with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (Event, PAIR, RECV, SEND, StateMachine, Word, eps_closure,
                   parent_word, reachable, recv, send, subset_moves, walk)
from .csm import Csm
# Unused here: kept bound because perfbench's span tests assert it.
from .csm import check_projection  # noqa: F401
from .encoding import (channel_participants, decode_event, decode_fsm,
                       encode_psm, is_amicable, parse_channel_participant)
from .fifo import show_word
from .psm import (Psm, PsmError, UnboundedLoop, infer_channel_bounds,
                  single_sender_branching, validate)


def _local_label(ev: Event, participant: str) -> Optional[Event]:
    """Erase a paired or lone event to `participant`'s local alphabet."""
    if ev.kind == PAIR:
        if ev.sender == participant:
            return send(ev.sender, ev.receiver, ev.label, ev.payload)
        if ev.receiver == participant:
            return recv(ev.sender, ev.receiver, ev.label, ev.payload)
        return None
    if ev.subject == participant:
        return ev
    return None


class SubsetMachine(StateMachine):
    """A machine built by the subset construction.  `members` maps each
    of its states to the set of source states that state stands for, and
    `view(q)` lists the moves of source state q as the construction read
    them: (label, successor) pairs, a None label being silent."""

    __slots__ = ("members", "view")


def _subsets(initial: str, out, finals: frozenset) -> SubsetMachine:
    """The subset construction over the graph `out` describes, where a
    None label is an epsilon move.  Subset states are canonically named
    and final when they contain a final source state."""
    moves: dict = {}  # subset -> its (label, successor) moves

    def successors(states: frozenset) -> list:
        step = subset_moves(states, out)
        moves[states] = [(label, eps_closure(step[label], out))
                         for label in sorted(step, key=Event.sort_key)]
        return [succ for _, succ in moves[states]]

    start = eps_closure((initial,), out)
    index = {states: "{" + ",".join(sorted(states)) + "}"
             for states in walk((start,), successors)}
    machine = SubsetMachine(index.values(), index[start],
                            {index[s] for s in index if s & finals},
                            [(index[states], label, index[succ])
                             for states, step in moves.items()
                             for label, succ in step])
    machine.members = {n: s for s, n in index.items()}
    machine.view = out
    return machine


def subset_construction(machine: StateMachine, participant: str) -> StateMachine:
    """Project a protocol machine onto one participant and determinise.

    Transitions not involving the participant are erased to epsilon;
    the result is a `SubsetMachine`.
    """
    erased: dict[str, list[tuple[Optional[Event], str]]] = {
        q: [] for q in machine.states}
    for src, ev, dst in machine.transitions:
        label = None if ev is None else _local_label(ev, participant)
        erased[src].append((label, dst))
    return _subsets(machine.initial, erased.__getitem__, machine.finals)


def minimize(machine: StateMachine) -> StateMachine:
    """Merge language-equivalent states of a deterministic machine.

    Hopcroft's partition refinement in Valmari & Lehtinen's form for
    partial transition functions (STACS 2008): a missing transition
    leads to an implicit dead state, so every initial block starts on
    the worklist, and after that only the smaller half of each split.
    A splitter is refined by just the events that enter it.  Class
    names are derived from their members so the result is canonical.
    """
    machine = machine.trim()
    # incoming[dst][event] = the states with an `event` transition to dst
    incoming: dict = {q: {} for q in machine.states}
    for src, ev, dst in machine.transitions:
        incoming[dst].setdefault(ev, []).append(src)
    blocks = [block for block in (set(machine.finals),
                                  set(machine.states - machine.finals))
              if block]
    block_of = {q: b for b, block in enumerate(blocks) for q in block}
    work = list(range(len(blocks)))
    waiting = set(work)
    while work:
        splitter = work.pop()
        waiting.discard(splitter)
        preimages: dict = {}
        for dst in blocks[splitter]:
            for ev, sources in incoming[dst].items():
                preimages.setdefault(ev, set()).update(sources)
        for sources in preimages.values():
            touched: dict = {}
            for q in sources:
                touched.setdefault(block_of[q], []).append(q)
            for b, members in touched.items():
                if len(members) == len(blocks[b]):
                    continue
                split = len(blocks)
                blocks[b].difference_update(members)
                blocks.append(set(members))
                for q in members:
                    block_of[q] = split
                if b not in waiting and len(blocks[b]) < len(members):
                    split = b
                work.append(split)
                waiting.add(split)
    order = sorted(range(len(blocks)), key=lambda b: min(blocks[b]))
    number = {b: i for i, b in enumerate(order)}
    rename = {q: f"c{number[block_of[q]]}" for q in machine.states}
    transitions = {(rename[s], ev, rename[d]) for s, ev, d in machine.transitions}
    merged = StateMachine(set(rename.values()), rename[machine.initial],
                          {rename[q] for q in machine.finals}, transitions)
    return canonical_names(merged)


def canonical_names(machine: StateMachine, prefix: str = "s") -> StateMachine:
    """Rename states to s0, s1, ... in breadth-first transition order,
    unreachable states last in sorted order."""
    order = list(walk((machine.initial,),
                      lambda q: [dst for _, dst in machine.out(q)]))
    order += sorted(machine.states.difference(order))
    return machine.rename({q: f"{prefix}{i}" for i, q in enumerate(order)})


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]  # (participant, state, event)


def check_validity(projections: dict[str, StateMachine]) -> ValidityReport:
    """The final-state condition: no final state may have an outgoing send.

    Send Validity implies it, since the final states of a tame protocol
    are sinks that reach no send; `project_tame` checks it first, on the
    minimal machines, for its own report.
    """
    violations = []
    for participant, machine in sorted(projections.items()):
        for q in sorted(machine.finals):
            for ev, _ in machine.out(q):
                if ev is not None and ev.kind == SEND:
                    violations.append((participant, q, str(ev)))
    return ValidityReport(not violations, tuple(violations))


class NotTame(PsmError):
    pass


class NotProjectable(PsmError):
    pass


def _word_to(machine: StateMachine, target: str) -> Word:
    """The first word, breadth first, on which `machine` reaches `target`."""
    parent: dict = {}  # state -> (the state it was first reached from, event)

    def successors(q: str):
        for ev, dst in machine.out(q):
            if dst != machine.initial:
                parent.setdefault(dst, (q, ev))
            yield dst

    for q in walk((machine.initial,), successors):
        if q == target:
            break
    return parent_word(parent, target)


def _forwarder_named(participants) -> Optional[NotProjectable]:
    """A participant of the protocol whose name has the form of a
    forwarder's, whose events `decode_fsm` would move to another channel."""
    for participant in sorted(participants):
        if parse_channel_participant(participant) is not None:
            return NotProjectable(f"participant {participant} is named like "
                                  f"a forwarder")
    return None


def _lost_final(encoded: StateMachine) -> Optional[NotProjectable]:
    """A final state of the protocol that the encoding reaches with ring
    counters away from zero, where it is a sink but no longer final."""
    lost = [q for q in encoded.states
            if encoded.is_sink(q) and q not in encoded.finals]
    if not lost:
        return None
    state = min(lost)
    word = _word_to(encoded, state)
    return NotProjectable(f"encoding loses final state {state} after "
                          f"{show_word(word)}", word)


def _heads(source: StateMachine, participant: str, start: str) -> set:
    """The receives of `participant` whose messages can head their
    channels while it waits at `start`, as `subset_validity` defines
    them."""
    def successors(node):
        q, blocked, passed = node
        for ev, dst in source.out(q):
            if ev is None:
                yield dst, blocked, passed
            elif ev.receiver == participant:
                yield dst, blocked, passed | {ev.sender}
            elif ev.sender in blocked:
                yield dst, blocked | {ev.receiver}, passed
            else:
                yield dst, blocked, passed

    first = (start, frozenset((participant,)), frozenset())
    return {_local_label(ev, participant)
            for q, blocked, passed in walk((first,), successors)
            for ev, _ in source.out(q)
            if ev is not None and ev.receiver == participant
            and ev.sender not in passed and ev.sender not in blocked}


def subset_validity(source: StateMachine, participant: str,
                    machine: SubsetMachine) -> Optional[NotProjectable]:
    """The first state of `machine`, breadth first, that breaks Send
    Validity or Receive Validity, as a NotProjectable with the
    participant's word to that state as witness; None if every state
    keeps both.

    `machine` is `subset_construction(source, participant)`.  `source`
    is a deterministic protocol machine over paired exchanges and
    epsilon moves, as `encode_psm` builds one; the participant is one of
    its participants or forwarders.  Each state X of `machine` stands
    for its members M, the source states that the participant cannot
    tell apart: M is closed under the moves silent to the participant,
    which are the epsilon moves and the exchanges it takes no part in.

    These are the conditions of Li, Stutz, Wies and Zufferey, "Complete
    multiparty session type projection with automata" (CAV 2023), for
    protocols whose sends and receives are separate transitions.  An
    exchange a->b:m of `source` is read that way: the send a>b!m, then
    at once the receive a>b?m.  When b is the participant, the point
    between the two is silent to it, so it belongs to the subset state,
    and from there the only move is that receive.  Read so:

    Send Validity.  When X offers a send s, it offers no receive (the
    point between the send and the receive of that exchange is in X
    and cannot take s), and every member of M reaches a transition that
    the participant sees as s along moves silent to it.

    Receive Validity.  When X offers the receives r1 = q1>p?m1 and
    r2 = q2>p?m2 with q1 != q2, the message m1 does not head channel
    q1>p at any target D of a transition from M that the participant p
    sees as r2.  A run that takes r2 there continues from D, and what q1
    has sent to p on it that p has not received was sent ahead of the
    protocol's order: the head is the first exchange q1->p on a path of
    `source` from D, sent early, which q1 can do only when it does not
    wait on p.  So m1 heads the channel at D when some path from D
    reaches an exchange q1->p:m1, with no exchange q1->p before it, while
    q1 is not blocked.  Blocked starts as {p}, since p waits at D, and
    an exchange a->b on the path whose sender a is blocked blocks b.

    The witness is that word, decoded to the protocol's channels.
    `tests/test_projection_conditions.py` checks this reading against
    the bounded oracle `csm.check_projection`.
    """
    heads: dict = {}

    def failure(state: str, text: str) -> NotProjectable:
        word = tuple(map(decode_event, _word_to(machine, state)))
        return NotProjectable(text.format(participant, show_word(word)), word)

    for state, members in machine.members.items():
        sends, receives = [], []
        for ev, _ in machine.out(state):
            (sends if ev.kind == SEND else receives).append(ev)
        if sends and receives:
            return failure(state, f"send validity: {{}} may send "
                                  f"{decode_event(sends[0])} after {{}} where "
                                  f"it must first receive "
                                  f"{decode_event(receives[0])}")
        if not sends and len({ev.sender for ev in receives}) < 2:
            continue
        # the members' own moves, by their local label
        own: dict = {}
        for q in members:
            for label, dst in machine.view(q):
                if label is not None:
                    own.setdefault(label, []).append((q, dst))
        for ev in sends:
            able = {q for q, _ in own[ev]}
            if len(able) < len(members) \
                    and len(_silently_reaching(machine, members, able)) \
                    < len(members):
                return failure(state, f"send validity: {{}} may send "
                                      f"{decode_event(ev)} after {{}}, which "
                                      f"not every run allows")
        for waited in receives:
            for dst in sorted({dst for _, dst in own[waited]}):
                if dst not in heads:
                    heads[dst] = _heads(source, participant, dst)
                for ev in receives:
                    if ev.sender != waited.sender and ev in heads[dst]:
                        return failure(
                            state, f"receive validity: {{}} may receive "
                                   f"{decode_event(ev)} after {{}} where it "
                                   f"must receive {decode_event(waited)}")
    return None


def _silently_reaching(machine: SubsetMachine, members: frozenset,
                       targets: set) -> set:
    """The members with a path of silent moves to one of `targets`."""
    back: dict = {}
    for q in members:
        for label, dst in machine.view(q):
            if label is None:
                back.setdefault(dst, []).append(q)
    return reachable(targets, lambda q: back.get(q, ()))


@dataclass
class ProjectionResult:
    csm: Csm
    bounds: dict
    encoded: StateMachine


def project_tame(source) -> ProjectionResult:
    """Project a tame protocol machine to a deadlock-free CSM that has
    the protocol's language.

    Encodes bounded channels through forwarder participants, runs the
    subset construction for every participant and forwarder, minimises
    and decodes.  Raises NotTame when the structural gate fails
    (multi-sender branching, non-sink-final, no inferable bounds).  The
    projection is sound and complete for tame protocols, so the
    candidate is accepted exactly when it meets every condition below,
    with no CSM explored and no trace enumerated:

    - `check_validity`: no final state of a projection offers a send;
    - `is_amicable`: each forwarder serves its sender on every run;
    - no participant is named like a forwarder, so that decoding undoes
      exactly the encoding;
    - the encoding keeps the protocol's final states: where a run ends,
      every ring counter is back at zero;
    - `subset_validity`: Send Validity and Receive Validity at every
      subset state of every participant and forwarder.

    Otherwise it raises the NotProjectable of the first condition that
    fails, in this order, with its witness where it has one.
    """
    psm = source if isinstance(source, Psm) else validate(source)
    machine = psm.machine.trim()

    if not machine.is_sink_final():
        raise NotTame("machine is not sink-final")
    ok, state = single_sender_branching(machine)
    if not ok:
        raise NotTame(f"state {state!r} branches on mixed or multi-sender actions")
    try:
        bounds = infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        raise NotTame(f"no channel bounds: {exc}") from exc

    encoded = encode_psm(machine, bounds)
    # The conditions need one run per word: a protocol that repeats an
    # exchange at a choice is determinised first.  Both machines have the
    # same language, so they give the same minimal projections.
    protocol = (encoded if encoded.is_deterministic()
                else _subsets(encoded.initial, encoded.out, encoded.finals))
    participants = sorted(machine.participants())
    cps = channel_participants(bounds)

    failure = _forwarder_named(participants) or _lost_final(encoded)
    minimal = {}
    for name in participants + [cp.name for cp in cps]:
        subsets = subset_construction(protocol, name)
        if failure is None:
            failure = subset_validity(protocol, name, subsets)
        minimal[name] = minimize(subsets)

    validity = check_validity(minimal)
    if not validity.ok:
        participant, state, event = validity.violations[0]
        raise NotProjectable(f"check check_validity: state {state} of "
                             f"{participant} rejects {event}")
    if cps and not is_amicable(minimal, bounds):
        raise NotProjectable("forwarder components are not amicable")
    if failure is not None:
        raise failure

    # Distinct state names across components, so the CSM can type sessions.
    csm = Csm({p: canonical_names(decode_fsm(minimal[p]), prefix=f"{p}_")
               for p in participants})
    return ProjectionResult(csm, bounds, encoded)


@dataclass(frozen=True)
class StrongReport:
    strong: bool
    witnesses: tuple[tuple[str, str], ...]  # (participant, final non-sink state)


def strong_report(csm: Csm) -> StrongReport:
    """The final non-sink states of an already projected CSM.

    A projection is strong when every component is sink-final; an empty
    witness list means the CSM is also free of soft deadlocks.
    """
    witnesses = []
    for participant, machine in csm.components.items():
        for q in sorted(machine.finals):
            if not machine.is_sink(q):
                witnesses.append((participant, q))
    return StrongReport(not witnesses, tuple(witnesses))
