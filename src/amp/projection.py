"""Projection: subset construction per participant, the tame-PSM
pipeline (encode, project, decode), whether a CSM implements a protocol
(`check_against`), and strong-projection analysis.

Projectability is decided on the validity conditions of the subset
projection, Send Validity and Receive Validity on every subset state
(`subset_validity`, whose docstring states them), around the amicable
forwarders of the encoding: no CSM is explored and no trace enumerated,
and a rejection reports the condition that failed, with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (Event, PAIR, SEND, StateMachine, eps_closure, parent_word,
                   reachable, recv, send, subset_moves, walk)
from .csm import Csm, ProjectionVerdict, check_projection
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
    """Merge the reachable states of a deterministic machine that no
    word tells apart: each word can be read from both or from neither,
    and ends in a final state from both or from neither.

    Hopcroft's partition refinement in Valmari & Lehtinen's form for
    partial transition functions (STACS 2008): a missing transition
    leads to an implicit dead state, so every initial block starts on
    the worklist, and after that only the smaller half of each split.
    A splitter is refined by just the events that enter it.

    States that reach no final state are kept: in a subset machine such
    a state is a participant that has stopped while the protocol goes on
    without it, which the component must still reach.  Unreachable
    states are dropped, so the breadth-first `canonical_names` names
    every class.
    """
    states = machine.reachable_states()
    transitions = [t for t in machine.transitions if t[0] in states]
    finals = machine.finals & states
    # incoming[dst][event] = the states with an `event` transition to dst
    incoming: dict = {q: {} for q in states}
    for src, ev, dst in transitions:
        incoming[dst].setdefault(ev, []).append(src)
    blocks = [block for block in (set(finals), set(states - finals)) if block]
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
    rename = {q: f"c{b}" for q, b in block_of.items()}
    merged = StateMachine(set(rename.values()), rename[machine.initial],
                          {rename[q] for q in finals},
                          {(rename[s], ev, rename[d]) for s, ev, d in transitions})
    return canonical_names(merged)


def canonical_names(machine: StateMachine, prefix: str = "s") -> StateMachine:
    """Rename states to s0, s1, ... in breadth-first transition order,
    unreachable states last in sorted order."""
    order = list(walk((machine.initial,),
                      lambda q: [dst for _, dst in machine.out(q)]))
    order += sorted(machine.states.difference(order))
    return machine.rename({q: f"{prefix}{i}" for i, q in enumerate(order)})


class NotTame(PsmError):
    pass


class NotProjectable(PsmError):
    """`decisive` is False where the encoding, not the protocol, fails:
    a CSM may still implement the protocol."""

    def __init__(self, message: str, witness=None, decisive: bool = True):
        super().__init__(message, witness)
        self.decisive = decisive


def _first_word(start, out, stop) -> tuple:
    """The first node, breadth first along `out` from `start`, where
    `stop` holds, with the word to it; (None, ()) when there is none."""
    parent: dict = {}  # node -> (the node it was first reached from, event)

    def successors(node):
        for ev, dst in out(node):
            if dst != start:
                parent.setdefault(dst, (node, ev))
            yield dst

    for node in walk((start,), successors):
        if stop(node):
            return node, parent_word(parent, node)
    return None, ()


def _lost_final(encoded: StateMachine, finals) -> Optional[NotProjectable]:
    """The first of the protocol's `finals` that the encoding reaches with
    ring counters away from zero, where it is a sink but no longer final,
    with the word to it on the protocol's channels."""
    state, path = _first_word(encoded.initial, encoded.out, lambda q:
                              encoded.is_sink(q) and q not in encoded.finals)
    if state is None:
        return None
    # `encode_psm` names it q|s:...|r:..., after the protocol's state q
    final = max((q for q in finals if state.startswith(q + "|")), key=len)
    word = tuple(decode_event(letter) for ev in path for letter in ev.letters()
                 if parse_channel_participant(letter.subject) is None)
    return NotProjectable(f"encoding loses final state {final} after "
                          f"{show_word(word)}", word, decisive=False)


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
        word = tuple(map(decode_event, _first_word(
            machine.initial, machine.out, state.__eq__)[1]))
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
        # the members' own moves, by their local label, and each member's
        # silent predecessors among them
        own: dict = {}
        silent_from: dict = {}
        for q in members:
            for label, dst in machine.view(q):
                if label is None:
                    silent_from.setdefault(dst, []).append(q)
                else:
                    own.setdefault(label, []).append((q, dst))
        for ev in sends:
            able = {q for q, _ in own[ev]}
            if len(able) < len(members) and len(reachable(
                    able, lambda q: silent_from.get(q, ()))) < len(members):
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

    - no participant is named like a forwarder, so that decoding undoes
      exactly the encoding;
    - the encoding keeps the protocol's final states: where a run ends,
      every ring counter is back at zero;
    - `subset_validity`: Send Validity and Receive Validity at every
      subset state of every participant and then every forwarder;
    - `is_amicable`: each forwarder serves its sender on every run.

    Otherwise it raises the NotProjectable of the first condition that
    fails, in this order, with its witness where it has one, and does
    no work after it: no later participant is built or minimised.  The
    name and final-state conditions are limits of the encoding, so they
    are not `decisive`; the others are.
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
    participants = sorted(machine.participants())
    named = [p for p in participants if parse_channel_participant(p)]
    if named:
        raise NotProjectable(f"participant {named[0]} is named like a "
                             f"forwarder", decisive=False)
    failure = _lost_final(encoded, machine.finals)
    if failure is not None:
        raise failure

    # The conditions need one run per word: a protocol that repeats an
    # exchange at a choice is determinised first.  Both machines have the
    # same language, so they give the same minimal projections.
    protocol = (encoded if encoded.is_deterministic()
                else _subsets(encoded.initial, encoded.out, encoded.finals))
    cps = channel_participants(bounds)
    minimal = {}
    for name in participants + [cp.name for cp in cps]:
        subsets = subset_construction(protocol, name)
        failure = subset_validity(protocol, name, subsets)
        if failure is not None:
            raise failure
        minimal[name] = minimize(subsets)
    if cps and not is_amicable(minimal, bounds):
        raise NotProjectable("forwarder components are not amicable")

    # Distinct state names across components, so the CSM can type sessions.
    csm = Csm({p: canonical_names(decode_fsm(minimal[p]), prefix=f"{p}_")
               for p in participants})
    return ProjectionResult(csm, bounds, encoded)


def check_against(psm: Psm, candidate: Csm, k: int) -> ProjectionVerdict:
    """Whether `candidate` implements the protocol.  Each word of a
    projection's component is its participant's view of a protocol word,
    so a component must follow it; one that does no more, deterministic
    and with no epsilon move, moves as the projection does.  The
    projection's components are compared as `project_tame` builds them,
    minimal, deterministic and free of epsilon moves; only the
    candidate's are determinised.  The bounded oracle, at word length
    `k`, decides the rest."""
    try:
        spec = project_tame(psm).csm.components
    except NotTame:
        spec = {}  # the oracle decides
    except NotProjectable as exc:
        if exc.decisive:
            return ProjectionVerdict(False, (f"not projectable: {exc}",))
        spec = {}
    determinised = []
    for p, want in spec.items():
        if p not in candidate.components:
            return ProjectionVerdict(False, (f"no component for "
                                             f"participant {p}",))
        have = candidate.components[p]
        have = _subsets(have.initial, have.out, have.finals)
        node, word = _first_lag(want, have)
        if node is not None:
            return ProjectionVerdict(False, (
                f"component {p} cannot follow its projection: {word[-1]} "
                f"after {show_word(word[:-1])}" if node[1] is None else
                f"component {p} does not end after {show_word(word)}, "
                f"where its projection does",))
        determinised.append((want, have))
    if spec and spec.keys() == candidate.components.keys() and all(
            all(len(q) == 1 for q in have.members.values())
            and _first_lag(have, want)[0] is None
            for want, have in determinised):
        return ProjectionVerdict(True, ())
    return check_projection(psm, candidate, k)


def _first_lag(want, have) -> tuple:
    """The first node, as `_first_word` finds it, where the deterministic
    `have` cannot follow (None) or end with the deterministic `want`."""
    def out(node):
        offered = dict(have.out(node[1]))
        return [(ev, (dst, offered.get(ev))) for ev, dst in want.out(node[0])]

    return _first_word((want.initial, have.initial), out, lambda n:
                       n[1] is None or n[0] in want.finals
                       and n[1] not in have.finals)


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
