"""Projection: subset construction per participant, the tame-PSM
pipeline (encode, project, write each component on the protocol's
channels), whether a CSM implements a protocol (`check_against`), and
strong-projection analysis.

`project_tame` reads the protocol it projects as the compiled form that
validation made (`core.Compiled`), fused (`_Compiled`, read from an
`encoding.Fused`): each exchange one transition with its sender, its
receiver and the ranks of its send and receive letters in
`Event.sort_key` order, states numbered in name order.  A protocol with
a bounded channel is encoded on that form (`encoding.encode_psm`), and
the final states it loses are sought on the encoding's ints; a protocol
that is not deterministic is determinised first.  Each participant's
and forwarder's subset construction (`Subsets`), `subset_validity` with
its channel-head search, and Hopcroft's refinement (`minimize`, which
returns the breadth-first numbered `Classes`) all run on those ints,
and so does amicability.  Each participant's component, the one
`StateMachine` built after validation, is written from its classes,
letters decoded through the encoding's table (`_machine_of`).  `Subsets` is
the one subset-construction loop and `minimize` the one Hopcroft loop;
the determinisation of a candidate component in `check_against` runs
the same loop.

Projectability is decided on the validity conditions of the subset
projection, Send Validity and Receive Validity on every subset state
(`subset_validity`, whose docstring states them), around the amicable
forwarders of the encoding: no CSM is explored and no trace enumerated,
and a rejection reports the condition that failed, with its witness.
"""

from __future__ import annotations

from typing import Optional

from .core import (SEND, Compiled, Event, Record, StateMachine,
                   parent_word, reachable, strongly_connected_components, walk)
from .csm import Csm, ProjectionVerdict, check_projection
from .encoding import (Fused, channel_participants, encode_psm,
                       forwarder_named, is_amicable)
from .fifo import show_word
from .psm import (Psm, PsmError, UnboundedLoop, choice_report,
                  infer_channel_bounds, validate)


class _Compiled(Fused):
    """A protocol in `encoding.Fused`'s form, fused with every channel
    unbounded or encoded (`encoding.encode_psm`), as projection reads it.

    `silent[q]` lists state q's successors, as silent moves, and
    `takes_part[p]` the states where participant number p moves.
    `cyclic` lists the states that a cycle reaches, left by Kahn's
    peeling, so it holds every successor of its states.
    """

    __slots__ = ("silent", "takes_part", "cyclic")

    def __init__(self, protocol: Fused):
        for name in Fused.__slots__:
            setattr(self, name, getattr(protocol, name))
        self.silent = [[move[4] for move in row] if row else ()
                       for row in self.out]
        self.takes_part: dict = {}
        indegree = [0] * len(self.out)
        for q in self.states:
            for sender, receiver, _, _, dst in self.out[q]:
                indegree[dst] += 1
                self.takes_part.setdefault(sender, set()).add(q)
                self.takes_part.setdefault(receiver, set()).add(q)
        peeled = [q for q in self.states if not indegree[q]]
        for q in peeled:  # grows as states lose their last predecessor
            for dst in self.silent[q]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    peeled.append(dst)
        self.cyclic = [q for q in self.states if indegree[q]]


class Subsets:
    """One run of the subset construction, on integer states.

    Subset state i stands for the set `states[i]` of source states; 0 is
    the initial one and the others follow in breadth-first order.
    `moves[i]` lists its (rank, successor) moves by rank, `letters[r]`
    is the event of rank r, and `finals` holds the subset states with a
    final member.  `silent[q]` and `visible[q]` are source state q's
    moves as the construction read them: its successors along silent
    moves, and its (rank, successor) moves.  `names[q]` names source
    state q, for `named`.
    """

    initial = 0
    __slots__ = ("states", "moves", "finals", "letters", "names", "silent",
                 "visible")

    def __init__(self, initial: int, finals, silent, visible, letters,
                 names):
        self.silent, self.visible = silent, visible
        self.letters, self.names = letters, names

        def closure(starts) -> frozenset:
            return frozenset(reachable(starts, silent.__getitem__))

        start = closure((initial,))
        index = {start: 0}
        self.states = [start]
        self.moves = []
        for members in self.states:  # grows as the walk finds subsets
            step: dict = {}
            for q in members:
                for label, dst in visible[q]:
                    targets = step.get(label)
                    if targets is None:
                        step[label] = {dst}
                    else:
                        targets.add(dst)
            row = []
            for label in sorted(step):
                succ = closure(step[label])
                i = index.get(succ)
                if i is None:
                    i = index[succ] = len(self.states)
                    self.states.append(succ)
                row.append((label, i))
            self.moves.append(row)
        self.finals = frozenset(i for i, members in enumerate(self.states)
                                if not finals.isdisjoint(members))

    def out(self, i: int) -> list:
        """Subset state i's (event, successor) moves."""
        return [(self.letters[label], j) for label, j in self.moves[i]]

    def named(self) -> tuple:
        """(states, initial, finals, transitions), each subset state named
        `{a,b}` after the names of its members."""
        names = ["{" + ",".join(sorted(self.names[q] for q in members)) + "}"
                 for members in self.states]
        return (names, names[0], [names[i] for i in self.finals],
                [(names[i], self.letters[label], names[j])
                 for i, row in enumerate(self.moves) for label, j in row])


def _whole(machine: StateMachine) -> Subsets:
    """The subset construction of `machine`, epsilon moves silent and
    every other event a letter."""
    names = sorted(machine.states)
    number = {q: i for i, q in enumerate(names)}
    letters = sorted(machine.alphabet(), key=Event.sort_key)
    rank = {ev: r for r, ev in enumerate(letters)}
    silent = [[number[dst] for ev, dst in machine.out(q) if ev is None]
              for q in names]
    visible = [[(rank[ev], number[dst]) for ev, dst in machine.out(q)
                if ev is not None] for q in names]
    return Subsets(number[machine.initial],
                   frozenset(number[q] for q in machine.finals), silent,
                   visible, letters, names)


def subset_construction(protocol: _Compiled, participant: str) -> Subsets:
    """Project a protocol machine, compiled by `project_tame`, onto one
    participant and determinise: the moves the participant does not see
    are silent."""
    me = protocol.participants.get(participant)
    silent = protocol.silent.copy()
    visible = [()] * len(silent)
    for q in protocol.takes_part.get(me, ()):
        quiet, seen = [], []
        for sender, receiver, snd, rcv, dst in protocol.out[q]:
            label = snd if sender == me else rcv if receiver == me else -1
            if label < 0:
                quiet.append(dst)
            else:
                seen.append((label, dst))
        silent[q], visible[q] = quiet, seen
    return Subsets(protocol.initial, protocol.finals, silent, visible,
                   protocol.letters, protocol.names)


class Classes(Record):
    """`minimize`'s classes, numbered breadth first from the initial
    one's: class i merges the subset states `states[i]`, `moves[i]`
    lists its (rank, class) moves by rank, and `finals` the final ones."""

    __slots__ = ("states", "moves", "finals")
    def __init__(self, states: list, moves: list, finals: frozenset):
        self.states, self.moves, self.finals = states, moves, finals


def minimize(machine: Subsets) -> Classes:
    """Merge the states of a subset construction that no word tells
    apart: each word can be read from both or from neither, and ends in
    a final state from both or from neither.

    Hopcroft's partition refinement in Valmari & Lehtinen's form for
    partial transition functions (STACS 2008): a missing transition
    leads to an implicit dead state, so every initial block starts on
    the worklist, and after that only the smaller half of each split.
    A splitter is refined by just the letters that enter it.

    States that reach no final state are kept: in a subset machine such
    a state is a participant that has stopped while the protocol goes on
    without it, which the component must still reach.  Every subset
    state is reachable, and the classes are numbered in breadth-first
    order along their moves by rank.
    """
    moves, finals = machine.moves, machine.finals
    n = len(moves)
    incoming: list = [[] for _ in range(n)]  # dst -> its (letter, source)s
    for q, row in enumerate(moves):
        for label, dst in row:
            incoming[dst].append((label, q))
    blocks = [block for block in (set(finals), set(range(n)) - finals)
              if block]
    block_of = [0] * n
    for b, block in enumerate(blocks):
        for q in block:
            block_of[q] = b
    work = list(range(len(blocks)))
    waiting = [True] * len(blocks)
    while work:
        splitter = work.pop()
        waiting[splitter] = False
        preimages: dict = {}  # deterministic: each source once per letter
        for dst in blocks[splitter]:
            for label, q in incoming[dst]:
                sources = preimages.get(label)
                if sources is None:
                    preimages[label] = [q]
                else:
                    sources.append(q)
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
                waiting.append(False)
                for q in members:
                    block_of[q] = split
                if not waiting[b] and len(blocks[b]) < len(members):
                    split = b
                work.append(split)
                waiting[split] = True
    # Number the classes breadth first from the initial state's, reading
    # each class's moves off one member.
    number = {block_of[0]: 0}
    order = [block_of[0]]
    rows = []
    for b in order:
        row = []
        for label, dst in moves[next(iter(blocks[b]))]:
            c = block_of[dst]
            j = number.get(c)
            if j is None:
                j = number[c] = len(order)
                order.append(c)
            row.append((label, j))
        rows.append(row)
    return Classes([blocks[b] for b in order], rows,
                   frozenset(number[block_of[q]] for q in finals))


def _machine_of(classes: Classes, letters, prefix: str) -> StateMachine:
    """A participant's `classes` as its component: moves of rank r read
    `letters[r]`, and each class is named `prefix` and its place breadth
    first along moves sorted by letter, ties to the class whose number
    sorts first as a string: the numbering that written CSMs keep."""
    def successors(i: int) -> list:
        row = classes.moves[i]
        if len(row) > 1:
            row = sorted(row, key=lambda move: (letters[move[0]].sort_key(),
                                                str(move[1])))
        return [j for _, j in row]

    names = [""] * len(classes.moves)
    for k, i in enumerate(walk((0,), successors)):
        names[i] = f"{prefix}{k}"
    return StateMachine(names, names[0], [names[i] for i in classes.finals],
                        [(names[i], letters[label], names[j])
                         for i, row in enumerate(classes.moves)
                         for label, j in row])


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


def _lost_final(encoded: _Compiled, names: list,
                forwarders) -> Optional[NotProjectable]:
    """The first final state `names[q]` of the protocol that its encoding
    reaches with ring counters away from zero, where it is a sink but no
    longer final, with the word to it in the letters of every
    participant but the `forwarders`, on the protocol's channels."""
    state, path = _first_word(encoded.initial, lambda q: [
        (move if move[2] >= 0 else None, move[4]) for move in encoded.out[q]],
        lambda q: not encoded.out[q] and q not in encoded.finals)
    if state is None:
        return None
    ends = {encoded.participants.get(name) for name in forwarders}
    word = tuple(encoded.decoded[r] for sender, receiver, snd, rcv, _ in path
                 for r, end in ((snd, sender), (rcv, receiver))
                 if end not in ends)
    return NotProjectable(f"encoding loses final state "
                          f"{names[encoded.origin[state]]} after "
                          f"{show_word(word)}", word, decisive=False)


def _heads(source: _Compiled, me: int, start: int) -> set:
    """The ranks of the receives of participant `me` whose messages can
    head their channels while it waits at `start`, as `subset_validity`
    defines them.  Blocked and passed senders are bit sets."""
    def successors(node):
        q, blocked, passed = node
        for sender, receiver, _, _, dst in source.out[q]:
            if sender < 0:
                yield dst, blocked, passed
            elif receiver == me:
                yield dst, blocked, passed | 1 << sender
            elif blocked >> sender & 1:
                yield dst, blocked | 1 << receiver, passed
            else:
                yield dst, blocked, passed

    return {rcv for q, blocked, passed in reachable(((start, 1 << me, 0),),
                                                    successors)
            for sender, receiver, _, rcv, _ in source.out[q]
            if receiver == me and not (blocked | passed) >> sender & 1}


def subset_validity(source: _Compiled, participant: str,
                    machine: Subsets) -> Optional[NotProjectable]:
    """The first state of `machine`, breadth first, that breaks Send
    Validity or Receive Validity, as a NotProjectable with the
    participant's word to that state as witness; None if every state
    keeps both.

    `machine` is `subset_construction(source, participant)`.  `source`
    is a deterministic protocol over paired exchanges and epsilon moves,
    as `encode_psm` returns one; the participant is one of its
    participants or forwarders.  Each state X
    of `machine` stands for its members M, the source states that the
    participant cannot tell apart: M is closed under the moves silent to
    the participant, which are the epsilon moves and the exchanges it
    takes no part in.

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

    That holds exactly when each bottom component of M's silent graph,
    a strongly connected component that no silent move leaves, holds a
    member that offers s: each member reaches some bottom component,
    and within one, every member of it.  A bottom component of one
    state and no silent self-loop is a member with no silent move: a
    sink of the protocol, or a state where every move is visible to the
    participant.  Any other lies on a cycle of the protocol, so it is
    among the states `_Compiled.cyclic` keeps, since peeling the states
    that no cycle reaches peels no state of a cycle.  Only those states
    get a component search, and an acyclic protocol gets none.  So the
    check is: the members with no silent move offer s, and so does some
    member of each bottom component that the search finds in M.

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
    me = source.participants.get(participant)
    letters, decoded = machine.letters, source.decoded
    heads: dict = {}
    bottoms = source.cyclic and [
        comp for comp in map(frozenset, strongly_connected_components(
            source.cyclic, lambda q: [(None, dst) for dst in machine.silent[q]]))
        if all(dst in comp for q in comp for dst in machine.silent[q])]

    def failure(state: int, text: str) -> NotProjectable:
        word = tuple(map(decoded.__getitem__, _first_word(
            machine.initial, machine.moves.__getitem__, state.__eq__)[1]))
        return NotProjectable(text.format(participant, show_word(word)), word)

    for state, members in enumerate(machine.states):
        sends, receives = [], []
        for label, _ in machine.moves[state]:
            (sends if letters[label].kind == SEND else receives).append(label)
        if sends and receives:
            return failure(state, f"send validity: {{}} may send "
                                  f"{decoded[sends[0]]} after "
                                  f"{{}} where it must first receive "
                                  f"{decoded[receives[0]]}")
        if not sends and len({letters[r].sender for r in receives}) < 2:
            continue
        own: dict = {}  # the members' own moves, by their local label
        for q in members:
            for label, dst in machine.visible[q]:
                own.setdefault(label, []).append((q, dst))
        for label in sends:
            able = {q for q, _ in own[label]}
            if len(able) < len(members) and (any(
                    not machine.silent[q] for q in members - able) or any(
                    bottom.isdisjoint(able) and not bottom.isdisjoint(members)
                    for bottom in bottoms)):
                return failure(state, f"send validity: {{}} may send "
                                      f"{decoded[label]} after "
                                      f"{{}}, which not every run allows")
        for waited in receives:
            for dst in sorted({dst for _, dst in own[waited]}):
                if dst not in heads:
                    heads[dst] = _heads(source, me, dst)
                for label in receives:
                    if letters[label].sender != letters[waited].sender \
                            and label in heads[dst]:
                        return failure(
                            state, f"receive validity: {{}} may receive "
                                   f"{decoded[label]} after {{}} "
                                   f"where it must receive "
                                   f"{decoded[waited]}")
    return None


class ProjectionResult(Record):
    __slots__ = ("csm", "bounds")
    def __init__(self, csm: Csm, bounds: dict):
        self.csm, self.bounds = csm, bounds


def project_tame(source) -> ProjectionResult:
    """Project a tame protocol machine to a deadlock-free CSM that has
    the protocol's language.

    Encodes bounded channels through forwarder participants on the form
    that validation compiled (`encode_psm`), runs the subset
    construction for every participant and forwarder, minimises each to
    classes, and writes only the participants' classes, decoded, as
    machines: no merged or encoded machine is built.  Raises NotTame
    when the structural gate fails (non-sink-final, then multi-sender
    branching, both read by `psm.choice_report`, then no inferable
    bounds), before it infers any bound.  The
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
    form = psm.compiled
    sink_final, _, branching = choice_report(form)
    if not sink_final:
        raise NotTame("machine is not sink-final")
    if branching is not None:
        raise NotTame(f"state {branching!r} branches on mixed or "
                      f"multi-sender actions")
    try:
        bounds = infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        raise NotTame(f"no channel bounds: {exc}") from exc

    # With no bounded channel the encoding only fuses exchanges, which
    # the fused view of the validated form does.
    protocol = _Compiled(encode_psm(form, bounds) if bounds
                         else Fused(form, {}))
    participants = sorted({ev.sender for ev in form.letters}
                          | {ev.receiver for ev in form.letters})
    named = forwarder_named(participants)
    if named is not None:
        raise NotProjectable(f"participant {named} is named like a "
                             f"forwarder", decisive=False)
    forwarders = [cp.name for cp in channel_participants(bounds)]
    if any(b > 1 for b in bounds.values()):  # else no ring counter moves
        failure = _lost_final(protocol, form.names, forwarders)
        if failure is not None:
            raise failure

    # The conditions need one run per word: a protocol that repeats an
    # exchange at a choice is determinised first.  Both machines have the
    # same language, so they give the same minimal projections, over the
    # same letters.
    if not protocol.deterministic:
        decoded = dict(zip(protocol.letters, protocol.decoded))
        protocol = _Compiled(Fused(Compiled(StateMachine(
            *_whole(protocol.machine()).named())), {}))
        protocol.decoded = [decoded[ev] for ev in protocol.letters]
    minimal = {}
    for name in participants + forwarders:
        subsets = subset_construction(protocol, name)
        failure = subset_validity(protocol, name, subsets)
        if failure is not None:
            raise failure
        minimal[name] = minimize(subsets)
    if forwarders and not is_amicable(
            {name: m.moves for name, m in minimal.items()}, protocol.letters,
            bounds):
        raise NotProjectable("forwarder components are not amicable")

    # Components on the protocol's channels, with states named after their
    # participant, so that the CSM can type sessions.
    csm = Csm({p: _machine_of(minimal[p], protocol.decoded, f"{p}_")
               for p in participants})
    return ProjectionResult(csm, bounds)


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
        have = _whole(candidate.components[p])
        node, word = _first_lag(want, have)
        if node is not None:
            return ProjectionVerdict(False, (
                f"component {p} cannot follow its projection: {word[-1]} "
                f"after {show_word(word[:-1])}" if node[1] is None else
                f"component {p} does not end after {show_word(word)}, "
                f"where its projection does",))
        determinised.append((want, have))
    if spec and spec.keys() == candidate.components.keys() and all(
            all(len(members) == 1 for members in have.states)
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


class StrongReport(Record):
    __slots__ = ("strong", "witnesses")
    def __init__(self, strong: bool, witnesses: tuple):
        # witnesses: ((participant, final non-sink state), ...)
        self.strong, self.witnesses = strong, witnesses


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
