"""`minimize`, `_simple_cycles`, `infer_channel_bounds` and
`regex_to_psm` as they stood before minimisation became Hopcroft's
refinement, channel bounds were read off the configuration graph, the
cycle search was confined to strongly connected components and the
derivative expansion found its ancestors through a dict; `is_amicable`,
`check_validity` and `project_tame` as they stood before projection was
decided by the subset projection conditions; and the subset
construction, Hopcroft's `minimize`, `subset_validity` and
`project_tame` on string-named machines, as they stood before
projection ran on a protocol compiled to integers (the `named_` and
`hopcroft_` functions), with `canonical_names`, which renamed each
decoded component before the library wrote components straight from
its classes; and `named_is_amicable`, the amicability check on
string-named component machines with `machine_is_forwarding`, as it
stood before the library decided amicability on `minimize`'s classes;
and `_lost_final`, the search for a final state that the encoding
loses, on the written encoding, as it stood before the library searched
the encoding's ints (it names the lost state by the longest protocol
state name that prefixes its name, which can be the wrong state).  The
reference pipelines encode with the string encoder
`graph_reference.encode_psm`.  Kept as a test-only reference, verbatim
but for absolute imports, the memo that the library's `canon` takes,
here a fresh one per call, the
names of the library functions that `project_tame` calls, the compiled
protocol (`compiled`) that the library's `subset_construction` takes,
the library's classes read as a machine (`minimal_machine`), the name
`named_is_amicable`, the prefix that `canonical_names` takes, and the
fields of the `ProjectionResult` it returns, which no longer carries
the validity report, the verdict and the encoded protocol.

These are the Moore refinement with one round per state on a chain, the
recursive simple-path and simple-cycle searches, which are exponential
in the number of branches, the ancestor scans with structural equality,
the amicability check over sender traces of bounded length, the
projection that accepts a candidate only after the bounded oracle
`csm.check_projection`, and the per-participant pipeline that builds a
subset machine with states named `{a,b}`, a merged machine and its
renamed copy, which amicability reads with epsilon closures and names
parsed back into forwarders.  `test_projection_layers.py` and
`test_projection_conditions.py` run them next to the library and
require equal machines, bounds, verdicts, exceptions and witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from typing import Optional

from amp.core import (PAIR, RECV, SEND, Event, StateMachine, Word, eps_closure,
                      expand_pairs, payload_from_key, reachable, recv, send,
                      subset_moves, walk)
from amp.csm import Csm, check_projection
from amp.encoding import (ChannelParticipant, channel_participants,
                          decode_event, decode_fsm, parse_channel_participant)
from amp.fifo import show_word
from amp.projection import (NotProjectable, NotTame, ProjectionResult,
                            Subsets, _first_word, _machine_of,
                            subset_construction)
from amp.projection import minimize as library_minimize
from amp.psm import Psm, UnboundedLoop, _has_return_chain, validate
from amp.psm import infer_channel_bounds as library_infer_channel_bounds
from amp.transform import (Regex, brz_deriv, canon, first_letters, nullable,
                           regex_contains_eps, remove_eps)

from .compiled_reference import detected_channels, single_sender_branching
from .graph_reference import encode_psm
from .semantics import is_channel_ordered, rename
from .walker_reference import _local_label


# -- amp.projection -----------------------------------------------------------


class NamedCompiled:
    """A protocol machine compiled to integers, once, for projection.

    State i is `names[i]`, states numbered in sorted name order, so
    sorting state ids sorts their names.  `out[i]` lists state i's
    transitions as (sender, receiver, send rank, receive rank,
    successor): a participant sees the send letter when it is the
    sender and the receive letter when it is the receiver, and a rank
    of -1, or an epsilon move with sender and receiver -1, is silent to
    it.  `letters[r]` is the letter of rank r, letters ranked in
    `Event.sort_key` order, and `participants` numbers the names of the
    senders and receivers.  `silent[i]` lists state i's successors, as
    silent moves, and `takes_part[p]` the states where participant
    number p moves.  `cyclic` lists the states that a cycle reaches, left
    by Kahn's peeling, so it holds every successor of its states.
    """

    __slots__ = ("names", "initial", "finals", "out", "letters",
                 "participants", "silent", "takes_part", "cyclic")

    def __init__(self, states, initial: str, finals, transitions):
        self.names = sorted(states)
        number = {q: i for i, q in enumerate(self.names)}
        self.initial = number[initial]
        self.finals = frozenset(number[q] for q in finals)
        sides = {}  # event -> (its send letter, its receive letter)
        for _, ev, _ in transitions:
            if ev is not None and ev not in sides:
                sides[ev] = (ev.letters() if ev.kind == PAIR else
                             (ev, None) if ev.kind == SEND else (None, ev))
        self.letters = sorted({letter for both in sides.values()
                               for letter in both if letter is not None},
                              key=Event.sort_key)
        rank = {letter: r for r, letter in enumerate(self.letters)}
        rank[None] = -1
        self.participants = {p: i for i, p in enumerate(sorted(
            {ev.sender for ev in sides} | {ev.receiver for ev in sides}))}
        people = self.participants
        coded = {ev: (people[ev.sender], people[ev.receiver], rank[snd],
                      rank[rcv]) for ev, (snd, rcv) in sides.items()}
        coded[None] = (-1, -1, -1, -1)
        self.out = [[] for _ in self.names]
        self.takes_part: dict = {}
        indegree = [0] * len(self.names)
        for src, ev, dst in transitions:
            self.out[number[src]].append(coded[ev] + (number[dst],))
            indegree[number[dst]] += 1
            for p in coded[ev][:2]:
                self.takes_part.setdefault(p, set()).add(number[src])
        self.silent = [[move[4] for move in row] for row in self.out]
        peeled = [q for q, d in enumerate(indegree) if not d]
        for q in peeled:  # grows as states lose their last predecessor
            for dst in self.silent[q]:
                indegree[dst] -= 1
                if not indegree[dst]:
                    peeled.append(dst)
        self.cyclic = [q for q, d in enumerate(indegree) if d]


def compiled(machine: StateMachine) -> NamedCompiled:
    """`machine`, a protocol over paired exchanges and epsilon moves as
    `encode_psm` writes one, compiled as `project_tame` compiled the
    protocol it projects, for `subset_construction`."""
    return NamedCompiled(machine.states, machine.initial, machine.finals,
                         machine.transitions)


def minimal_machine(subsets: Subsets) -> StateMachine:
    """The library's `minimize(subsets)` as the machine it returned
    before it returned its classes: class i named s{i}, and each move
    reading its letter."""
    return _machine_of(library_minimize(subsets), subsets.letters, "s")


def canonical_names(machine: StateMachine, prefix: str) -> StateMachine:
    """Rename states to `prefix`0, `prefix`1, ... in breadth-first
    transition order, unreachable states last in sorted order."""
    order = list(walk((machine.initial,),
                      lambda q: [dst for _, dst in machine.out(q)]))
    order += sorted(machine.states.difference(order))
    return rename(machine, {q: f"{prefix}{i}" for i, q in enumerate(order)})


def minimize(machine: StateMachine) -> StateMachine:
    """Merge language-equivalent states of a deterministic machine.

    Partition refinement with an implicit dead state; class names are
    derived from their members so the result is canonical.
    """
    machine = machine.trim()
    partition: dict[str, int] = {
        q: (1 if q in machine.finals else 0) for q in machine.states}
    while True:
        signature = {}
        for q in machine.states:
            moves = tuple(sorted((ev.sort_key() if ev is not None else (),
                                  partition[dst]) for ev, dst in machine.out(q)))
            signature[q] = (partition[q], moves)
        classes = {}
        for q in sorted(machine.states):
            classes.setdefault(signature[q], []).append(q)
        new_partition = {}
        for i, (_, members) in enumerate(sorted(classes.items(),
                                                key=lambda kv: kv[1][0])):
            for q in members:
                new_partition[q] = i
        if new_partition == partition:
            break
        partition = new_partition
    rename = {q: f"c{partition[q]}" for q in machine.states}
    transitions = {(rename[s], ev, rename[d]) for s, ev, d in machine.transitions}
    merged = StateMachine(set(rename.values()), rename[machine.initial],
                          {rename[q] for q in machine.finals}, transitions)
    return canonical_names(merged, "s")


# -- amp.psm ------------------------------------------------------------------


def _simple_cycles(machine: StateMachine):
    """Yield simple cycles as lists of (src, event, dst) transitions."""
    order = sorted(machine.states)
    for root in order:
        # Only cycles whose smallest state is `root`, to avoid duplicates.
        path: list = []
        on_path = {root}

        def walk(q: str):
            for ev, dst in machine.out(q):
                if dst == root:
                    yield path + [(q, ev, dst)]
                elif dst > root and dst not in on_path:
                    on_path.add(dst)
                    path.append((q, ev, dst))
                    yield from walk(dst)
                    path.pop()
                    on_path.discard(dst)

        yield from walk(root)


def infer_channel_bounds(psm: Psm) -> dict:
    """Infer per-channel buffer bounds in three phases.

    Detect channels needing a bound; reject loops that send on a detected
    channel without a completed message chain from the receiver back to
    the sender; then bound each detected channel by its maximum backlog
    over loop-free paths from the initial state.
    """
    machine = expand_pairs(psm.machine).trim()
    detected = detected_channels(machine)
    if not detected:
        return {}

    cycles = list(_simple_cycles(machine))
    for p, q in sorted(detected):
        for cycle in cycles:
            events = [ev for _, ev, _ in cycle if ev is not None]
            if not any(ev.kind == SEND and ev.channel == (p, q) for ev in events):
                continue
            rotations = [events[i:] + events[:i] for i in range(len(events))]
            if not any(_has_return_chain(rot, q, p) for rot in rotations):
                witness = tuple(events)
                raise UnboundedLoop(
                    f"loop sends on channel {(p, q)} with no message chain "
                    f"from {q} back to {p}", witness)

    bounds = {ch: 0 for ch in detected}
    counts = {ch: 0 for ch in detected}

    def dfs(q: str, on_path: set[str]) -> None:
        for ev, dst in machine.out(q):
            if dst in on_path:
                continue
            delta = 0
            if ev is not None and ev.channel in detected:
                delta = 1 if ev.kind == SEND else -1
                counts[ev.channel] += delta
                bounds[ev.channel] = max(bounds[ev.channel], counts[ev.channel])
            on_path.add(dst)
            dfs(dst, on_path)
            on_path.discard(dst)
            if delta:
                counts[ev.channel] -= delta

    dfs(machine.initial, {machine.initial})
    return dict(sorted(bounds.items()))


# -- amp.transform ------------------------------------------------------------


def regex_to_psm(r: Regex) -> StateMachine:
    """Build a tree-shaped machine for an ε-free expression.

    Expands the expression by derivatives, one branch per first letter;
    a derivative already seen on the current path becomes an epsilon
    back edge, closing the loop exactly where a recursion binder
    belongs.  A derivative that is nullable but can continue splits
    into a final sink and its ε-free residue, duplicating the letter:
    the nondeterminism such expressions carried stays visible instead
    of surfacing as a final state with outgoing transitions.
    """
    if regex_contains_eps(r):
        raise ValueError("regex_to_psm requires an ε-free expression")
    counter = itertools.count(0)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []

    def fresh() -> str:
        name = f"r{next(counter)}"
        states.append(name)
        return name

    def attach(sid: str, a: Event, term: Regex, here: tuple) -> None:
        ancestor = next((anc for anc_term, anc in here if anc_term == term),
                        None)
        if ancestor is not None:
            hook = fresh()
            transitions.append((sid, a, hook))
            transitions.append((hook, None, ancestor))
        else:
            transitions.append((sid, a, expand(term, here)))

    def expand(term: Regex, path: tuple) -> str:
        sid = fresh()
        if nullable(term):
            finals.add(sid)
        here = path + ((term, sid),)
        for a in sorted(first_letters(term), key=Event.sort_key):
            derived = brz_deriv(a, term)
            assert derived is not None
            derived = canon(derived, {})
            if derived in [anc_term for anc_term, _ in here]:
                attach(sid, a, derived, here)
            elif nullable(derived) and first_letters(derived):
                stop = fresh()
                finals.add(stop)
                transitions.append((sid, a, stop))
                attach(sid, a, canon(remove_eps(derived), {}), here)
            else:
                attach(sid, a, derived, here)
        return sid

    root = expand(canon(r, {}), ())
    return StateMachine(states, root, finals, transitions)


# -- amp.encoding -------------------------------------------------------------


def is_amicable(components: dict[str, StateMachine], bounds: dict,
                k: int = 8) -> bool:
    """Bounded sanity check that each forwarder can serve its sender.

    Requires forwarder machines to be structurally forwarding, sender
    languages to be channel-ordered, and every bounded trace's message
    sequence to be accepted by the forwarder's alternation.
    """
    from amp.core import maximal_traces_upto
    words: dict = {}  # sender -> its bounded traces, all channel-ordered
    for name, machine in components.items():
        cp = parse_channel_participant(name)
        if cp is None:
            continue
        if not machine_is_forwarding(machine, cp):
            return False
        sender_machine = components.get(cp.source)
        if sender_machine is None:
            continue
        traces = words.get(cp.source)
        if traces is None:
            traces = words[cp.source] = maximal_traces_upto(sender_machine, k)
            if not all(is_channel_ordered(word, bounds) for word in traces):
                return False
        for word in traces:
            msgs = [ev.message() for ev in word
                    if ev.kind == SEND and ev.receiver == name]
            run = []
            for label, payload in msgs:
                run.append(recv(cp.source, name, label, payload_from_key(payload)))
                run.append(send(name, cp.target, label, payload_from_key(payload)))
            if not _machine_accepts_prefix(machine, tuple(run)):
                return False
    return True


def _machine_accepts_prefix(machine: StateMachine, word: Word) -> bool:
    current = machine.eps_closure({machine.initial})
    for ev in word:
        nxt = {dst for q in current for e, dst in machine.out(q) if e == ev}
        if not nxt:
            return False
        current = machine.eps_closure(nxt)
    return True


def machine_is_forwarding(machine: StateMachine, cp: ChannelParticipant) -> bool:
    """Every reachable path alternates matched receive/forward steps."""
    held = {machine.initial: None}  # state -> held message or None

    def successors(q: str):
        """The states after q, or None after a step that breaks the
        alternation."""
        for ev, dst in machine.out(q):
            if ev is None:
                ok = False
            elif held[q] is None:
                ok = (ev.kind == RECV and ev.sender == cp.source
                      and ev.receiver == cp.name)
                nxt = ev.message()
            else:
                ok = ev == send(cp.name, cp.target, held[q][0],
                                payload_from_key(held[q][1]))
                nxt = None
            if not ok or held.setdefault(dst, nxt) != nxt:
                yield None
                return
            yield dst

    return None not in walk((machine.initial,), successors)


def named_is_amicable(components: dict[str, StateMachine],
                      bounds: dict) -> bool:
    """Whether each forwarder can serve its sender, on runs of any length.

    Every forwarder's machine must be forwarding.  Every sender's machine
    is then run in product with a ring counter per family of forwarder
    events (its sends to the forwarders of one channel, its receives from
    those of another) and with the states of the forwarders it sends to:
    on every path it must use the ring slots of each family in order,
    and it may send a forwarder only a message that the forwarder can
    receive and pass on at that point.
    """
    served: dict = {}  # sender -> {forwarder name: its machine}
    for name, machine in components.items():
        cp = parse_channel_participant(name)
        if cp is None:
            continue
        if not machine_is_forwarding(machine, cp):
            return False
        if cp.source in components:
            served.setdefault(cp.source, {})[name] = machine
    return all(_serves(expand_pairs(components[sender]), forwarders, bounds)
               for sender, forwarders in served.items())


def _ring_slots(ev: Event, bounds: dict) -> list:
    """The slots `ev` takes, as (ring, index): one for each end of `ev`
    that is a forwarder of a bounded channel.  A ring is that channel,
    the kind of `ev` and the end the forwarder is at."""
    slots = []
    for end, name in (("in", ev.receiver), ("out", ev.sender)):
        cp = parse_channel_participant(name)
        if cp is not None and (cp.source, cp.target) in bounds:
            slots.append(((cp.source, cp.target, ev.kind, end), cp.index))
    return slots


def _serves(sender: StateMachine, forwarders: dict, bounds: dict) -> bool:
    """Whether `sender` keeps ring order and sends `forwarders` only what
    they can pass on, on every path: the product `is_amicable` walks."""
    names = sorted(forwarders)

    def successors(node):
        """The nodes after `node`, or None after a step out of ring
        order or to a forwarder that cannot take it."""
        q, ring, held = node
        for ev, dst in sender.out(q):
            if ev is None:
                yield dst, ring, held
                continue
            counters = dict(ring)
            for family, index in _ring_slots(ev, bounds):
                if index != counters.get(family, 0):
                    yield None
                    return
                counters[family] = (index + 1) % bounds[family[:2]]
            after = held
            if ev.kind == SEND and ev.receiver in forwarders:
                i = names.index(ev.receiver)
                states = _step_forwarder(forwarders[ev.receiver], held[i], ev)
                if not states:
                    yield None
                    return
                after = held[:i] + (states,) + held[i + 1:]
            yield dst, tuple(sorted(counters.items())), after

    start = (sender.initial, (), tuple(
        forwarders[name].eps_closure({forwarders[name].initial})
        for name in names))
    return None not in walk((start,), successors)


def _step_forwarder(machine: StateMachine, states: frozenset,
                    ev: Event) -> frozenset:
    """Where `machine`, a forwarder in `states`, can be after it receives
    the message of the send `ev` and passes it on; empty if it cannot."""
    cp = parse_channel_participant(ev.receiver)
    for hop in (recv(cp.source, cp.name, ev.label, ev.payload),
                send(cp.name, cp.target, ev.label, ev.payload)):
        states = machine.eps_closure(
            {dst for q in states for e, dst in machine.out(q) if e == hop})
    return states


# -- amp.projection -----------------------------------------------------------


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


def project_tame(source, *, k: int = 6) -> ProjectionResult:
    """Project a tame protocol machine to a deadlock-free CSM.

    Encodes bounded channels through forwarder participants, runs the
    subset construction for every participant, minimises, checks
    validity, decodes, and finally replays the bounded oracle against
    the source.  Raises NotTame when the structural gate fails
    (multi-sender branching, non-sink-final, no inferable bounds) and
    NotProjectable with a report when a candidate exists but is wrong.

    `check_validity` is a fast structural pre-filter over the subset
    machines; the bounded semantic oracle always runs afterwards and is
    what acceptance rests on.
    """
    psm = source if isinstance(source, Psm) else validate(source)
    machine = psm.machine.trim()

    if not machine.is_sink_final():
        raise NotTame("machine is not sink-final")
    ok, state = single_sender_branching(machine)
    if not ok:
        raise NotTame(f"state {state!r} branches on mixed or multi-sender actions")
    try:
        bounds = library_infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        raise NotTame(f"no channel bounds: {exc}") from exc

    encoded = encode_psm(machine, bounds)
    participants = set(machine.participants())
    cps = channel_participants(bounds)

    protocol = compiled(encoded)
    projections = {p: minimal_machine(subset_construction(protocol, p))
                   for p in sorted(participants)}
    cp_machines = {cp.name: minimal_machine(subset_construction(protocol,
                                                                cp.name))
                   for cp in cps}

    validity = check_validity({**projections, **cp_machines})
    if not validity.ok:
        participant, state, event = validity.violations[0]
        raise NotProjectable(f"check check_validity: state {state} of "
                             f"{participant} rejects {event}")

    if cps and not is_amicable({**projections, **cp_machines}, bounds, k=k + 2):
        raise NotProjectable("forwarder components are not amicable")

    # Distinct state names across components, so the CSM can type sessions.
    csm = Csm({p: canonical_names(decode_fsm(m), prefix=f"{p}_")
               for p, m in projections.items()})
    verdict = check_projection(psm, csm, k)
    if not verdict.passed:
        raise NotProjectable("; ".join(verdict.reasons))
    return ProjectionResult(csm, bounds)


# -- amp.projection on string-named machines ------------------------------------


class SubsetMachine(StateMachine):
    """A machine built by the subset construction.  `members` maps each
    of its states to the set of source states that state stands for, and
    `view(q)` lists the moves of source state q as the construction read
    them: (label, successor) pairs, a None label being silent."""

    __slots__ = ("members", "view")


def named_subsets(initial: str, out, finals: frozenset) -> SubsetMachine:
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


def named_subset_construction(machine: StateMachine,
                              participant: str) -> SubsetMachine:
    """Project a protocol machine onto one participant and determinise.

    Transitions not involving the participant are erased to epsilon;
    the result is a `SubsetMachine`.
    """
    erased: dict[str, list[tuple[Optional[Event], str]]] = {
        q: [] for q in machine.states}
    for src, ev, dst in machine.transitions:
        label = None if ev is None else _local_label(ev, participant)
        erased[src].append((label, dst))
    return named_subsets(machine.initial, erased.__getitem__, machine.finals)


def hopcroft_minimize(machine: StateMachine) -> StateMachine:
    """Merge the reachable states of a deterministic machine that no
    word tells apart, by Hopcroft's partition refinement in Valmari &
    Lehtinen's form for partial transition functions, on state names."""
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
    return canonical_names(merged, "s")


def named_heads(source: StateMachine, participant: str, start: str) -> set:
    """The receives of `participant` whose messages can head their
    channels while it waits at `start`."""
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


def named_subset_validity(source: StateMachine, participant: str,
                          machine: SubsetMachine) -> Optional[NotProjectable]:
    """The first state of `machine`, breadth first, that breaks Send
    Validity or Receive Validity, as a NotProjectable with the
    participant's word to that state as witness; None if every state
    keeps both."""
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
                    heads[dst] = named_heads(source, participant, dst)
                for ev in receives:
                    if ev.sender != waited.sender and ev in heads[dst]:
                        return failure(
                            state, f"receive validity: {{}} may receive "
                                   f"{decode_event(ev)} after {{}} where it "
                                   f"must receive {decode_event(waited)}")
    return None


def named_project_tame(source) -> ProjectionResult:
    """`project_tame` with each component built as a subset machine,
    minimised to a merged machine and renamed."""
    psm = source if isinstance(source, Psm) else validate(source)
    machine = psm.machine.trim()

    if not machine.is_sink_final():
        raise NotTame("machine is not sink-final")
    ok, state = single_sender_branching(machine)
    if not ok:
        raise NotTame(f"state {state!r} branches on mixed or multi-sender actions")
    try:
        bounds = library_infer_channel_bounds(psm)
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

    protocol = (encoded if encoded.is_deterministic()
                else named_subsets(encoded.initial, encoded.out,
                                   encoded.finals))
    cps = channel_participants(bounds)
    minimal = {}
    for name in participants + [cp.name for cp in cps]:
        subsets = named_subset_construction(protocol, name)
        failure = named_subset_validity(protocol, name, subsets)
        if failure is not None:
            raise failure
        minimal[name] = hopcroft_minimize(subsets)
    if cps and not named_is_amicable(minimal, bounds):
        raise NotProjectable("forwarder components are not amicable")

    csm = Csm({p: canonical_names(decode_fsm(minimal[p]), prefix=f"{p}_")
               for p in participants})
    return ProjectionResult(csm, bounds)
