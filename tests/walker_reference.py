"""The reachability walks, subset-construction steps, bounded-word loop,
parent-chain witnesses, type-to-machine builders, binder pruners and
choice classifiers as they stood before `amp.core` held one copy of
each, kept as a test-only reference: verbatim but for absolute imports,
for the `StateMachine` methods and `ConfigGraph.word_to`, which take
their object as `self`, and for calls among these walkers, which go to
the copies here.  The type builders and pruners are ported to the one
session-type representation of `amp.transform`, whose choices hold
events: the local builder reads its events off the branches instead of
building them from a participant.

`test_walkers.py` runs these next to the library and requires equal
sets, trace sets (in the same key order), machines, exceptions and
witnesses.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from amp.core import (Event, RECV, SEND, StateMachine, TraceFlags, TraceSet,
                      Word, expand_pairs, queue_get, queue_set)
from amp.csm import Configuration, ExploreReport
from amp.projection import _local_label
from amp.psm import (DEFAULT_CONFIG_CAP, DIRECTED, MIXED, NON_DETERMINISTIC,
                     SENDER_DRIVEN, Config, ConfigGraph, NonFifo,
                     UnboundedChannel)
from amp.transform import (Choice, End, Rec, Regex, SessionType, Var,
                           _check_global, _follow_sets, _forward_levels,
                           first_letters, mark, regex_lang_upto, unmark)


# -- amp.core ---------------------------------------------------------------


def eps_closure(self: StateMachine, states) -> frozenset[str]:
    seen = set(states)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for ev, dst in self._out[q]:
            if ev is None and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def reachable_states(self: StateMachine) -> frozenset[str]:
    seen = {self.initial}
    stack = [self.initial]
    while stack:
        q = stack.pop()
        for _, dst in self._out[q]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def maximal_traces_upto(m: StateMachine, k: int) -> TraceSet:
    """All run traces of length <= k, flagged complete and/or extendable.

    A trace is complete when some run with that trace ends in a final
    state, and extendable when some such run can consume a further
    letter.  Epsilon transitions contribute no letters.
    """
    if k < 0:
        raise ValueError("bound must be non-negative")
    m = expand_pairs(m)
    result: TraceSet = {}
    frontier: dict[Word, frozenset[str]] = {(): eps_closure(m, {m.initial})}
    for length in range(k + 1):
        nxt: dict[Word, frozenset[str]] = {}
        for word, stateset in frontier.items():
            moves: dict[Event, set[str]] = {}
            for q in stateset:
                for ev, dst in m.out(q):
                    if ev is not None:
                        moves.setdefault(ev, set()).add(dst)
            result[word] = TraceFlags(
                complete=bool(stateset & m.finals),
                extendable=bool(moves),
            )
            if length < k:
                for ev in sorted(moves, key=Event.sort_key):
                    nxt[word + (ev,)] = eps_closure(m, moves[ev])
        frontier = nxt
    return result


# -- amp.projection ---------------------------------------------------------


def subset_construction(machine: StateMachine, participant: str) -> StateMachine:
    """Project a protocol machine onto one participant and determinise.

    Transitions not involving the participant are erased to epsilon;
    subset states are canonically named and final when they contain a
    final source state.
    """
    erased: dict[str, list[tuple[Optional[Event], str]]] = {
        q: [] for q in machine.states}
    for src, ev, dst in machine.transitions:
        label = None if ev is None else _local_label(ev, participant)
        erased[src].append((label, dst))

    def closure(states: frozenset) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for label, dst in erased[q]:
                if label is None and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def name(states: frozenset) -> str:
        return "{" + ",".join(sorted(states)) + "}"

    start = closure(frozenset({machine.initial}))
    index = {start: name(start)}
    frontier = deque([start])
    transitions = []
    while frontier:
        states = frontier.popleft()
        moves: dict[Event, set] = {}
        for q in states:
            for label, dst in erased[q]:
                if label is not None:
                    moves.setdefault(label, set()).add(dst)
        for label in sorted(moves, key=Event.sort_key):
            succ = closure(frozenset(moves[label]))
            if succ not in index:
                index[succ] = name(succ)
                frontier.append(succ)
            transitions.append((index[states], label, index[succ]))
    finals = {index[s] for s in index if s & machine.finals}
    return StateMachine(set(index.values()), index[start], finals, transitions)


# -- amp.psm ------------------------------------------------------------------


class ReferenceConfigGraph(ConfigGraph):
    def word_to(self, node_id: int) -> Word:
        events = []
        while node_id in self.parent:
            node_id, ev = self.parent[node_id]
            events.append(ev)
        return tuple(reversed(events))


def build_config_graph(machine: StateMachine, *,
                       config_cap: int = DEFAULT_CONFIG_CAP,
                       queue_cap: Optional[int] = None) -> ConfigGraph:
    """Explore the word-level configuration graph, checking FIFO discipline.

    Raises NonFifo on a receive that cannot consume its channel head, or
    on a complete trace with unmatched sends; raises UnboundedChannel
    when exploration outgrows the caps.
    """
    machine = expand_pairs(machine).trim()
    if queue_cap is None:
        queue_cap = max(4, 2 * len(machine.states))
    graph = ReferenceConfigGraph(machine)
    start: Config = (eps_closure(machine, {machine.initial}), ())
    graph.nodes.append(start)
    graph.index[start] = 0
    frontier = deque([0])
    while frontier:
        node_id = frontier.popleft()
        stateset, queues = graph.nodes[node_id]
        if stateset & machine.finals and queues:
            raise NonFifo("complete trace leaves unmatched sends",
                          graph.word_to(node_id))
        moves: dict[Event, set] = {}
        for q in stateset:
            for ev, dst in machine.out(q):
                if ev is not None:
                    moves.setdefault(ev, set()).add(dst)
        out = []
        for ev in sorted(moves, key=Event.sort_key):
            targets = eps_closure(machine, moves[ev])
            content = queue_get(queues, ev.channel)
            if ev.kind == SEND:
                if len(content) >= queue_cap:
                    raise UnboundedChannel(
                        f"channel {ev.channel} exceeded queue cap {queue_cap}",
                        graph.word_to(node_id) + (ev,))
                new_queues = queue_set(queues, ev.channel, content + (ev.message(),))
            elif ev.kind == RECV:
                if not content or content[0] != ev.message():
                    raise NonFifo(
                        f"receive {ev} does not match the channel head",
                        graph.word_to(node_id) + (ev,))
                new_queues = queue_set(queues, ev.channel, content[1:])
            else:  # pragma: no cover - pairs were expanded above
                raise AssertionError(ev)
            succ: Config = (targets, new_queues)
            if succ not in graph.index:
                graph.index[succ] = len(graph.nodes)
                graph.nodes.append(succ)
                graph.parent[graph.index[succ]] = (node_id, ev)
                if len(graph.nodes) > config_cap:
                    raise UnboundedChannel(
                        f"exploration exceeded {config_cap} configurations")
                frontier.append(graph.index[succ])
            out.append((ev, graph.index[succ]))
        graph.edges[node_id] = tuple(out)
    return graph


# -- amp.csm ------------------------------------------------------------------


def witness(self: ExploreReport, config: Configuration) -> Word:
    events = []
    while config in self.parent:
        config, ev = self.parent[config]
        if ev is not None:
            events.append(ev)
    return tuple(reversed(events))


# -- amp.transform ------------------------------------------------------------


def global_to_psm(g: SessionType) -> StateMachine:
    """The state-machine reading of a global type.

    States are the indexed syntactic subterms; message branches become
    paired-event transitions, recursion binders and variables become
    epsilon transitions; the end subterms are final.
    """
    _check_global(g)
    counter = itertools.count(1)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []
    binders: dict[str, str] = {}

    def visit(term: SessionType) -> str:
        sid = f"g{next(counter)}"
        states.append(sid)
        if isinstance(term, End):
            finals.add(sid)
        elif isinstance(term, Var):
            transitions.append((sid, None, binders[term.name]))
        elif isinstance(term, Rec):
            binders[term.var] = sid
            body = visit(term.body)
            transitions.append((sid, None, body))
        else:
            for ev, cont in term.branches:
                transitions.append((sid, ev, visit(cont)))
        return sid

    initial = visit(g)
    return StateMachine(states, initial, finals, transitions)


def local_to_fsm(l: SessionType) -> StateMachine:
    """The state-machine reading of a local type."""
    counter = itertools.count(1)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []
    binders: dict[str, str] = {}

    def visit(term: SessionType) -> str:
        sid = f"l{next(counter)}"
        states.append(sid)
        if isinstance(term, End):
            finals.add(sid)
        elif isinstance(term, Var):
            transitions.append((sid, None, binders[term.name]))
        elif isinstance(term, Rec):
            binders[term.var] = sid
            transitions.append((sid, None, visit(term.body)))
        else:
            for ev, cont in term.branches:
                transitions.append((sid, ev, visit(cont)))
        return sid

    initial = visit(l)
    return StateMachine(states, initial, finals, transitions)


def regex_choice_class(r: Regex) -> str:
    """Classify a marked expression's branching via first/follow sets.

    At every decision point (the first letters, and each letter's follow
    set) distinct marked letters must stay distinct after unmarking; for
    sender-driven choice the alternatives must further be sends by one
    participant, and for directed choice share the receiver too.
    """
    marked = mark(r)
    decision_points = [first_letters(marked)]
    decision_points.extend(_follow_sets(marked).values())
    directed = True
    sender_driven = True
    for letters in decision_points:
        if len(letters) <= 1:
            continue
        unmarked = [unmark(a) for a in sorted(letters, key=Event.sort_key)]
        if len(set(unmarked)) != len(unmarked):
            return NON_DETERMINISTIC
        if any(ev.kind == RECV for ev in unmarked) \
                or len({ev.sender for ev in unmarked}) != 1:
            sender_driven = directed = False
        elif len({ev.receiver for ev in unmarked}) != 1:
            directed = False
    if directed:
        return DIRECTED
    if sender_driven:
        return SENDER_DRIVEN
    return MIXED


def regex_choice_class_bounded(r: Regex, k: int) -> str:
    """The prefix-based classification, bounded to words of length <= k.

    Enumerates prefixes of the marked language and inspects which marked
    letters can follow each prefix; agrees with the first/follow
    characterisation on star-free-enough samples.
    """
    marked = mark(r)
    words = regex_lang_upto(marked, k)
    prefixes: dict[Word, set[Event]] = {}
    for w in words:
        for i in range(len(w)):
            prefixes.setdefault(w[:i], set()).add(w[i])
    directed = True
    sender_driven = True
    for nexts in prefixes.values():
        if len(nexts) <= 1:
            continue
        unmarked = [unmark(a) for a in sorted(nexts, key=Event.sort_key)]
        if len(set(unmarked)) != len(unmarked):
            return NON_DETERMINISTIC
        if any(ev.kind == RECV for ev in unmarked) \
                or len({ev.sender for ev in unmarked}) != 1:
            sender_driven = directed = False
        elif len({ev.receiver for ev in unmarked}) != 1:
            directed = False
    if directed:
        return DIRECTED
    if sender_driven:
        return SENDER_DRIVEN
    return MIXED


def _forward_edges(machine: StateMachine):
    """Labelled transitions; epsilon transitions are the back edges."""
    return [(s, e, d) for s, e, d in machine.transitions if e is not None]


def psm_deriv_rooted(machine: StateMachine, new_root: str) -> StateMachine:
    root = machine.initial
    # Descendants of the new root along forward (labelled) edges.
    keep = {new_root}
    stack = [new_root]
    forward: dict[str, list[tuple[Event, str]]] = {}
    for s, e, d in _forward_edges(machine):
        forward.setdefault(s, []).append((e, d))
    while stack:
        q = stack.pop()
        for _, dst in forward.get(q, []):
            if dst not in keep:
                keep.add(dst)
                stack.append(dst)

    copies = itertools.count(1)
    states = set(keep)
    finals = set(machine.finals & keep)
    transitions: list = []
    for s, e, d in machine.transitions:
        if s not in keep:
            continue
        if e is None and d == root:
            # Back edge to the removed root: splice in a copy of the machine.
            suffix = f"^{next(copies)}"
            renamed = machine.rename({q: q + suffix for q in machine.states})
            states |= renamed.states
            finals |= renamed.finals
            transitions.extend(renamed.transitions)
            transitions.append((s, None, renamed.initial))
        elif d in keep:
            transitions.append((s, e, d))
    if new_root == root:  # the a-edge looped straight back
        suffix = f"^{next(copies)}"
        renamed = machine.rename({q: q + suffix for q in machine.states})
        return renamed
    return StateMachine(states, new_root, finals, transitions).trim()


def is_ancestor_recursive(machine: StateMachine) -> bool:
    """Labelled transitions descend a level function; epsilon transitions
    climb back to a state that can reach their source again."""
    machine = machine.trim()
    levels = _forward_levels(machine)
    if levels is None:
        return False
    for src, ev, dst in machine.transitions:
        if ev is not None:
            continue
        # dst must be an ancestor: reachable from the initial state
        # without src, and able to reach src again.
        if not _reaches(machine, dst, src):
            return False
    return True


def _reaches(machine: StateMachine, source: str, target: str) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        q = stack.pop()
        if q == target:
            return True
        for _, dst in machine.out(q):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return False


def _prune_unused_recs(g: SessionType) -> SessionType:
    if isinstance(g, Rec):
        body = _prune_unused_recs(g.body)
        return Rec(g.var, body) if _uses_var(body, g.var) else body
    if isinstance(g, Choice):
        return Choice(tuple((ev, _prune_unused_recs(c)) for ev, c in g.branches))
    return g


def _uses_var(g: SessionType, var: str) -> bool:
    if isinstance(g, Var):
        return g.name == var
    if isinstance(g, Rec):
        return g.var != var and _uses_var(g.body, var)
    if isinstance(g, Choice):
        return any(_uses_var(c, var) for _, c in g.branches)
    return False


def _prune_unused_lrecs(l: SessionType) -> SessionType:
    if isinstance(l, Rec):
        body = _prune_unused_lrecs(l.body)
        return Rec(l.var, body) if _uses_lvar(body, l.var) else body
    if isinstance(l, Choice):
        return Choice(tuple((ev, _prune_unused_lrecs(c))
                            for ev, c in l.branches))
    return l


def _uses_lvar(l: SessionType, var: str) -> bool:
    if isinstance(l, Var):
        return l.name == var
    if isinstance(l, Rec):
        return l.var != var and _uses_lvar(l.body, var)
    if isinstance(l, Choice):
        return any(_uses_lvar(c, var) for _, c in l.branches)
    return False
