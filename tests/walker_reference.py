"""The reachability walks, subset-construction steps, bounded-word loop,
parent-chain witnesses, type-to-machine builders and binder pruners as
they stood before `amp.core` held one copy of each, kept as a test-only
reference: verbatim but for absolute imports, for the configuration
cap's exception, which became its own class, for the `StateMachine`
methods and `ConfigGraph.word_to`, which take their object as `self`,
for the string-named `ConfigGraph` itself, which `amp.psm` replaced by
one on the machine compiled to integers (`named` reads that one back
to this form), for `witness`, which takes the parent map that the
exploration report no longer builds, and for calls among these
walkers, which go to the copies here.  The type builders and pruners are ported to the one
session-type representation of `amp.transform`, whose choices hold
events: the local builder reads its events off the branches instead of
building them from a participant.  `_read_tree` is the tree reader as
it stood before it decided each binder while reading: it binds a
variable at every epsilon target and prunes the unused binders in a
second walk.

`test_walkers.py` runs these next to the library and requires equal
sets, trace sets (in the same key order), machines, types, exceptions
and witnesses.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from amp.core import (Event, PAIR, RECV, SEND, StateMachine, TraceFlags,
                      TraceSet, Word, expand_pairs, queue_get, queue_set,
                      recv, send)
from amp.csm import Configuration
from amp.psm import (DEFAULT_CONFIG_CAP, ConfigCapExceeded, NonFifo,
                     UnboundedChannel)
from amp.transform import (Choice, End, Rec, SessionType, Var,
                           _check_global, _recursion_vars)



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


Config = tuple[frozenset, tuple]  # (state set, sorted non-empty channel queues)


@dataclass
class ConfigGraph:
    """Reachable (state set, channel contents) nodes of a machine."""

    machine: StateMachine
    nodes: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)   # node id -> tuple[(Event, id)]
    parent: dict = field(default_factory=dict)  # node id -> (id, Event)

    def word_to(self, node_id: int) -> Word:
        events = []
        while node_id in self.parent:
            node_id, ev = self.parent[node_id]
            events.append(ev)
        return tuple(reversed(events))


def compiled_names(machine: StateMachine) -> list[str]:
    """The name of each state of `core.Compiled(machine)`, by number: the
    states in name order, then each pair's middle state, named as
    `expand_pairs` names it."""
    names = sorted(machine.states)
    taken = set(names)
    for idx, (src, ev, _) in enumerate(machine.transitions):
        if ev is not None and ev.kind == "pair":
            mid = f"{src}~{idx}"
            while mid in taken:
                mid += "'"
            taken.add(mid)
            names.append(mid)
    return names


def named(graph, machine: StateMachine) -> ConfigGraph:
    """`amp.psm.build_config_graph(Compiled(machine))` read back to state
    names, events and channel queues of (label, payload key) messages."""
    names = compiled_names(machine)
    machine = expand_pairs(machine).trim()
    letters = graph.letters
    result = ConfigGraph(machine)
    for i, (states, queues) in enumerate(graph.nodes):
        node = (frozenset(names[q] for q in states),
                tuple((channel, tuple(letters[r].message() for r in content))
                      for channel, content in zip(graph.channels, queues)
                      if content))
        result.nodes.append(node)
        result.index[node] = i
        result.edges[i] = tuple((letters[r], j) for r, j in graph.moves[i])
        if i:
            source, r = graph.parent[i]
            result.parent[i] = (source, letters[r])
    return result


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
    graph = ConfigGraph(machine)
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
                    raise ConfigCapExceeded(
                        f"exploration exceeded {config_cap} configurations")
                frontier.append(graph.index[succ])
            out.append((ev, graph.index[succ]))
        graph.edges[node_id] = tuple(out)
    return graph


# -- amp.csm ------------------------------------------------------------------


def witness(parent: dict, config: Configuration) -> Word:
    """The witness off a parent map: configuration -> (the
    configuration it was first reached from, event)."""
    events = []
    while config in parent:
        config, ev = parent[config]
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


def _read_tree(tree: StateMachine, check) -> SessionType:
    """Read a type off a tree-shaped machine.

    Finals become end; an epsilon edge to a state on the current path
    becomes its recursion variable, while an epsilon edge forward is
    followed transparently; branches become choices, once
    `check(state, events)` accepts their events.  States targeted by
    epsilon edges bind a recursion variable, pruned again if unused.
    """
    var_names = _recursion_vars(tree)
    path: set[str] = set()  # the states on the current path

    def traverse(q: str) -> SessionType:
        if q in tree.finals:
            return End()
        path.add(q)
        outs = tree.out(q)
        if len(outs) == 1 and outs[0][0] is None:
            dst = outs[0][1]
            body: SessionType = (Var(var_names[dst]) if dst in path
                                 else traverse(dst))
        else:
            branches = []
            for ev, dst in outs:
                if ev is None:
                    raise ValueError("epsilon edge on a branching state")
                branches.append((ev, traverse(dst)))
            if not branches:
                raise ValueError(f"non-final sink state {q!r}")
            check(q, [ev for ev, _ in branches])
            body = Choice(tuple(branches))
        path.discard(q)
        if q in var_names:
            return Rec(var_names[q], body)
        return body

    return _prune_unused_recs(traverse(tree.initial))
