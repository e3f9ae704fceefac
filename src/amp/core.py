"""Events, finite state machines, the compiled protocol, bounded trace
languages, and machine I/O.

`Event` and `StateMachine` are the string form: immutable once built,
with their derived data precomputed, so safe to share.  `Compiled` is a
protocol machine compiled to integers once, each pair split and the
machine trimmed: validation walks it and projection reads it fused
(`encoding.Fused`).  A protocol is loaded straight into it
(`load_protocol`, or `transform.compile_global` for a global type), its
`StateMachine` built only when a command that writes or transforms the
input reads `source`; CSM components load as machines.

The graph-analysis section holds the one copy of each walker that the
other layers share, for any graph given as nodes and an out-edge
function.  `walk` is the one breadth-first search; `reachable` finds the
set it yields with a loop of its own, for tiny graphs and for
`Compiled`'s trimming, and `eps_closure` and `backward_closure` run it
forwards and backwards.  Outside `walk` stay `csm.explore` (it fills
the packed kernel's arrays), `psm.build_config_graph` (it raises with a
witness mid-walk), `fer_violation`, `fifo.closure_upto` (it counts
against its cap), `bounded_traces` (it keeps words, not nodes),
`projection.Subsets` and `projection.minimize` (they number nodes as
they find them) and the depth-first searches.  `subset_moves` is the
subset-construction step of the bounded oracle; `parent_word` reads a
witness off a breadth-first parent chain; `strongly_connected_components`
is the one Tarjan; and `nodes_on_cycles`, `maximal_capable` and
`fer_violation` answer "can this node still reach a maximal run?" and
"can every pending message still be received?".  The channel-queue and
payload-key helpers shared by those layers live here too.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Union

SEND = "send"
RECV = "recv"
PAIR = "pair"

_KIND_ORDER = {SEND: 0, RECV: 1, PAIR: 2}


class Record:
    """A value: equal to a record of its own class with equal fields,
    hashed over its fields, printed `Name(field=value, ...)` and pickled
    as its class called on them.  The fields are the names in the class's
    `__slots__` that do not start with `_`, in the order its own
    `__init__` takes them.  A record is not changed once built, so its
    hash is kept."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if n[0] != "_")
        # a record with no fields reads its class's empty `_fields`
        cls._values = attrgetter(*cls._fields or ("_fields",))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = self._hash = hash(self._values(self))
        return value

    def __reduce__(self):
        return (type(self), tuple(map(self.__getattribute__, self._fields)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class StateRef(Record):
    """A machine-state used as a payload type (for delegation)."""

    __slots__ = ("state",)
    def __init__(self, state: str):
        self.state = state

    def __str__(self) -> str:
        return self.state


Payload = Union[None, str, StateRef]


def payload_key(payload: Payload) -> str:
    """A payload as a string that orders and compares like the payload."""
    if payload is None:
        return ""
    if isinstance(payload, StateRef):
        return "@" + payload.state
    return "#" + payload


def payload_suffix(payload: Payload) -> str:
    """A payload as printed after a message label."""
    if payload is None:
        return ""
    if isinstance(payload, StateRef):
        return f"<@{payload.state}>"
    return f"<{payload}>"


def payload_from_key(key: str) -> Payload:
    """The inverse of `payload_key`."""
    if not key:
        return None
    if key.startswith("@"):
        return StateRef(key[1:])
    return key[1:]


class Event(Record):
    """A send, receive, or paired message exchange over one channel.

    ``send`` means `sender` enqueues `label` on channel (sender, receiver);
    ``recv`` means `receiver` dequeues it; ``pair`` is the two in immediate
    succession and expands to two letters in any trace.
    """

    __slots__ = ("kind", "sender", "receiver", "label", "payload", "_key",
                 "_letters")
    def __init__(self, kind: str, sender: str, receiver: str, label: str,
                 payload: Payload = None):
        if kind not in (SEND, RECV, PAIR):
            raise ValueError(f"bad event kind {kind!r}")
        if not sender or not receiver or label is None:
            raise ValueError("events need a sender, receiver, and label")
        if sender == receiver:
            raise ValueError(f"self-channel event {sender}>{receiver}")
        self.kind, self.sender, self.receiver = kind, sender, receiver
        self.label, self.payload = label, payload
        # Injective, since `payload_key` is: equal keys mean equal events.
        self._key = (sender, receiver, label, _KIND_ORDER[kind],
                     payload_key(payload))
        # Events key dicts and sets in every inner loop: hash them once.
        self._hash = hash(self._key)

    def __eq__(self, other):
        if other.__class__ is not Event:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def channel(self) -> tuple[str, str]:
        return (self.sender, self.receiver)

    @property
    def subject(self) -> str:
        """The participant performing this action (sender of a send, etc.)."""
        if self.kind == RECV:
            return self.receiver
        return self.sender

    def sort_key(self) -> tuple:
        return self._key

    def letters(self) -> tuple["Event", ...]:
        """The trace letters this transition label contributes; a pair's
        are built once, outside the fields that compare, print and pickle."""
        if self.kind != PAIR:
            return (self,)
        if not hasattr(self, "_letters"):
            self._letters = (
                Event(SEND, self.sender, self.receiver, self.label, self.payload),
                Event(RECV, self.sender, self.receiver, self.label, self.payload))
        return self._letters

    def message(self) -> tuple[str, str]:
        return (self.label, payload_key(self.payload))

    def __str__(self) -> str:
        suffix = payload_suffix(self.payload)
        if self.kind == SEND:
            return f"{self.sender}>{self.receiver}!{self.label}{suffix}"
        if self.kind == RECV:
            return f"{self.sender}>{self.receiver}?{self.label}{suffix}"
        return f"{self.sender}->{self.receiver}:{self.label}{suffix}"


def send(sender: str, receiver: str, label: str, payload: Payload = None) -> Event:
    return Event(SEND, sender, receiver, label, payload)


def recv(sender: str, receiver: str, label: str, payload: Payload = None) -> Event:
    return Event(RECV, sender, receiver, label, payload)


def pair(sender: str, receiver: str, label: str, payload: Payload = None) -> Event:
    return Event(PAIR, sender, receiver, label, payload)


Word = tuple[Event, ...]

Transition = tuple[str, Optional[Event], str]


def _transition_key(t: Transition):
    src, ev, dst = t
    return (src, ev is None, () if ev is None else ev._key, dst)


class StateMachine:
    """A finite state machine over events, with epsilon transitions.

    States are opaque strings.  The transition list is normalised to a
    canonical order so that two machines built from the same data compare
    and serialise identically.
    """

    __slots__ = ("states", "initial", "finals", "transitions", "_out", "_key",
                 "_trimmed")

    def __init__(self, states: Iterable[str], initial: str,
                 finals: Iterable[str], transitions: Iterable[Transition]):
        self.states = frozenset(states)
        self.initial = initial
        self.finals = frozenset(finals)
        self.transitions = tuple(sorted(  # sorted input sorts in linear time
            dict.fromkeys(transitions), key=_transition_key))
        if self.initial not in self.states:
            raise ValueError(f"initial state {initial!r} not a state")
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        out: dict[str, list[tuple[Optional[Event], str]]] = {q: [] for q in self.states}
        for src, ev, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint not a state: {(src, ev, dst)}")
            out[src].append((ev, dst))
        self._out = {q: tuple(v) for q, v in out.items()}
        self._key = (self.states, self.initial, self.finals, self.transitions)
        # Set on machines `trim` returns, which trim to themselves.
        self._trimmed = False

    def out(self, q: str) -> tuple[tuple[Optional[Event], str], ...]:
        return self._out[q]

    def __eq__(self, other) -> bool:
        return isinstance(other, StateMachine) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"StateMachine({len(self.states)} states, "
                f"{len(self.transitions)} transitions, initial={self.initial!r})")

    # -- structural predicates ------------------------------------------

    def alphabet(self) -> frozenset[Event]:
        return frozenset(ev for _, ev, _ in self.transitions if ev is not None)

    def participants(self) -> tuple[str, ...]:
        return tuple(sorted({p for ev in self.alphabet() for p in ev.channel}))

    def is_sink(self, q: str) -> bool:
        return not self._out[q]

    def is_sink_final(self) -> bool:
        return all((q in self.finals) == self.is_sink(q) for q in self.states)

    def is_deterministic(self) -> bool:
        """No state has two outgoing transitions with the same label."""
        return all(len({ev for ev, _ in out}) == len(out)
                   for out in self._out.values())

    # -- reachability ----------------------------------------------------

    def eps_closure(self, states: Iterable[str]) -> frozenset[str]:
        return eps_closure(states, self._out.__getitem__)

    def reachable_states(self) -> frozenset[str]:
        return frozenset(reachable(
            (self.initial,), lambda q: [dst for _, dst in self._out[q]]))

    def useful_states(self) -> frozenset[str]:
        """States from which some maximal run exists (a final, or a cycle)."""
        return frozenset(maximal_capable(self.states, self.out, self.finals))

    def trim(self) -> "StateMachine":
        """Drop states that are unreachable or admit no maximal run.

        The result remembers that it is trimmed, so trimming it again
        returns it unchanged at no cost."""
        if self._trimmed:
            return self
        keep = self.reachable_states() & self.useful_states()
        if self.initial not in keep:
            # Empty language: keep a lone initial state.
            trimmed = StateMachine({self.initial}, self.initial, frozenset(), ())
        elif keep == self.states:
            trimmed = self
        else:
            trans = [(s, e, d) for s, e, d in self.transitions
                     if s in keep and d in keep]
            trimmed = StateMachine(keep, self.initial, self.finals & keep, trans)
        trimmed._trimmed = True
        return trimmed


# -- graph analyses -----------------------------------------------------
#
# A graph is given as (nodes, out): `out(v)` returns the (label,
# successor) pairs leaving node v, as `StateMachine.out` and
# `csm.ExploreReport.out` do.  A None label is an epsilon edge.


def walk(starts: Iterable, successors) -> Iterator:
    """Yield the starts and every node reachable from one of them, each
    once, breadth first: the starts in order, then the successors of
    each node yielded, in the order `successors(v)` lists them.

    `successors(v)` is called only when the node after v is asked for,
    so a caller that stops reading the walk stops the search there."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for v in order:
        yield v
        for w in successors(v):
            if w not in seen:
                seen.add(w)
                order.append(w)


def reachable(starts: Iterable, successors) -> set:
    """The set of nodes `walk` yields.  Epsilon closures run this on
    graphs of a few nodes, where a generator costs more than the search."""
    seen = set(starts)
    work = list(seen)
    while work:
        for w in successors(work.pop()):
            if w not in seen:
                seen.add(w)
                work.append(w)
    return seen


def eps_closure(starts: Iterable, out) -> frozenset:
    """The nodes `reachable` from the starts along epsilon edges alone."""
    return frozenset(reachable(
        starts, lambda v: [w for ev, w in out(v) if ev is None]))


def subset_moves(nodes: Iterable, out) -> dict:
    """A node set's labelled moves, grouped as event -> set of successors:
    one step of the subset construction, before closing the successors."""
    moves: dict = {}
    for v in nodes:
        for ev, w in out(v):
            if ev is not None:
                moves.setdefault(ev, set()).add(w)
    return moves


def parent_word(parent: Mapping, node) -> Word:
    """The events on the parent chain from the root to `node`, epsilon
    left out; `parent` maps a node to (its parent, the event between)."""
    events = []
    while node in parent:
        node, ev = parent[node]
        if ev is not None:
            events.append(ev)
    return tuple(reversed(events))


def strongly_connected_components(nodes: Iterable, out) -> list:
    """The strongly connected components, as lists of nodes, in the order
    an iterative Tarjan closes them: every component comes before the
    components that reach it."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = 0
    components: list = []
    for v in nodes:
        if v in index:
            continue
        work = [(v, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            outs = out(node)
            while i < len(outs):
                _, w = outs[i]
                i += 1
                if w not in index:
                    work.append((node, i))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if recurse:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def nodes_on_cycles(nodes: Iterable, out) -> set:
    """Nodes lying on some cycle: a component of two or more nodes, or a
    node with a self loop."""
    result: set = set()
    for comp in strongly_connected_components(nodes, out):
        if len(comp) > 1:
            result.update(comp)
        elif any(d == comp[0] for _, d in out(comp[0])):
            result.add(comp[0])
    return result


def backward_closure(nodes: Iterable, out, targets: Iterable) -> set:
    """The targets and every node with a path to one of them."""
    incoming: dict = {}
    for v in nodes:
        for _, w in out(v):
            incoming.setdefault(w, []).append(v)
    return reachable(targets, lambda w: incoming.get(w, ()))


def maximal_capable(nodes: Iterable, out, finals: Iterable) -> set:
    """Nodes from which a maximal run exists: reach a final node or a
    cycle, along `out`, which leads only to nodes.

    When every sink is final, every node can; cycles are looked for only
    when some node reaches no final node."""
    nodes, finals = list(nodes), set(finals)
    if all(v in finals or out(v) for v in nodes):
        return set(nodes)
    capable = backward_closure(nodes, out, finals)
    if len(capable) < len(nodes):
        capable = backward_closure(nodes, out,
                                   capable | nodes_on_cycles(nodes, out))
    return capable


def fer_violation(pending: Iterable, out, nodes: Iterable, finals: Iterable):
    """Feasible eventual reception over a graph whose edges are labelled
    with the channel they receive on, or None.

    `pending` holds (node, channel, backlog) triples.  Returns the first
    node from which no path receives `backlog` messages on `channel` and
    ends in a node that can still reach a maximal run (`maximal_capable`
    over `nodes` with `finals`), or None.  The triples are searched last
    first, and each search stops where an earlier one on its channel
    found how many receives a node's paths can or cannot make.
    """
    capable = maximal_capable(nodes, out, finals)
    made: dict = {}    # channel -> node -> receives a found path makes
    missed: dict = {}  # channel -> node -> receives no path makes
    stuck = None
    for node, channel, backlog in reversed(list(pending)):
        most = made.setdefault(channel, {})
        least = missed.setdefault(channel, {})
        parent = {(node, 0): None}
        work = [(node, 0)]
        while work:
            state = work.pop()
            v, consumed = state
            need = backlog - consumed
            if most.get(v, -1) >= need or (not need and v in capable):
                while state is not None:
                    v, consumed = state
                    most[v] = max(most.get(v, 0), backlog - consumed)
                    state = parent[state]
                break
            if need and least.get(v, need + 1) > need:
                for label, w in out(v):
                    succ = (w, consumed + 1) if label == channel \
                        else (w, consumed)
                    if succ not in parent:
                        parent[succ] = state
                        work.append(succ)
        else:
            stuck = node
            for v, consumed in parent:
                least[v] = min(least.get(v, backlog), backlog - consumed)
    return stuck


# -- channel queues -----------------------------------------------------
#
# Channel contents are kept as a sorted tuple of (channel, non-empty
# message tuple) pairs, so equal contents compare and hash equal.


def queue_get(queues: tuple, channel) -> tuple:
    for ch, content in queues:
        if ch == channel:
            return content
    return ()


def queue_set(queues: tuple, channel, content: tuple) -> tuple:
    rest = [(ch, c) for ch, c in queues if ch != channel]
    if content:
        rest.append((channel, content))
    return tuple(sorted(rest))


def pair_middles(m: StateMachine) -> Iterator[str]:
    """The names `expand_pairs` gives the middle states of `m`'s pairs."""
    states = set(m.states)
    for idx, (src, ev, _) in enumerate(m.transitions):
        if ev is not None and ev.kind == PAIR:
            mid = f"{src}~{idx}"
            while mid in states:
                mid += "'"
            states.add(mid)
            yield mid


def expand_pairs(m: StateMachine) -> StateMachine:
    """Split each paired transition into a send and its immediate receive."""
    if all(ev is None or ev.kind != PAIR for _, ev, _ in m.transitions):
        return m
    middles = pair_middles(m)
    trans: list[Transition] = []
    for src, ev, dst in m.transitions:
        if ev is None or ev.kind != PAIR:
            trans.append((src, ev, dst))
        else:
            mid, (snd, rcv) = next(middles), ev.letters()
            trans += ((src, snd, mid), (mid, rcv, dst))
    expanded = StateMachine(m.states.union(src for src, _, _ in trans),
                            m.initial, m.finals, trans)
    # A pair's middle state is as reachable and useful as its ends.
    expanded._trimmed = m._trimmed
    return expanded


class Compiled:
    """A machine compiled to integers once, for the layers that read it.

    State i < len(names) is `names[i]`, states numbered in sorted name
    order, so that sorting their ids sorts their names; each paired
    transition, in the machine's order, is split through a middle state
    numbered after them, as `expand_pairs` splits it.  `dense` and
    `eps_cycle` are read on the whole machine, the rest on it trimmed:
    `keep` holds the states reachable from `initial` that can reach a
    maximal run (a lone initial state with no final when it cannot),
    `finals` the final ones, `letters[r]` the letter of rank r, letters
    ranked in `Event.sort_key` order, `eps[q]` and `moves[q]` a kept
    state's epsilon successors and (rank, successor) moves, and
    `receive[r]` the rank of the receive of what the send of rank r puts
    on its channel, or -1.

    `Compiled(machine)` compiles a machine, and `Compiled.load` the parts
    it is built from, raising what it would raise: the machine, `source`,
    is then built only when first read.
    """

    __slots__ = ("_source", "names", "initial", "finals", "keep", "letters",
                 "eps", "moves", "receive", "dense", "eps_cycle")

    def __init__(self, machine: StateMachine):
        self._source = machine
        self._build(*machine._key)

    @classmethod
    def load(cls, *parts) -> "Compiled":
        form = cls.__new__(cls)
        form._source = parts
        form._build(*parts)
        return form

    @property
    def source(self) -> StateMachine:
        """The machine compiled."""
        if type(self._source) is tuple:
            self._source = StateMachine(*self._source)
        return self._source

    def _build(self, states, initial, finals, transitions) -> None:
        try:
            # A document lists its states sorted: `sorted` keeps the order
            # in linear time.
            self.names = sorted(dict.fromkeys(states))
            number = dict(zip(self.names, range(len(self.names))))
            final = [number[q] for q in frozenset(finals)]
            self.initial = number[initial]
            # Labels ranked as `_transition_key` orders them, epsilon last,
            # and transitions as int triples that sort as it sorts them.
            events = {id(ev): ev for _, ev, _ in transitions}
            labels = sorted({ev._key: ev for ev in events.values()
                             if ev is not None}.items())
            rank = {key: r for r, (key, _) in enumerate(labels)}
            code = {i: rank[ev._key] if ev is not None else len(labels)
                    for i, ev in events.items()}
            triples = sorted(dict.fromkeys([
                (number[src], code[id(ev)], number[dst])
                for src, ev, dst in transitions]))
        except (KeyError, TypeError):
            # the machine names the fault, as it would have raised it
            StateMachine(states, initial, finals, transitions)
            raise
        # Letters ranked in `Event.sort_key` order, the labels' own unless
        # a pair splits into its send and its receive; each label's first
        # and last letter's rank.
        keyed = labels
        if any(ev.kind == PAIR for _, ev in labels):
            keyed = sorted({letter._key: letter for _, ev in labels
                            for letter in ev.letters()}.items())
            rank = {key: r for r, (key, _) in enumerate(keyed)}
        split = [(rank[ev.letters()[0]._key], rank[ev.letters()[-1]._key])
                 for _, ev in labels]
        out: list = [[] for _ in self.names]  # (rank, successor)
        eps: list = [()] * len(self.names)
        # Trimming walks the named states only: a pair's middle state is
        # kept when both ends are.
        succ: list = [[] for _ in self.names]
        ends: list = []  # a middle state's ends, from the first one's on
        for s, r, d in triples:
            succ[s].append(d)
            if r == len(labels):
                eps[s] = eps[s] + [d] if eps[s] else [d]
                continue
            c, r = split[r]
            if c != r:  # a pair, through a middle state
                out[s].append((c, len(out)))
                ends.append((s, d))
                s = len(out)
                out.append([])
                eps.append(())
            out[s].append((r, d))
        silent = [q for q, e in enumerate(eps) if e]
        self.dense = all(len(out[q]) + len(eps[q]) == 1 for q in silent)
        self.eps_cycle = bool(silent) and bool(nodes_on_cycles(
            silent, lambda q: [(None, d) for d in eps[q]]))
        keep = reach = reachable((self.initial,), succ.__getitem__)
        finals = reach.intersection(final)
        # When every sink is final, every state can reach a maximal run.
        if any(not succ[q] for q in reach.difference(finals)):
            keep = maximal_capable(reach, lambda q: [
                (None, d) for d in succ[q]], finals)
        if self.initial not in keep:
            keep, finals = {self.initial}, set()
        keep.update(mid for mid, (s, d) in enumerate(ends, len(self.names))
                    if s in keep and d in keep)
        self.keep, self.finals = keep, frozenset(finals & keep)
        self.moves, self.eps = out, eps
        if len(keep) < len(out):  # rank the letters left again
            used = sorted({c for q in keep for c, d in out[q] if d in keep})
            ranks = dict(zip(used, range(len(used))))
            keyed = [keyed[c] for c in used]
            rank = {key: r for r, (key, _) in enumerate(keyed)}
            self.moves = [[(ranks[c], d) for c, d in row if d in keep]
                          if q in keep else [] for q, row in enumerate(out)]
            self.eps = [[d for d in e if d in keep] or () if q in keep
                        else () for q, e in enumerate(eps)]
        self.letters = [ev for _, ev in keyed]
        # A receive's key is its send's but for the kind.
        receives = {key[:3] + key[4:]: r for key, r in rank.items()
                    if key[3] == _KIND_ORDER[RECV]}
        self.receive = [receives.get(key[:3] + key[4:], -1)
                        if key[3] == _KIND_ORDER[SEND] else -1 for key in rank]


# -- bounded trace languages -------------------------------------------


class TraceFlags(Record):
    __slots__ = ("complete", "extendable")
    def __init__(self, complete: bool, extendable: bool):
        self.complete, self.extendable = complete, extendable


TraceSet = dict  # Word -> TraceFlags


def bounded_traces(start: Iterable, out, close, is_final, k: int) -> TraceSet:
    """The words of length <= k of a graph read through the subset
    construction, flagged complete and/or extendable.

    A word reaches the node set `close` gives for the start nodes or for
    the `subset_moves` successors of the word before it.  It is complete
    when one of its nodes `is_final`, and extendable when one has a
    labelled move.  Words are listed by length, each length in the order
    of its prefixes and then by `Event.sort_key` of the last letter.
    """
    if k < 0:
        raise ValueError("bound must be non-negative")
    result: TraceSet = {}
    frontier: dict = {(): close(start)}
    for length in range(k + 1):
        nxt: dict = {}
        for word, nodes in frontier.items():
            moves = subset_moves(nodes, out)
            result[word] = TraceFlags(complete=any(map(is_final, nodes)),
                                      extendable=bool(moves))
            if length < k:
                for ev in sorted(moves, key=Event.sort_key):
                    nxt[word + (ev,)] = close(moves[ev])
        frontier = nxt
    return result


def maximal_traces_upto(m: StateMachine, k: int) -> TraceSet:
    """All run traces of length <= k, flagged complete and/or extendable.

    A trace is complete when some run with that trace ends in a final
    state, and extendable when some such run can consume a further
    letter.  Epsilon transitions contribute no letters.
    """
    m = expand_pairs(m)
    return bounded_traces((m.initial,), m.out, m.eps_closure,
                          m.finals.__contains__, k)


# -- serialisation ------------------------------------------------------


class MalformedInput(ValueError):
    """A machine or CSM document, or a type or program text, that does
    not have the shape its reader expects."""


def _fields(data, what: str, *names: str) -> list:
    """The named fields of a JSON object, or MalformedInput."""
    if not isinstance(data, dict):
        raise MalformedInput(f"malformed {what}: expected a JSON object, "
                             f"got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise MalformedInput(f"malformed {what}: no {name!r} field")
    return [data[name] for name in names]


def _payload_from_json(data) -> Payload:
    if data is None:
        return None
    if isinstance(data, dict):
        return StateRef(*_fields(data, "payload", "state"))
    return data


def machine_from_json(data, build=StateMachine):
    """The machine a document that `dump_machine` writes describes, built
    by `build` from its states, initial state, finals and transitions
    (`Compiled.load` compiles them instead); raises MalformedInput on any
    other JSON value."""
    states, initial, finals, raw = _fields(
        data, "machine", "states", "initial", "finals", "transitions")
    events: dict = {}  # an event object's items -> its Event
    odd = False  # some transition names a non-string
    try:
        transitions: list[Transition] = []
        for t in raw:
            try:
                src, event, dst = t["from"], t["event"], t["to"]
            except (KeyError, TypeError):  # no object, or a field missing
                src, event, dst = _fields(t, "transition", "from", "event",
                                          "to")
            try:
                key = tuple(event.items())
                ev = events.get(key, events)  # the dict itself: a miss
            except (AttributeError, TypeError):  # no object, or a payload one
                key = ev = events
            if ev is events:
                (kind,) = _fields(event, "event", "kind")
                ev = None
                if kind != "eps":
                    names = _fields(event, "event", "sender", "receiver",
                                    "label")
                    ev = Event(kind, *names, _payload_from_json(
                        event.get("payload")))
                    odd = odd or {str} != set(map(type, names))
                # Only strings and null: 1, 1.0 and true are equal keys.
                if {str, type(None)}.issuperset(map(type, event.values())):
                    events[key] = ev
            odd = odd or type(src) is not str or type(dst) is not str
            transitions.append((src, ev, dst))
        if not all(type(q) is str for q in states) or odd:
            raise MalformedInput(f"malformed machine: "
                                 f"{_odd_name(states, transitions)!r} is "
                                 f"not a string")
        return build(states, initial, finals, transitions)
    except MalformedInput:
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed machine: {exc}") from None


def load_protocol(text: str) -> Compiled:
    """The compiled form of the machine a document's text describes, with
    the MalformedInput `machine_from_json` would raise, built with no
    machine."""
    return machine_from_json(json.loads(text), Compiled.load)


def _odd_name(states, transitions: list):
    """The first name that is not a string: the states in their order,
    then each transition's, transitions in the order a machine sorts
    them.  A machine would compare such a name with strings in an order
    that follows the hash seed; here it ties after every string, and
    ties keep the document's order."""
    def names(t):
        src, ev, dst = t
        return (src, dst) if ev is None else (
            src, ev.sender, ev.receiver, ev.label, dst)

    ordered = sorted(transitions, key=lambda t: [
        (0, name) if isinstance(name, str) else (1,) for name in names(t)])
    every = [*states, *(name for t in ordered for name in names(t))]
    return next(name for name in every if not isinstance(name, str))


# -- writing documents ------------------------------------------------------
#
# A machine's document is {"finals", "initial", "states", "transitions"},
# its pairs split, and `json.dumps(doc, indent=2, sort_keys=True)` would
# print it with the pure-Python encoder, one generator frame per value.
# The writer below prints the same bytes straight from the machine's
# sorted transitions, names through json's C string quoter, each
# distinct event formatted once per document.

_quote = json.encoder.encode_basestring_ascii


def _event_at(ev: Optional[Event], pad: str) -> str:
    """A transition's event object, printed where it starts at
    indentation `pad`."""
    inner = pad + "  "
    if ev is None:
        return f'{{\n{inner}"kind": "eps"\n{pad}}}'
    payload = ev.payload
    if payload is None:
        payload = "null"
    elif isinstance(payload, StateRef):
        payload = f'{{\n{inner}  "state": {_quote(payload.state)}\n{inner}}}'
    else:
        payload = _quote(payload)
    return (f'{{\n{inner}"kind": {_quote(ev.kind)},\n'
            f'{inner}"label": {_quote(ev.label)},\n'
            f'{inner}"payload": {payload},\n'
            f'{inner}"receiver": {_quote(ev.receiver)},\n'
            f'{inner}"sender": {_quote(ev.sender)}\n{pad}}}')


def _names_at(names: list, pad: str) -> str:
    return (f"[\n{pad}  " + f",\n{pad}  ".join(map(_quote, names))
            + f"\n{pad}]") if names else "[]"


def _machine_at(m: StateMachine, pad: str, events: dict) -> str:
    """`m`'s document, printed where it starts at indentation `pad`;
    `events` maps each event printed at this indentation to its text."""
    m = expand_pairs(m)
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    rows = []
    for src, ev, dst in m.transitions:
        text = events.get(ev)
        if text is None:
            text = events[ev] = _event_at(ev, p3)
        rows.append(f'{p2}{{\n{p3}"event": {text},\n{p3}"from": '
                    f'{_quote(src)},\n{p3}"to": {_quote(dst)}\n{p2}}}')
    return (f'{{\n{p1}"finals": {_names_at(sorted(m.finals), p1)},\n'
            f'{p1}"initial": {_quote(m.initial)},\n'
            f'{p1}"states": {_names_at(sorted(m.states), p1)},\n'
            f'{p1}"transitions": '
            + ("[\n" + ",\n".join(rows) + f"\n{p1}]" if rows else "[]")
            + f"\n{pad}}}")


def dump_machine(m: StateMachine) -> str:
    return _machine_at(m, "", {}) + "\n"
