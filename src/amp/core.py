"""Events, finite state machines, bounded trace languages, and machine I/O.

Everything downstream (protocol validation, communicating machines,
projection, the type checker) is built on the two types defined here:
`Event` and `StateMachine`.  Machines are immutable once constructed and
all derived data is precomputed, so they are safe to share freely.

The graph-analysis section holds the one copy of each walker that the
other layers share, for any graph given as nodes and an out-edge
function: state machines, protocol configuration graphs and compiled
CSMs alike.  `walk` is the one breadth-first search; the other layers'
searches are successor functions that it drives.  `reachable` finds
the set `walk` yields with a loop of its own, since epsilon closures run
it on tiny graphs once per subset move, and `eps_closure` and
`backward_closure` run it forwards and backwards.  Outside `walk` stay
`csm.explore` (it fills the packed kernel's arrays),
`psm.build_config_graph` (it raises with a witness mid-walk),
`fer_violation` (slower on `walk`), `fifo.closure_upto` (it counts
against its cap), `bounded_traces` (it keeps words, not nodes),
`projection.Subsets` and the class numbering of `projection.minimize`
(they number nodes as they find them) and the depth-first Tarjan,
`psm._simple_cycles` and `transform` postorder.
`subset_moves` is the step of the subset construction, which the
bounded oracle reads machines through (projection and PSM validation
run their own on integer states, `projection.Subsets` and
`psm.build_config_graph`);
`bounded_traces` lists the words of length up to k of such a
determinised walk; `parent_word` reads a witness off a breadth-first
parent chain; `strongly_connected_components` is the one Tarjan; and
`nodes_on_cycles`, `maximal_capable` and `fer_violation` answer "can
this node still reach a maximal run?" and "can every pending message
still be received?"; `fer_violation` reads edges labelled with the
channel they receive on, or None.  The channel-queue and payload-key
helpers shared by those layers live here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

SEND = "send"
RECV = "recv"
PAIR = "pair"

_KIND_ORDER = {SEND: 0, RECV: 1, PAIR: 2}


@dataclass(frozen=True)
class StateRef:
    """A machine-state used as a payload type (for delegation)."""

    state: str

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


@dataclass(frozen=True)
class Event:
    """A send, receive, or paired message exchange over one channel.

    ``send`` means `sender` enqueues `label` on channel (sender, receiver);
    ``recv`` means `receiver` dequeues it; ``pair`` is the two in immediate
    succession and expands to two letters in any trace.
    """

    kind: str
    sender: str
    receiver: str
    label: str
    payload: Payload = None
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (SEND, RECV, PAIR):
            raise ValueError(f"bad event kind {self.kind!r}")
        if not self.sender or not self.receiver or self.label is None:
            raise ValueError("events need a sender, receiver, and label")
        if self.sender == self.receiver:
            raise ValueError(f"self-channel event {self.sender}>{self.receiver}")
        # Injective, since `payload_key` is: equal keys mean equal events.
        object.__setattr__(self, "_key", (
            self.sender, self.receiver, self.label, _KIND_ORDER[self.kind],
            payload_key(self.payload)))
        # Events key dicts and sets in every inner loop: hash them once.
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A string's hash differs between processes: recompute on loading.
        return (Event, (self.kind, self.sender, self.receiver, self.label,
                        self.payload))

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
        if "_letters" not in self.__dict__:
            self.__dict__["_letters"] = (
                Event(SEND, self.sender, self.receiver, self.label, self.payload),
                Event(RECV, self.sender, self.receiver, self.label, self.payload))
        return self.__dict__["_letters"]

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
    return (src, (1,) if ev is None else (0,) + ev.sort_key(), dst)


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
        self.transitions = tuple(sorted(set(transitions), key=_transition_key))
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
        seen = set()
        for ev in self.alphabet():
            seen.add(ev.sender)
            seen.add(ev.receiver)
        return tuple(sorted(seen))

    def is_sink(self, q: str) -> bool:
        return not self._out[q]

    def is_sink_final(self) -> bool:
        return all((q in self.finals) == self.is_sink(q) for q in self.states)

    def is_dense(self) -> bool:
        """Epsilon transitions are only allowed as a state's sole exit."""
        for q in self.states:
            outs = self._out[q]
            if any(ev is None for ev, _ in outs) and len(outs) != 1:
                return False
        return True

    def is_deterministic(self) -> bool:
        """No state has two outgoing transitions with the same label."""
        for q in self.states:
            labels = [ev for ev, _ in self._out[q]]
            if len(labels) != len(set(labels)):
                return False
        return True

    def immediate_receive(self, ev: Event, dst: str) -> Optional[str]:
        """Where the matching receive leads when it is the only exit of
        `dst`, the target of the send `ev`; None otherwise."""
        outs = self._out[dst]
        if len(outs) == 1 and outs[0][0] is not None \
                and outs[0][0].kind == RECV \
                and outs[0][0].channel == ev.channel \
                and outs[0][0].message() == ev.message():
            return outs[0][1]
        return None

    def has_pure_eps_cycle(self) -> bool:
        """Detect a cycle consisting solely of epsilon transitions."""
        eps: dict = {}
        for src, ev, dst in self.transitions:
            if ev is None:
                eps.setdefault(src, []).append((None, dst))
        return bool(nodes_on_cycles(eps, lambda q: eps.get(q, ())))

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
    """Nodes from which a maximal run exists: reach a final node or a cycle.

    Cycles are looked for only when some node reaches no final node."""
    nodes = list(nodes)
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


def expand_pairs(m: StateMachine) -> StateMachine:
    """Split each paired transition into a send and its immediate receive."""
    if all(ev is None or ev.kind != PAIR for _, ev, _ in m.transitions):
        return m
    states = set(m.states)
    trans: list[Transition] = []
    for idx, (src, ev, dst) in enumerate(m.transitions):
        if ev is None or ev.kind != PAIR:
            trans.append((src, ev, dst))
            continue
        mid = f"{src}~{idx}"
        while mid in states:
            mid += "'"
        states.add(mid)
        snd, rcv = ev.letters()
        trans.append((src, snd, mid))
        trans.append((mid, rcv, dst))
    expanded = StateMachine(states, m.initial, m.finals, trans)
    # A pair's middle state is as reachable and useful as its ends.
    expanded._trimmed = m._trimmed
    return expanded


# -- bounded trace languages -------------------------------------------


@dataclass(frozen=True)
class TraceFlags:
    complete: bool
    extendable: bool


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


def _payload_to_json(payload: Payload):
    if payload is None:
        return None
    if isinstance(payload, StateRef):
        return {"state": payload.state}
    return payload


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


def machine_to_json(m: StateMachine) -> dict:
    m = expand_pairs(m)
    transitions = []
    for src, ev, dst in m.transitions:
        if ev is None:
            event = {"kind": "eps"}
        else:
            event = {
                "kind": ev.kind,
                "sender": ev.sender,
                "receiver": ev.receiver,
                "label": ev.label,
                "payload": _payload_to_json(ev.payload),
            }
        transitions.append({"from": src, "event": event, "to": dst})
    return {
        "states": sorted(m.states),
        "initial": m.initial,
        "finals": sorted(m.finals),
        "transitions": transitions,
    }


def machine_from_json(data) -> StateMachine:
    """The machine a `machine_to_json` document describes; raises
    MalformedInput on any other JSON value."""
    states, initial, finals, raw = _fields(
        data, "machine", "states", "initial", "finals", "transitions")
    events: dict = {}  # an event object's items -> its Event
    try:
        transitions: list[Transition] = []
        for t in raw:
            src, event, dst = _fields(t, "transition", "from", "event", "to")
            try:
                key = tuple(event.items())
                ev = events.get(key, events)  # the dict itself: a miss
            except (AttributeError, TypeError):  # no object, or a payload one
                key = ev = events
            if ev is events:
                (kind,) = _fields(event, "event", "kind")
                ev = None if kind == "eps" else Event(
                    kind, *_fields(event, "event", "sender", "receiver",
                                   "label"),
                    _payload_from_json(event.get("payload")))
                # Only strings and null: 1, 1.0 and true are equal keys.
                if {str, type(None)}.issuperset(map(type, event.values())):
                    events[key] = ev
            transitions.append((src, ev, dst))
        names = list(states)
        for src, ev, dst in transitions:
            names += (src, dst) if ev is None else (
                src, dst, ev.sender, ev.receiver, ev.label)
        if not set(map(type, names)) <= {str}:
            raise MalformedInput(f"malformed machine: "
                                 f"{_odd_name(states, transitions)!r} is "
                                 f"not a string")
        return StateMachine(states, initial, finals, transitions)
    except MalformedInput:
        raise
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"malformed machine: {exc}") from None


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
# `json.dumps(doc, indent=2, sort_keys=True)` runs the pure-Python encoder,
# one generator frame per value.  The writer below knows the shape of a
# `machine_to_json` document and prints the same bytes with the C string
# quoter, formatting each distinct event once per document.

_quote = json.encoder.encode_basestring_ascii


def _json_at(value, pad: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` prints it
    where it starts at indentation `pad`."""
    if value is None:
        return "null"
    if type(value) is str:
        return _quote(value)
    inner = pad + "  "
    if type(value) is list and value:
        items = (map(_quote, value) if all(type(v) is str for v in value)
                 else [_json_at(v, inner) for v in value])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(value) is dict and value \
            and all(type(key) is str for key in value):
        return (f"{{\n{inner}" + f",\n{inner}".join(
            [f"{_quote(key)}: {_json_at(item, inner)}"
             for key, item in sorted(value.items())]) + f"\n{pad}}}")
    # Numbers, empty containers and the like: json's own text, moved
    # to `pad`.
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + pad)


def _machine_at(doc: dict, pad: str, events: dict) -> str:
    """A `machine_to_json` document as `_json_at` prints it.  `events`
    maps an event object's items to its text at this indentation."""
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    transitions = []
    for t in doc["transitions"]:
        event = t["event"]
        key = tuple(event.items())
        try:
            text = events.get(key)
        except TypeError:  # a payload object, which cannot be a key
            text = None
        if text is None:
            text = _json_at(event, p3)
            # Only strings and null: 1, 1.0 and true are equal keys.
            if all(v is None or type(v) is str for v in event.values()):
                events[key] = text
        src, dst = t["from"], t["to"]
        src = _quote(src) if type(src) is str else _json_at(src, p3)
        dst = _quote(dst) if type(dst) is str else _json_at(dst, p3)
        transitions.append(f"{p2}{{\n{p3}\"event\": {text},\n"
                           f"{p3}\"from\": {src},\n{p3}\"to\": {dst}\n{p2}}}")
    return (f"{{\n{p1}\"finals\": {_json_at(doc['finals'], p1)},\n"
            f"{p1}\"initial\": {_json_at(doc['initial'], p1)},\n"
            f"{p1}\"states\": {_json_at(doc['states'], p1)},\n"
            f"{p1}\"transitions\": "
            + ("[\n" + ",\n".join(transitions) + f"\n{p1}]"
               if transitions else "[]")
            + f"\n{pad}}}")


def machine_json_text(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` for a `machine_to_json`
    document."""
    return _machine_at(doc, "", {})


def machines_json_text(docs: dict) -> str:
    """`json.dumps(docs, indent=2, sort_keys=True)` for a mapping of names
    to `machine_to_json` documents, such as a CSM's."""
    if not docs:
        return "{}"
    events: dict = {}
    return ("{\n" + ",\n".join(f"  {_quote(name)}: "
                               f"{_machine_at(docs[name], '  ', events)}"
                               for name in sorted(docs)) + "\n}")


def dump_machine(m: StateMachine) -> str:
    return machine_json_text(machine_to_json(m)) + "\n"


def load_machine(text: str) -> StateMachine:
    return machine_from_json(json.loads(text))


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def machine_to_dot(m: StateMachine, name: str = "machine") -> str:
    # DOT reads `__start` and `"__start"` as one node: the start marker
    # takes a name that no state has.
    start = "__start"
    while start in m.states:
        start += "_"
    lines = [f"digraph {_dot_quoted(name)} {{", "  rankdir=LR;",
             f"  {start} [shape=point];"]
    for q in sorted(m.states):
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f"  {_dot_quoted(q)} [shape={shape}];")
    lines.append(f"  {start} -> {_dot_quoted(m.initial)};")
    for src, ev, dst in m.transitions:
        label = "ε" if ev is None else str(ev)
        lines.append(f"  {_dot_quoted(src)} -> {_dot_quoted(dst)} "
                     f"[label={_dot_quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
