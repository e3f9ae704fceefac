"""The loader as it stood before protocols were loaded straight into
the compiled form: `machine_from_json`, which built a `StateMachine`
from a document, with its `_odd_name`; `Compiled`, which compiled such
a machine, numbering states by name and coding letters by object; and
the type tokenizer's constructor, which matched one token at a time
(as `Tokens`).  Kept as a test-only reference, verbatim but for
absolute imports and that name.  `test_compiled_loader.py` requires
`core.load_protocol`, `transform.compile_global` and `core.Compiled` to
give the same form, field for field, and the same `MalformedInput`
text, and `transform._Tokens` the same tokens or `TypeSyntaxError`.
"""

from __future__ import annotations

import re

from amp.core import (_KIND_ORDER, PAIR, RECV, SEND, Event, MalformedInput,
                      StateMachine, Transition, _fields, _payload_from_json,
                      maximal_capable, nodes_on_cycles, reachable)
from amp.transform import TypeSyntaxError


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
    """

    __slots__ = ("source", "names", "initial", "finals", "keep", "letters",
                 "eps", "moves", "receive", "dense", "eps_cycle")

    def __init__(self, machine: StateMachine):
        self.source = machine
        self.names = sorted(machine.states)
        number = {q: i for i, q in enumerate(self.names)}
        out: list = [[] for _ in self.names]  # (letter's code, successor)
        eps: list = [[] for _ in self.names]
        # Trimming walks the named states only: a pair's middle state is
        # kept when both ends are.
        succ: list = [[] for _ in self.names]
        ends: list = []  # a middle state's ends, from the first one's on
        # Letters are coded by object, which a Python-level hash would
        # cost once per transition; equal letters are ranked together.
        code: dict = {}  # id(letter) -> its index in `seen`
        seen: list = []
        for src, ev, dst in machine.transitions:
            s, d = number[src], number[dst]
            succ[s].append(d)
            if ev is None:
                eps[s].append(d)
                continue
            if ev.kind == PAIR:
                snd, ev = ev.letters()
                c = code.get(id(snd))
                if c is None:
                    c = code[id(snd)] = len(seen)
                    seen.append(snd)
                out[s].append((c, len(out)))
                ends.append((s, d))
                s = len(out)
                out.append([])
                eps.append(())
            c = code.get(id(ev))
            if c is None:
                c = code[id(ev)] = len(seen)
                seen.append(ev)
            out[s].append((c, d))
        self.dense = all(len(o) + len(e) == 1 or not e
                         for o, e in zip(out, eps))
        self.eps_cycle = any(eps) and bool(nodes_on_cycles(
            [q for q, e in enumerate(eps) if e],
            lambda q: [(None, d) for d in eps[q]]))
        self.initial = number[machine.initial]
        keep = reach = reachable((self.initial,), succ.__getitem__)
        finals = reach.intersection(map(number.__getitem__, machine.finals))
        # When every sink is final, every state can reach a maximal run.
        if any(not succ[q] for q in reach.difference(finals)):
            keep = maximal_capable(reach, lambda q: [
                (None, d) for d in succ[q]], finals)
        if self.initial not in keep:
            keep, finals = {self.initial}, set()
        keep.update(mid for mid, (s, d) in enumerate(ends, len(self.names))
                    if s in keep and d in keep)
        self.keep, self.finals = keep, frozenset(finals & keep)
        whole = len(keep) == len(out)
        used = seen if whole else [seen[c] for c in {
            c for q in keep for c, d in out[q] if d in keep}]
        keyed = sorted({ev._key: ev for ev in used}.items())
        self.letters = [ev for _, ev in keyed]
        rank = {key: r for r, (key, _) in enumerate(keyed)}
        ranks = [rank.get(ev._key, -1) for ev in seen]
        self.moves = [[(ranks[c], d) for c, d in row] for row in out] \
            if whole else [[(ranks[c], d) for c, d in row if d in keep]
                           if q in keep else [] for q, row in enumerate(out)]
        self.eps = [e or () for e in eps] if whole else [
            [d for d in e if d in keep] or () if q in keep else ()
            for q, e in enumerate(eps)]
        # A receive's key is its send's but for the kind.
        receives = {key[:3] + key[4:]: r for key, r in rank.items()
                    if key[3] == _KIND_ORDER[RECV]}
        self.receive = [receives.get(key[:3] + key[4:], -1)
                        if key[3] == _KIND_ORDER[SEND] else -1 for key in rank]


def machine_from_json(data) -> StateMachine:
    """The machine a document that `dump_machine` writes describes;
    raises MalformedInput on any other JSON value."""
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<sym>[().+:]|rec\b)|(?P<word>[^\s().+:<>-]+)"
    r"|(?P<payload><[^>]*>))")


class Tokens:
    def __init__(self, text: str, operators: tuple = ()):
        self.tokens: list[str] = []
        self.words: list[bool] = []  # whether each token can be a name
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise TypeSyntaxError(f"stray input at {text[pos:pos+20]!r}")
                break
            token = m.group().strip()
            self.tokens.append(token)
            self.words.append(m.lastgroup == "word" and token not in operators)
            pos = m.end()
        self.pos = 0
