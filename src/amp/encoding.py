"""The channel-participant encoding.

A compiled protocol (`core.Compiled`) is read with each send on an
unbounded channel joined to its immediate receive (`Fused`), the form
that projection reads; `merge_immediate_pairs` writes it out as a
machine where one is needed.  Bounded channels are rewritten to route
each message through a ring of forwarder participants, one per buffer
slot, turning deferred receives into immediately-received exchanges.
Protocol machines are encoded (`encode_psm`), walking ring counters
only where a ring has two or more slots.  Events over the forwarders
are decoded back to the original channels one at a time
(`decode_event`, which projection reads through one table per
protocol), or a whole machine at once (`decode_fsm`).
Amicability (`is_amicable`) is decided on the projected components as
`projection.minimize` returns them, moves by letter rank over integer
classes, with the forwarders taken from the bounds, not from names.  The
encoding of single words and of one participant's machine is kept as a
test-only check in `tests/semantics.py`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import (Compiled, Event, PAIR, RECV, SEND, StateMachine,
                   expand_pairs, pair, recv, send, walk)

Channel = tuple[str, str]

_CP_RE = re.compile(r"^\((?P<src>[^,()]+),(?P<dst>[^,()]+)\)(?P<idx>\d+)$")


@dataclass(frozen=True)
class ChannelParticipant:
    """Forwarder number `index` for the channel source -> target."""

    source: str
    target: str
    index: int

    @property
    def name(self) -> str:
        return f"({self.source},{self.target}){self.index}"


def parse_channel_participant(name: str) -> Optional[ChannelParticipant]:
    m = _CP_RE.match(name)
    if not m:
        return None
    return ChannelParticipant(m["src"], m["dst"], int(m["idx"]))


def channel_participants(bounds: dict) -> tuple[ChannelParticipant, ...]:
    cps = []
    for (p, q), b in sorted(bounds.items()):
        cps.extend(ChannelParticipant(p, q, i) for i in range(b))
    return tuple(cps)


# -- protocol machine encoding ---------------------------------------------


class Fused:
    """A compiled protocol (`core.Compiled`), trimmed, with each send on
    an unbounded channel, and each pair that compiling split, joined to
    its immediate receive: the protocol that `merge_immediate_pairs`
    writes, on the compiled form's ints.

    `states` lists, in name order, the kept states that no joined send
    enters, each numbered as the form numbers it, so `names[q]` names
    state q.  `out[q]` lists state q's transitions, each once, as
    (sender, receiver, send rank, receive rank, successor): a joined
    exchange has both ranks, a send or receive left alone has -1 for the
    other, and an epsilon move has -1 for all four; any other state has
    none.  `letters[r]` is the letter of rank r, letters ranked in
    `Event.sort_key` order, and `participants` numbers the names of the
    senders and receivers.  `deterministic` holds when no state has two
    transitions with the same letters.

    Raises ValueError, as `merge_immediate_pairs` reports it, on a send
    to join whose target does not leave by its receive alone, and on a
    state that such a send enters and another transition enters too.
    """

    __slots__ = ("names", "states", "initial", "finals", "out", "letters",
                 "participants", "deterministic")

    def __init__(self, form: Compiled, bounds: dict):
        moves, eps, receive = form.moves, form.eps, form.receive
        self.letters = letters = form.letters
        self.participants = people = {p: i for i, p in enumerate(sorted(
            {ev.sender for ev in letters} | {ev.receiver for ev in letters}))}
        who = [(people[ev.sender], people[ev.receiver]) for ev in letters]
        alone = [who[r] + ((r, -1) if ev.kind == SEND else (-1, r))
                 for r, ev in enumerate(letters)]
        join = [ev.kind == SEND and not (bounds and ev.channel in bounds)
                for ev in letters]
        split = len(form.names)  # a pair's middle state is numbered here on
        self.out = out = [[] for _ in range(split)]
        self.deterministic = True
        entered = bytearray(split)
        dropped = set()
        for q in sorted(form.keep):
            if q >= split:  # a pair's middle state: only its receive enters
                entered[moves[q][0][1]] = 1
                continue
            row = out[q]
            for r, d in moves[q]:
                if join[r] or d >= split:
                    after = moves[d]
                    if len(after) != 1 or eps[d] or after[0][0] != receive[r]:
                        raise ValueError(f"send {letters[r]} on unbounded "
                                         f"channel lacks an immediate receive")
                    row.append(who[r] + (r,) + after[0])
                    if d < split:
                        dropped.add(d)
                else:
                    row.append(alone[r] + (d,))
                    entered[d] = 1
            for d in eps[q]:
                row.append((-1, -1, -1, -1, d))
                entered[d] = 1
            if len(row) > 1:
                row[:] = dict.fromkeys(row)
                if len({move[2:4] for move in row}) < len(row):
                    self.deterministic = False
        if any(entered[d] for d in dropped):
            # the first such state in the order of the machine's transitions
            names = {form.names[q] for q in dropped}
            mixed = next(dst for _, ev, dst in expand_pairs(
                form.source).trim().transitions if dst in names and (
                    ev is None or ev.kind != SEND or ev.channel in bounds))
            raise ValueError(f"state {mixed} mixes paired and other traffic")
        for d in dropped:
            out[d] = ()
        self.names = form.names
        self.states = [q for q in sorted(form.keep)
                       if q < split and q not in dropped]
        self.initial = form.initial
        self.finals = form.finals.difference(dropped)

    def machine(self) -> StateMachine:
        """The fused protocol as a machine, a joined send and receive as
        their pair, one per distinct send."""
        joined: dict = {}  # send rank -> its pair

        def event(snd: int, rcv: int) -> Optional[Event]:
            if snd < 0 or rcv < 0:
                return None if snd == rcv else self.letters[max(snd, rcv)]
            if snd not in joined:
                ev = self.letters[snd]
                joined[snd] = pair(ev.sender, ev.receiver, ev.label,
                                   ev.payload)
            return joined[snd]

        names = self.names
        merged = StateMachine([names[q] for q in self.states],
                              names[self.initial],
                              [names[q] for q in self.finals],
                              [(names[q], event(snd, rcv), names[d])
                               for q in self.states
                               for _, _, snd, rcv, d in self.out[q]])
        # Trimmed: a dropped state lay between a send and its receive,
        # which are now one move.
        merged._trimmed = True
        return merged


def merge_immediate_pairs(form: Compiled, bounds: dict) -> StateMachine:
    """The compiled protocol, trimmed, with send transitions on unbounded
    channels fused with their immediate receives into paired events,
    one per distinct send; bounded-channel events stay separate, and a
    pair of the compiled machine stays a pair."""
    return Fused(form, bounds).machine()


def _counter_state(q: str, snd: tuple, rcv_: tuple) -> str:
    def fmt(tag: str, items: tuple) -> str:
        return tag + ",".join(f"({p},{r})={v}" for (p, r), v in items)

    parts = [q]
    if snd:
        parts.append(fmt("s:", snd))
    if rcv_:
        parts.append(fmt("r:", rcv_))
    return "|".join(parts)


def _thread_counters(machine: StateMachine, bounds: dict, out_channels: tuple,
                     in_channels: tuple, hop) -> StateMachine:
    """Breadth-first product of `machine` with ring counters.

    Each state carries a send counter per channel in `out_channels` and a
    receive counter per channel in `in_channels`.  `hop(ev, cp)` gives the
    exchange with forwarder `cp`, the one at the current counter, that
    replaces the send or receive `ev` and advances its counter, or None to
    keep `ev` and the counters as they are.  Only states with every counter
    at zero stay final.
    """
    moves: dict = {}  # node -> its (label, successor) moves

    def successors(node):
        q, snd, rcv_ = node
        out = moves[node] = []
        for ev, dst in machine.out(q):
            label, succ = ev, (dst, snd, rcv_)
            if ev is not None:
                sending = ev.kind == SEND
                counters = snd if sending else rcv_
                idx = dict(counters).get(ev.channel, 0)
                rerouted = hop(ev, ChannelParticipant(*ev.channel, idx).name)
                if rerouted is not None:
                    label = rerouted
                    ticked = tuple(
                        (ch, (v + 1) % bounds[ch] if ch == ev.channel else v)
                        for ch, v in counters)
                    succ = (dst, ticked, rcv_) if sending else (dst, snd, ticked)
            out.append((label, succ))
        return [succ for _, succ in out]

    zero_out = tuple((ch, 0) for ch in out_channels)
    zero_in = tuple((ch, 0) for ch in in_channels)
    start = (machine.initial, zero_out, zero_in)
    name = {node: _counter_state(*node) for node in walk((start,), successors)}
    finals = [n for (q, snd, rcv_), n in name.items()
              if q in machine.finals and snd == zero_out and rcv_ == zero_in]
    return StateMachine(name.values(), name[start], finals,
                        [(name[node], label, name[succ])
                         for node, out in moves.items() for label, succ in out])


def encode_psm(machine: StateMachine, bounds: dict) -> StateMachine:
    """Encode a protocol machine into one over the extended alphabet.

    States carry ring counters for each bounded channel; transitions on
    bounded channels become paired exchanges with the forwarder at the
    current counter.  With no ring of two or more slots no counter moves,
    so the merged machine is relabelled, or kept where no event needs
    that, as with empty bounds.
    """
    machine = merge_immediate_pairs(Compiled(machine), bounds)
    channels = tuple(sorted(ch for ch, b in bounds.items() if b >= 2))

    hops: dict = {}  # (event, forwarder) -> their exchange

    def hop(ev: Event, cp: str) -> Optional[Event]:
        if ev.kind != PAIR and (ev, cp) not in hops:
            hops[ev, cp] = (pair(ev.sender, cp, ev.label, ev.payload)
                            if ev.kind == SEND else
                            pair(cp, ev.receiver, ev.label, ev.payload))
        return hops.get((ev, cp))

    if channels:
        return _thread_counters(machine, bounds, channels, channels, hop)
    if all(ev is None or ev.kind == PAIR for _, ev, _ in machine.transitions):
        return machine
    return StateMachine(machine.states, machine.initial, machine.finals, [
        (src, None if ev is None else
         hop(ev, ChannelParticipant(*ev.channel, 0).name) or ev, dst)
        for src, ev, dst in machine.transitions])


# -- per-participant machines ----------------------------------------------


def decode_event(ev: Optional[Event]) -> Optional[Event]:
    """A participant's send to a forwarder, or receive from one, as the
    event on the original channel; any other event as it is."""
    if ev is None:
        return None
    cp_recv = parse_channel_participant(ev.receiver)
    cp_send = parse_channel_participant(ev.sender)
    if ev.kind == SEND and cp_recv is not None:
        return send(cp_recv.source, cp_recv.target, ev.label, ev.payload)
    if ev.kind == RECV and cp_send is not None:
        return recv(cp_send.source, cp_send.target, ev.label, ev.payload)
    return ev


def decode_fsm(machine: StateMachine) -> StateMachine:
    """Rebend forwarder events back to the original channels, keeping states."""
    return StateMachine(machine.states, machine.initial, machine.finals,
                        [(src, decode_event(ev), dst)
                         for src, ev, dst in machine.transitions])


# -- amicability -------------------------------------------------------------


def is_amicable(components: dict, letters: list, bounds: dict) -> bool:
    """Whether each forwarder can serve its sender, on runs of any length.

    `components[name][i]` lists the (rank, class) moves of class i of a
    participant's or forwarder's component over `letters`, class 0
    initial, as `projection.Classes.moves` holds them: deterministic,
    with no epsilon move.  The forwarders are found from `bounds`, not
    by name.  Each must be forwarding.  Each sender is then run in
    product with a ring counter per family of forwarder letters (its
    sends to the forwarders of one channel, its receives from those of
    another) and with the classes of the forwarders it sends to: on
    every path it must use the ring slots of each family in order, and
    send a forwarder only a message that the forwarder can receive and
    pass on at that point.
    """
    by_name = {cp.name: cp for cp in channel_participants(bounds)}
    passes: dict = {}  # forwarder -> {(class, message): class after}
    served: dict = {}  # sender -> its forwarders
    for name, cp in by_name.items():
        if name in components:
            passes[name] = _passes(components[name], letters, cp)
            if passes[name] is None:
                return False
            if cp.source in components:
                served.setdefault(cp.source, []).append(name)
    # The slots each letter takes, as (family, index, bound), one per end
    # that is a forwarder: a family is its channel, the kind and that end.
    families: dict = {}
    slots = [[(families.setdefault((cp.source, cp.target, ev.kind, end),
                                   len(families)),
               cp.index, bounds[cp.source, cp.target])
              for end, cp in (("in", by_name.get(ev.receiver)),
                              ("out", by_name.get(ev.sender)))
              if cp is not None] for ev in letters]
    return all(_serves(components[sender], forwarders, letters, slots,
                       len(families), passes)
               for sender, forwarders in served.items())


def _passes(moves: list, letters: list,
            cp: ChannelParticipant) -> Optional[dict]:
    """Where forwarder `cp` is after it receives message m at class i and
    passes it on, keyed (i, m); None if some run of it does not
    alternate receiving a message and passing it on."""
    held = {0: None}  # class -> the message it holds, or None

    def successors(i: int):
        """The classes after i, or None after a step that breaks the
        alternation."""
        for rank, j in moves[i]:
            ev = letters[rank]
            if held[i] is None:
                ok = (ev.kind == RECV and ev.sender == cp.source
                      and ev.receiver == cp.name)
                nxt = ev.message()
            else:
                ok = (ev.kind == SEND and ev.sender == cp.name
                      and ev.receiver == cp.target
                      and ev.message() == held[i])
                nxt = None
            if not ok or held.setdefault(j, nxt) != nxt:
                yield None
                return
            yield j

    if None in walk((0,), successors):
        return None
    # A class that holds a message has one move: the send of it.
    return {(i, letters[rank].message()): k for i, m in held.items()
            if m is None for rank, j in moves[i] for _, k in moves[j]}


def _serves(moves: list, forwarders: list, letters: list, slots: list,
            families: int, passes: dict) -> bool:
    """Whether the sender with the moves `moves` keeps ring order and
    sends `forwarders` only what they can pass on, on every path."""
    place = {name: i for i, name in enumerate(forwarders)}

    def successors(node):
        """The nodes after `node`, or None after a step out of ring
        order or to a forwarder that cannot take it."""
        q, ring, held = node
        for rank, dst in moves[q]:
            counters, after = list(ring), list(held)
            for family, index, bound in slots[rank]:
                if index != counters[family]:
                    yield None
                    return
                counters[family] = (index + 1) % bound
            ev = letters[rank]
            if ev.kind == SEND and ev.receiver in place:
                i = place[ev.receiver]
                after[i] = passes[ev.receiver].get((held[i], ev.message()))
                if after[i] is None:
                    yield None
                    return
            yield dst, tuple(counters), tuple(after)

    start = (0, (0,) * families, (0,) * len(forwarders))
    return None not in walk((start,), successors)
