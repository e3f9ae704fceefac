"""The channel-participant encoding.

Bounded channels are rewritten to route each message through a ring of
forwarder participants, one per buffer slot, turning deferred receives
into immediately-received exchanges.  Protocol machines are encoded
(`encode_psm`), walking ring counters only where a ring has two or more
slots.  Events over the forwarders are decoded back to the original
channels one at a time (`decode_event`, which projection reads through
one table per protocol), or a whole machine at once (`decode_fsm`).
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

from .core import (Event, PAIR, RECV, SEND, StateMachine, pair, recv, send,
                   walk)

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


def merge_immediate_pairs(machine: StateMachine, bounds: dict) -> StateMachine:
    """Fuse send transitions on unbounded channels with their immediate
    receives into paired events, one per distinct send; bounded-channel
    events stay separate."""
    fused: dict = {}  # send -> its pair
    transitions, drop, entered = [], set(), []
    for src, ev, dst in machine.transitions:
        if ev is None or ev.kind != SEND or ev.channel in bounds:
            transitions.append((src, ev, dst))
            entered.append(dst)
            continue
        after = machine.immediate_receive(ev, dst)
        if after is None:
            raise ValueError(
                f"send {ev} on unbounded channel lacks an immediate receive")
        if ev not in fused:
            fused[ev] = pair(ev.sender, ev.receiver, ev.label, ev.payload)
        transitions.append((src, fused[ev], after))
        drop.add(dst)
    mixed = next((q for q in entered if q in drop), None)
    if mixed is not None:
        raise ValueError(f"state {mixed} mixes paired and other traffic")
    states = machine.states - frozenset(drop)
    merged = StateMachine(states, machine.initial, machine.finals & states,
                          [t for t in transitions if t[0] not in drop])
    # A dropped state lay between a send and its receive, which are now
    # one move: a trimmed machine stays trimmed.
    merged._trimmed = machine._trimmed
    return merged.trim()


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
    machine = merge_immediate_pairs(machine, bounds)
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
