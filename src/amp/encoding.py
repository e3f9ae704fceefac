"""The channel-participant encoding.

A compiled protocol (`core.Compiled`) is read with each send on an
unbounded channel joined to its immediate receive (`Fused`), the form
that projection reads; `merge_immediate_pairs` writes it out as a
machine.  Bounded channels are rewritten to route each message through
a ring of forwarder participants, one per buffer slot, turning deferred
receives into immediately-received exchanges: `encode_psm` walks the
fused view's product with the ring counters on ints, and returns it in
`Fused`'s form, with the table that reads each letter back on the
protocol's channels.  `Fused.machine` writes either form out.  Names
are parsed only where they come from outside: by `decode_fsm`, on a
machine read from a file, and by `forwarder_named`.  Amicability
(`is_amicable`) is decided on the projected components as
`projection.minimize` returns them, moves by letter rank over integer
classes, with the forwarders taken from the bounds, not from names.  The
encoding of single words and of one participant's machine is kept as a
test-only check in `tests/semantics.py`.
"""

from __future__ import annotations

import re
from typing import Optional

from .core import (Compiled, Event, RECV, Record, SEND, StateMachine,
                   _transition_key, pair, pair_middles, recv, send, walk)

Channel = tuple[str, str]

_CP_RE = re.compile(r"^\((?P<src>[^,()]+),(?P<dst>[^,()]+)\)(?P<idx>\d+)$")


class ChannelParticipant(Record):
    """Forwarder number `index` for the channel source -> target."""

    __slots__ = ("source", "target", "index")
    def __init__(self, source: str, target: str, index: int):
        self.source, self.target, self.index = source, target, index

    @property
    def name(self) -> str:
        return f"({self.source},{self.target}){self.index}"


def parse_channel_participant(name: str) -> Optional[ChannelParticipant]:
    m = _CP_RE.match(name)
    if not m:
        return None
    return ChannelParticipant(m["src"], m["dst"], int(m["idx"]))


def forwarder_named(names) -> Optional[str]:
    """The first of `names` written as a forwarder's, or None."""
    return next((name for name in names if parse_channel_participant(name)),
                None)


def channel_participants(bounds: dict) -> tuple[ChannelParticipant, ...]:
    cps = []
    for (p, q), b in sorted(bounds.items()):
        cps.extend(ChannelParticipant(p, q, i) for i in range(b))
    return tuple(cps)


# -- protocol machine encoding ---------------------------------------------


class Fused:
    """A compiled protocol (`core.Compiled`), trimmed, with each send on
    an unbounded channel joined to its immediate receive, on the form's
    ints; a pair that compiling split is joined again unless its channel
    is bounded.  `encode_psm` returns the encoding in the same form.

    `states` lists the kept states that no joined send enters, numbered
    as the form numbers them: the named ones in name order, then the
    middle states of the pairs left split, named as `expand_pairs` names
    them, so `names[q]` names state q.  `out[q]` lists state q's
    transitions, each once, as (sender, receiver, send rank, receive
    rank, successor): a joined exchange has both ranks, a send or
    receive left alone -1 for the other, and an epsilon move -1 for all
    four.  `letters[r]` is the letter of rank r, in `Event.sort_key`
    order, and `decoded[r]` that letter on the protocol's channels, here
    itself.  `participants` numbers the names of the senders and
    receivers, and `origin[q]` is the form's state that q stands for,
    here q.  `deterministic` holds when no state has two transitions on
    the same letters.

    Raises ValueError, as `merge_immediate_pairs` reports it, on a send
    to join whose target does not leave by its receive alone, and on a
    state that such a send enters and another transition enters too.
    """

    __slots__ = ("names", "states", "initial", "finals", "out", "letters",
                 "decoded", "participants", "origin", "deterministic")

    def __init__(self, form: Compiled, bounds: dict):
        moves, eps, receive = form.moves, form.eps, form.receive
        self.letters = self.decoded = letters = form.letters
        self.participants = people = _numbered(letters)
        who = [(people[ev.sender], people[ev.receiver]) for ev in letters]
        join = [ev.kind == SEND and ev.channel not in bounds
                for ev in letters]
        self.out = out = [[] for _ in moves]
        entered = bytearray(len(moves))
        dropped = set()
        for q in sorted(form.keep):
            row = out[q]
            for r, d in moves[q]:
                if join[r]:
                    after = moves[d]
                    if len(after) != 1 or eps[d] or after[0][0] != receive[r]:
                        raise ValueError(f"send {letters[r]} on unbounded "
                                         f"channel lacks an immediate receive")
                    row.append(who[r] + (r,) + after[0])
                    dropped.add(d)
                else:
                    row.append(who[r] + ((r, -1) if letters[r].kind == SEND
                                         else (-1, r)) + (d,))
                    entered[d] = 1
            for d in eps[q]:
                row.append((-1, -1, -1, -1, d))
                entered[d] = 1
        split = len(form.names)  # a pair's middle state is numbered here on
        self.states = [q for q in sorted(form.keep) if q not in dropped]
        self.names = form.names + list(pair_middles(form.source)) \
            if self.states[-1] >= split else form.names
        if any(entered[d] for d in dropped):
            # the first such state in the order of the machine's transitions
            names = form.names + list(pair_middles(form.source))
            mixed = min([(names[q], letters[r], names[d]) for q in form.keep
                         for r, d in moves[q] if d in dropped and not join[r]]
                        + [(names[q], None, names[d]) for q in form.keep
                           for d in eps[q] if d in dropped],
                        key=_transition_key)[2]
            raise ValueError(f"state {mixed} mixes paired and other traffic")
        for d in dropped:
            out[d] = ()
        self.deterministic = _settle(out)
        self.initial = form.initial
        self.finals = form.finals.difference(dropped)
        self.origin = range(len(moves))

    def machine(self) -> StateMachine:
        """The protocol as a machine, a joined send and receive as their
        pair, one per distinct send."""
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
        written = StateMachine([names[q] for q in self.states],
                               names[self.initial],
                               [names[q] for q in self.finals],
                               [(names[q], event(snd, rcv), names[d])
                                for q in self.states
                                for _, _, snd, rcv, d in self.out[q]])
        # Trimmed when every sink is final: a dropped state lay between a
        # send and its receive, which are now one move, and every state
        # of the encoding is reachable.
        written._trimmed = all(self.out[q] or q in self.finals
                               for q in self.states)
        return written


def _numbered(letters: list) -> dict:
    """The senders and receivers of `letters`, numbered in name order."""
    return {p: i for i, p in enumerate(sorted(
        {ev.sender for ev in letters} | {ev.receiver for ev in letters}))}


def _settle(out: list) -> bool:
    """Drop each row's repeated transitions; whether no row is left with
    two transitions on the same letters."""
    for row in out:
        if len(row) > 1:
            row[:] = dict.fromkeys(row)
    return all(len({move[2:4] for move in row}) == len(row)
               for row in out if len(row) > 1)


def merge_immediate_pairs(form: Compiled) -> StateMachine:
    """The compiled protocol, trimmed, with each send fused with its
    immediate receive into a paired event, one per distinct send; a pair
    of the compiled machine stays a pair."""
    return Fused(form, {}).machine()


def encode_psm(form: Compiled, bounds: dict) -> Fused:
    """The compiled protocol with each channel of `bounds` routed through
    a ring of forwarder participants, one per buffer slot, in `Fused`'s
    form: the product of the fused view, which leaves each send and
    receive on a bounded channel alone, with a send and a receive
    counter per ring of two or more slots.  The send at counter i on p>q
    becomes the exchange of p with forwarder (p,q)i, the receive at i
    that of (p,q)i with q, each advancing its counter.  A state is named
    q|s:(p,q)=i,...|r:(p,q)=j,... after the state q it stands for
    (`origin`) and its counters.  States are numbered in name order and
    moves listed as the machine written out lists them, so that a search
    meets them in the order it met them on that machine, and a witness
    does not change.  Only states with every counter at zero stay final.
    `decoded` reads the letter of the participant in a forwarder
    exchange as the one it stands for.
    """
    fused = Fused(form, bounds)
    letters = fused.letters
    rings = sorted(ch for ch, b in bounds.items() if b >= 2)
    # A node's counters: the rings' send counters, then their receive
    # counters; a letter left alone moves `counter[r]`, if it has one.
    at = {ch: i for i, ch in enumerate(rings)}
    counter = [at[ev.channel] + len(rings) * (ev.kind == RECV)
               if ev.channel in at else -1 for ev in letters]
    codes: dict = {}  # (send rank, receive rank, slot) -> exchange number
    exchanges: list = []  # exchange number -> its send and receive letters
    decoded: dict = {}  # a participant's forwarder letter -> the protocol's

    def code(snd: int, rcv: int, slot: int) -> int:
        """The number of an epsilon move (-1), a joined exchange (slot
        -1), or the forwarder exchange at `slot` of a letter alone."""
        if snd == rcv or (snd, rcv, slot) in codes:
            return codes.get((snd, rcv, slot), -1)
        codes[snd, rcv, slot] = len(exchanges)
        if slot < 0:
            exchanges.append((letters[snd], letters[rcv]))
            return codes[snd, rcv, slot]
        ev = letters[max(snd, rcv)]
        cp = ChannelParticipant(*ev.channel, slot).name
        ends = (ev.sender, cp) if ev.kind == SEND else (cp, ev.receiver)
        both = (Event(SEND, *ends, ev.label, ev.payload),
                Event(RECV, *ends, ev.label, ev.payload))
        decoded[both[ev.kind == RECV]._key] = ev
        exchanges.append(both)
        return codes[snd, rcv, slot]

    start = (fused.initial, (0,) * (2 * len(rings)))
    index, nodes, moves = {start: 0}, [start], []
    for q, c in nodes:  # grows as the walk finds nodes
        row = []
        for _, _, snd, rcv, d in fused.out[q]:
            slot, after = -1, c
            if (snd < 0) != (rcv < 0):  # a send or receive left alone
                k = counter[max(snd, rcv)]
                slot = c[k] if k >= 0 else 0
                if k >= 0:
                    ring = rings[k % len(rings)]
                    after = (*c[:k], (slot + 1) % bounds[ring], *c[k + 1:])
            succ = index.setdefault((d, after), len(nodes))
            if succ == len(nodes):
                nodes.append((d, after))
            row.append((code(snd, rcv, slot), succ))
        moves.append(row)

    names = [fused.names[q] + _counted(rings, c) for q, c in nodes]
    order = sorted(range(len(nodes)), key=names.__getitem__)
    number = sorted(range(len(nodes)), key=order.__getitem__)  # its inverse
    used = {ev._key: ev for both in exchanges for ev in both}
    keys = sorted(used)
    rank = {key: r for r, key in enumerate(keys)}
    fused.letters = [used[key] for key in keys]
    fused.decoded = [decoded.get(key, used[key]) for key in keys]
    fused.participants = people = _numbered(fused.letters)
    moved = [(people[snd.sender], people[snd.receiver], rank[snd._key],
              rank[rcv._key]) for snd, rcv in exchanges] + [(-1,) * 4]
    fused.out = [sorted((moved[c] + (number[succ],) for c, succ in moves[i]),
                        key=lambda move: (move[2] < 0, move[2], move[4]))
                 for i in order]
    fused.deterministic = _settle(fused.out)
    fused.finals = frozenset(number[i] for i, (q, c) in enumerate(nodes)
                             if q in fused.finals and not any(c))
    fused.names = [names[i] for i in order]
    fused.states = list(range(len(nodes)))
    fused.initial = number[0]
    fused.origin = [nodes[i][0] for i in order]
    return fused


def _counted(rings: list, counters: tuple) -> str:
    """A node's `counters` as its name writes them after the protocol
    state's: nothing when there is no ring."""
    pairs = [f"({p},{q})={v}" for (p, q), v in zip(rings * 2, counters)]
    half = ",".join(pairs[:len(rings)]), ",".join(pairs[len(rings):])
    return f"|s:{half[0]}|r:{half[1]}" if rings else ""


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
