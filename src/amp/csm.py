"""Communicating state machines: semantics, exploration, deadlock
detection, and the bounded oracle behind `projection.check_against`.

A CSM runs one component machine per participant over point-to-point
FIFO channels.  Configurations pair the vector of local states with the
channel contents; deadlocks are stuck configurations that are not final.
"""

from __future__ import annotations

import json
import random
from math import prod
from operator import getitem
from typing import Optional

from .core import (Event, MalformedInput, PAIR, RECV, Record, SEND,
                   StateMachine, Word, _machine_at, _quote, bounded_traces,
                   machine_from_json, queue_get, reachable, walk)
from .fifo import project, show_word as _fmt
from .psm import Psm

Channel = tuple[str, str]


class Csm:
    """One state machine per participant, each over that participant's
    send/receive alphabet."""

    __slots__ = ("components", "_kernel")

    def __init__(self, components: dict[str, StateMachine]):
        for name, machine in components.items():
            for _, ev, _ in machine.transitions:
                if ev is None:
                    continue
                if ev.kind == PAIR:
                    raise ValueError("CSM components use send/receive events only")
                if ev.subject != name:
                    raise ValueError(
                        f"component {name!r} has foreign event {ev}")
        self.components = dict(sorted(components.items()))
        self._kernel: Optional[_Kernel] = None

    @property
    def participants(self) -> tuple[str, ...]:
        return tuple(self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, Csm) and self.components == other.components

    def __repr__(self) -> str:
        return f"Csm({', '.join(self.components)})"


class Configuration(Record):
    __slots__ = ("states", "channels")
    def __init__(self, states: tuple, channels: tuple):
        self.states = states      # ((participant, state), ...), sorted
        self.channels = channels  # ((channel, queue), ...) non-empty, sorted

    def queue(self, channel: Channel) -> tuple:
        return queue_get(self.channels, channel)


def is_final_config(csm: Csm, config: Configuration) -> bool:
    return not config.channels and all(
        q in csm.components[p].finals for p, q in config.states)


# Width in bits of a channel's field in a packed configuration.  Each
# distinct queue content a channel reaches takes one id, and 2**32 of
# them do not fit in memory, so `_Queues` raises before a field can
# overflow.
_QUEUE_BITS = 32
_QUEUE_MASK = (1 << _QUEUE_BITS) - 1
# A queue cap no queue reaches: its ids outnumber its lengths.
_NO_CAP = 1 << _QUEUE_BITS
# Local views a participant's move table keeps per queue cap.  Where a
# participant meets a new view at most configurations, as in two-party
# CSMs, a table that kept every view would grow with the exploration.
_VIEWS_PER_TABLE = 1 << 10

# Move kinds in the compiled out-tables.
_EPS, _SEND, _RECV = range(3)


class _Queues:
    """The contents one channel has reached, interned as ids in a trie
    of appended messages: 0 is the empty queue, and id q is `prefix[q]`
    with message `last[q]` appended.  Messages are indices into
    `messages`.

    `push[m]` maps an id to the id after appending message m.  `pop[m]`
    maps an id to the id after removing its head, or to -1 when the
    head is not m; both fill on first use.  `content` and `intern` map
    ids to contents and back, and remember what they computed.
    """

    __slots__ = ("channel", "messages", "number", "prefix", "last", "first",
                 "length", "push", "pop", "_contents", "_ids")

    def __init__(self, channel: Channel, messages):
        self.channel = channel
        self.messages = list(messages)
        self.number = {msg: m for m, msg in enumerate(self.messages)}
        self.prefix, self.last, self.first, self.length = [-1], [-1], [-1], [0]
        self.push = [{} for _ in self.messages]
        self.pop = [{} for _ in self.messages]
        self._contents = {0: ()}
        self._ids = {(): 0}

    def appended(self, q: int, m: int) -> int:
        r = self.push[m].get(q)
        if r is None:
            r = self.push[m][q] = len(self.length)
            if r > _QUEUE_MASK:
                raise MemoryError(
                    f"channel {self.channel[0]}>{self.channel[1]} reached "
                    f"more than {_QUEUE_MASK} distinct queue contents")
            self.prefix.append(q)
            self.last.append(m)
            self.first.append(self.first[q] if q else m)
            self.length.append(self.length[q] + 1)
        return r

    def popped(self, q: int, m: int) -> int:
        pop = self.pop[m]
        if self.first[q] != m:
            pop[q] = -1
            return -1
        # q's prefixes start with m too: remove it from the shortest
        # one not yet popped, then append their last messages back.
        chain = []
        while q not in pop and self.length[q] > 1:
            chain.append(q)
            q = self.prefix[q]
        r = pop.setdefault(q, 0)  # one message leaves the empty queue
        for q in reversed(chain):
            r = pop[q] = self.appended(r, self.last[q])
        return r

    def content(self, q: int) -> tuple:
        found = self._contents.get(q)
        if found is None:
            messages = []
            r = q
            while r:
                messages.append(self.messages[self.last[r]])
                r = self.prefix[r]
            found = self._contents[q] = tuple(reversed(messages))
        return found

    def intern(self, content: tuple) -> int:
        q = self._ids.get(content)
        if q is not None:
            return q
        q = 0
        for msg in content:
            m = self.number.get(msg)
            if m is None:  # a message no component sends on this channel
                m = self.number[msg] = len(self.messages)
                self.messages.append(msg)
                self.push.append({})
                self.pop.append({})
            q = self.appended(q, m)
        self._ids[content] = q
        return q


class _Kernel:
    """A CSM compiled to integers, built once per `Csm` by `_compiled`.

    A configuration is one int.  Each participant's state id, states
    numbered in sorted name order, has a field sized from its state
    count, participant 0 most significant.  Below them each channel, in
    sorted order, has a `_QUEUE_BITS` field holding the id its
    `_Queues` gave the channel's contents.  Comparing two
    configurations' ints therefore compares their state vectors first,
    as comparing `Configuration.states` does.

    Events are ranked from 1 in `Event.sort_key` order, epsilon being
    0, and a move is the int `rank << bits | successor`, so sorting
    moves as ints orders them as `step` promises.  `parts[i]` holds
    participant i's field shift and mask and its out-table: `out[s]`
    lists the transitions from state s as (kind, what the move adds to
    the configuration besides the queue change, the channel field's
    shift, the push or pop table, the channel's `_Queues`, the message).

    A participant's moves read only its local view: its state field
    and the fields of the channels its out-table sends or receives on,
    which `views[i]` masks.  The offset `move - config` of each of its
    moves, rank bits included, is then a function of `config &
    views[i]` and the queue cap, because a channel's queue ids never
    change meaning (`_Queues` only appends).  So are a group's, the
    members of a connected component of "uses a channel the other
    uses", whose view joins theirs: `groups` lists them, as (members,
    joint view), and `deadlock_verdict` explores each as its own CSM.
    `tables[cap]` holds per group, or per participant when all make one
    group, its view mask, a dict from each local view met under that cap
    to the group's offsets and whether it left a send out at the cap, a
    part, and what fills the dict on a miss: `derive`, the one
    per-transition loop, with a group of one's `parts` entry, or `fill`,
    with its members' masks, dicts and parts.  Both append the offsets
    in place and keep them while the dict holds fewer than
    `_VIEWS_PER_TABLE` views.  `moves` and `explore` read the tables
    alike: one mask and one lookup per group, a hit adding the kept
    offsets with one `+=`.  Only `explore` reads whether a send was
    left out, to mark its report truncated.
    """

    __slots__ = ("participants", "ids", "pairs", "channel_index", "queues",
                 "queue_shifts", "queue_mask", "events", "bits", "full",
                 "fields", "parts", "views", "groups", "tables", "final",
                 "final_sink", "initial")

    def __init__(self, components: dict[str, StateMachine]):
        self.participants = tuple(components)
        names = [sorted(m.states) for m in components.values()]
        self.ids = tuple({q: s for s, q in enumerate(qs)} for qs in names)
        # Shared (participant, state) pairs for the public configurations.
        self.pairs = tuple(tuple((p, q) for q in qs)
                           for p, qs in zip(components, names))
        events = {ev for m in components.values()
                  for _, ev, _ in m.transitions if ev is not None}
        channels = sorted({ev.channel for ev in events})
        self.channel_index = {ch: c for c, ch in enumerate(channels)}
        self.queues = tuple(
            _Queues(ch, sorted({ev.message() for ev in events
                                if ev.channel == ch})) for ch in channels)
        self.queue_shifts = tuple(_QUEUE_BITS * (len(channels) - 1 - c)
                                  for c in range(len(channels)))
        self.queue_mask = (1 << _QUEUE_BITS * len(channels)) - 1
        self.events = (None,) + tuple(sorted(events, key=Event.sort_key))
        rank = {ev: r for r, ev in enumerate(self.events)}
        widths = [(len(qs) - 1).bit_length() for qs in names]
        self.bits = _QUEUE_BITS * len(channels) + sum(widths)
        self.full = (1 << self.bits) - 1
        fields, shift = [], self.bits
        for width in widths:
            shift -= width
            fields.append((shift, (1 << width) - 1))
        self.fields = tuple(fields)
        parts, views, final, final_sink = [], [], [], []
        for ids, qs, m, (shift, mask) in zip(self.ids, names,
                                             components.values(), fields):
            tables = []
            view = mask << shift
            for s, q in enumerate(qs):
                table = []
                for ev, dst in m.out(q):
                    delta = (ids[dst] - s) << shift
                    if ev is None:
                        table.append((_EPS, delta, 0, None, None, -1))
                        continue
                    c = self.channel_index[ev.channel]
                    queues = self.queues[c]
                    msg = queues.number[ev.message()]
                    kind, moves = ((_SEND, queues.push) if ev.kind == SEND
                                   else (_RECV, queues.pop))
                    view |= _QUEUE_MASK << self.queue_shifts[c]
                    table.append((kind, (rank[ev] << self.bits) + delta,
                                  self.queue_shifts[c], moves[msg], queues,
                                  msg))
                tables.append(tuple(table))
            parts.append((shift, mask, tuple(tables)))
            views.append(view)
            final.append(tuple(q in m.finals for q in qs))
            final_sink.append(tuple(q in m.finals and m.is_sink(q)
                                    for q in qs))
        self.parts, self.views = tuple(parts), tuple(views)
        groups = []  # (members, joint view), joined where they share a channel
        for i, view in enumerate(views):
            members, joint = [i], view
            for group in [g for g in groups if g[1] & view & self.queue_mask]:
                groups.remove(group)
                members, joint = group[0] + members, group[1] | joint
            groups.append((sorted(members), joint))
        self.groups = tuple(sorted(groups))
        self.tables = {}
        self.final, self.final_sink = tuple(final), tuple(final_sink)
        self.initial = self.pack(
            ids[m.initial] for ids, m in zip(self.ids, components.values()))

    def pack(self, states, queues=()) -> int:
        """The configuration with these state ids and (channel index,
        queue id) pairs."""
        config = 0
        for s, (shift, _) in zip(states, self.fields):
            config |= s << shift
        for c, q in queues:
            config |= q << self.queue_shifts[c]
        return config

    def states(self, config: int) -> list:
        return [(config >> shift) & mask for shift, mask in self.fields]

    def public(self, config: int) -> Configuration:
        channels = []
        for queues, shift in zip(self.queues, self.queue_shifts):
            q = (config >> shift) & _QUEUE_MASK
            if q:
                channels.append((queues.channel, queues.content(q)))
        return Configuration(
            tuple(map(getitem, self.pairs, self.states(config))),
            tuple(channels))

    def internal(self, config: Configuration) -> int:
        named = dict(config.states)
        queues = []
        for ch, content in config.channels:
            c = self.channel_index[ch]
            queues.append((c, self.queues[c].intern(content)))
        return self.pack(
            (ids[named[p]] for p, ids in zip(self.participants, self.ids)),
            queues)

    def event(self, move: int) -> Optional[Event]:
        return self.events[move >> self.bits]

    def tables_at(self, cap: int) -> tuple:
        """Each group's (view mask, move table, part, fill) under queue
        cap `cap`."""
        tables = self.tables.get(cap)
        if tables is None:
            own = [(v, {}, part) for v, part in zip(self.views, self.parts)]
            # one group gains nothing from a joint table
            layout = self.groups if len(self.groups) > 1 else [
                ([i], view) for i, view in enumerate(self.views)]
            tables = self.tables[cap] = tuple(
                own[members[0]] + (self.derive,) if len(members) == 1 else
                (joint, {}, tuple(own[i] for i in members), self.fill)
                for members, joint in layout)
        return tables

    @staticmethod
    def derive(config: int, local: int, table: dict, part: tuple, cap: int,
               found: list) -> bool:
        """Append to `found` the offsets of one participant's moves from
        `config`, whose local view is `local`, and keep them in `table`
        while it holds fewer than `_VIEWS_PER_TABLE` views; return
        whether a send was left out because its queue would grow past
        `cap`."""
        shift, mask, out = part
        start = len(found)
        blocked = False
        for kind, delta, at, moves, queues, m in out[(config >> shift) & mask]:
            if kind == _EPS:
                found.append(delta)
                continue
            q = (config >> at) & _QUEUE_MASK
            if kind == _SEND:
                if queues.length[q] >= cap:
                    blocked = True
                    continue
                r = moves.get(q)
                if r is None:
                    r = queues.appended(q, m)
            else:
                r = moves.get(q)
                if r is None:
                    r = queues.popped(q, m)
                if r < 0:
                    continue
            found.append(delta + ((r - q) << at))
        if len(table) < _VIEWS_PER_TABLE:
            table[local] = (tuple(found[start:]), blocked)
        return blocked

    @staticmethod
    def fill(config: int, local: int, table: dict, members: tuple, cap: int,
             found: list) -> bool:
        """`derive` for a group: append to `found` its members' offsets,
        each read from the member's own table or derived, keep them in
        `table` as `derive` does, and return whether one left a send out."""
        start = len(found)
        blocked = False
        for view, own, part in members:
            mine = config & view
            kept = own.get(mine)
            if kept is None:  # `derive` appends the offsets itself
                kept = (), _Kernel.derive(config, mine, own, part, cap, found)
            found += kept[0]
            if kept[1]:
                blocked = True
        if len(table) < _VIEWS_PER_TABLE:
            table[local] = (tuple(found[start:]), blocked)
        return blocked

    def moves(self, config: int, cap: int = _NO_CAP) -> list:
        """Every move from a configuration under queue cap `cap`,
        unsorted; a send that would grow its queue past the cap is left
        out."""
        offsets = []
        for view, table, part, fill in self.tables_at(cap):
            local = config & view
            kept = table.get(local)
            if kept is None:
                fill(config, local, table, part, cap, offsets)
            else:
                offsets += kept[0]
        return [config + offset for offset in offsets]

    def is_final(self, config: int) -> bool:
        return not config & self.queue_mask and \
            all(map(getitem, self.final, self.states(config)))

    def is_final_sink(self, config: int) -> bool:
        return not config & self.queue_mask and \
            all(map(getitem, self.final_sink, self.states(config)))


def _compiled(csm: Csm) -> _Kernel:
    if csm._kernel is None:
        csm._kernel = _Kernel(csm.components)
    return csm._kernel


def step(csm: Csm, config: Configuration) -> tuple:
    """All (event-or-None, successor) moves from a configuration.

    A send appends to its channel, a receive pops a matching head, and an
    epsilon transition moves one participant.  Moves are sorted by the
    event (epsilon first, then `Event.sort_key`) and then by the
    successor's local states in participant and state-name order; two
    moves equal on both are the same move, so the order is total and
    exploration and simulation are deterministic.
    """
    kernel = _compiled(csm)
    moves = kernel.moves(kernel.internal(config))
    moves.sort()
    return tuple((kernel.event(move), kernel.public(move & kernel.full))
                 for move in moves)


class ExploreReport:
    """What `explore` found, with configurations numbered in
    breadth-first order: the admitted ones are 0 to len(report) - 1,
    and successors the config cap dropped follow them.

    The report keeps only the breadth-first tree: configuration i is
    the packed int `_packed[i]`, `_index` numbers them, and i was first
    reached from `_parents[i]` by `_via[i]`.  `out` steps a
    configuration again on the kernel, under the queue cap `_cap` it
    was explored with, rather than storing its moves.  `deadlocks`,
    `soft_deadlocks` and `finals` are lists of public `Configuration`s;
    `configs` is built when first read.
    """

    __slots__ = ("deadlocks", "soft_deadlocks", "finals", "truncated",
                 "_kernel", "_cap", "_packed", "_index", "_size", "_parents",
                 "_via", "_configs")

    def __init__(self, kernel: _Kernel, cap: int, packed: list, index: dict,
                 size: int, parents: list, via: list, deadlocks: list,
                 soft_deadlocks: list, finals: list, truncated: bool):
        self._kernel, self._cap, self._packed = kernel, cap, packed
        self._index, self._size = index, size
        self._parents, self._via = parents, via
        self._configs = None
        self.deadlocks = [self._config(i) for i in deadlocks]
        self.soft_deadlocks = [self._config(i) for i in soft_deadlocks]
        self.finals = [self._config(i) for i in finals]
        self.truncated = truncated

    def __len__(self) -> int:
        """The number of configurations explored."""
        return self._size

    def _config(self, i: int) -> Configuration:
        return self._kernel.public(self._packed[i])

    def out(self, i: int) -> list:
        """The (event, index) moves of configuration i, in `step` order;
        an index of len(report) or more is beyond the config cap."""
        if not 0 <= i < self._size:
            raise IndexError(f"configuration {i} was not admitted")
        kernel = self._kernel
        moves = kernel.moves(self._packed[i], self._cap)
        moves.sort()
        return [(kernel.event(move), self._index[move & kernel.full])
                for move in moves]

    @property
    def configs(self) -> list:
        if self._configs is None:
            self._configs = [self._config(i) for i in range(self._size)]
        return self._configs

    def witness(self, config: Configuration) -> Word:
        """The events on the exploration's path to `config`, epsilon
        left out; empty for a configuration it did not admit."""
        i = self._index.get(self._kernel.internal(config), 0)
        events = []
        while 0 < i < self._size:
            if self._via[i] is not None:
                events.append(self._via[i])
            i = self._parents[i]
        return tuple(reversed(events))


def explore(csm: Csm, *, queue_cap: int = 8,
            config_cap: int = 100_000) -> ExploreReport:
    """Breadth-first exploration up to the caps.

    A configuration only counts as stuck when it has no moves even
    before the queue cap is applied, so capped sends never masquerade as
    deadlocks; hitting either cap sets the truncated flag instead.
    Configurations are visited, and successors listed, in `step` order.

    The loop reads the kernel's move tables itself rather than calling
    `_Kernel.moves`: it gathers each configuration's move offsets,
    sorts them (every offset is added to the same configuration, so
    this is the moves' order), and tests finality only where every
    queue is empty.
    """
    kernel = _compiled(csm)
    full, bits, events = kernel.full, kernel.bits, kernel.events
    queue_mask, is_final = kernel.queue_mask, kernel.is_final
    tables = kernel.tables_at(queue_cap)
    admit = max(config_cap, 1)  # the initial configuration whatever the cap
    packed = [kernel.initial]
    index = {kernel.initial: 0}
    parents, via = [-1], [None]
    deadlocks, soft_deadlocks, finals = [], [], []
    truncated = False
    for i, config in enumerate(packed):
        if i == admit:
            break
        offsets = []
        capped = False
        for view, table, part, fill in tables:
            local = config & view
            kept = table.get(local)
            if kept is None:
                if fill(config, local, table, part, queue_cap, offsets):
                    capped = True
            else:
                found, blocked = kept
                offsets += found
                if blocked:
                    capped = True
        if capped:
            truncated = True
        offsets.sort()
        for offset in offsets:
            move = config + offset
            succ = move & full
            if succ not in index:
                j = index[succ] = len(packed)
                packed.append(succ)
                if j < admit:
                    parents.append(i)
                    via.append(events[move >> bits])
                else:
                    truncated = True
        final = not config & queue_mask and is_final(config)
        if not offsets and not capped:
            (finals if final else deadlocks).append(i)
            if not kernel.is_final_sink(config):
                soft_deadlocks.append(i)
        elif final:
            finals.append(i)
    return ExploreReport(kernel, queue_cap, packed, index,
                         min(len(packed), admit), parents, via, deadlocks,
                         soft_deadlocks, finals, truncated)


class DeadlockVerdict(Record):
    """What `check-csm` reports of an exploration: the number of
    configurations explored, of deadlocks and of soft deadlocks, whether
    a cap was hit, and the events to the first deadlock (None without
    one)."""

    __slots__ = ("configurations", "deadlocks", "soft_deadlocks",
                 "truncated", "witness")

    def __init__(self, configurations: int, deadlocks: int,
                 soft_deadlocks: int, truncated: bool,
                 witness: Optional[Word]):
        self.configurations, self.deadlocks = configurations, deadlocks
        self.soft_deadlocks, self.truncated = soft_deadlocks, truncated
        self.witness = witness


def deadlock_verdict(csm: Csm, *, queue_cap: int = 8,
                     config_cap: int = 100_000) -> DeadlockVerdict:
    """The counts, flag and witness of `explore` under the same caps,
    composed from each group's own exploration where that gives them.

    The groups of `_Kernel.groups` share no channel, so a move of one
    changes only its own states and channels, and which moves it has,
    capped sends included, depends only on them.  The configurations
    the CSM reaches under a queue cap are therefore exactly the tuples
    of configurations each group reaches on its own under that cap:
    their number is the product of the groups' numbers.  A tuple has no
    move and no send left out at the cap (is stuck) exactly when each
    component is stuck; it is final, or final with every participant in
    a sink, exactly when each component is.  So the deadlocks, stuck
    and not final, number the product of the groups' stuck counts less
    the product of their stuck final counts, and the soft deadlocks,
    stuck and not a final sink, likewise.  A cap is hit exactly when
    one group hits it.  A group's stuck count is its deadlocks plus its
    finals with no move at all (`step`, which applies no queue cap).

    Two answers need the whole walk: the first deadlock's witness is
    the breadth-first path in the whole CSM, where the groups'
    events interleave, and past the config cap which configurations
    are admitted, and so which deadlocks are counted, depends on the
    breadth-first order.  So the whole CSM is explored when its
    product has a deadlock, when it exceeds the config cap, or when
    it is one group.  Each of the k groups is explored up to its share
    of the cap, the integer part of the cap's k-th root, so a product
    within every share fits the cap; the whole CSM is explored as soon
    as one group passes its share.
    """
    kernel = _compiled(csm)
    if len(kernel.groups) > 1:
        groups = [Csm({p: csm.components[p] for p in
                       map(kernel.participants.__getitem__, members)})
                  for members, _ in kernel.groups]
        admit, k = max(config_cap, 1), len(groups)
        share = round(admit ** (1 / k))  # then lowered to the integer part
        while share ** k > admit:
            share -= 1
        reports = []
        for group in groups:
            reports.append(explore(group, queue_cap=queue_cap,
                                   config_cap=share + 1))
            if len(reports[-1]) > share:
                break
        else:
            stuck = stuck_final = stuck_sink = 1
            for group, report in zip(groups, reports):
                finals = sum(not step(group, c) for c in report.finals)
                stuck *= len(report.deadlocks) + finals
                stuck_final *= finals
                stuck_sink *= (len(report.deadlocks) + finals
                               - len(report.soft_deadlocks))
            if stuck == stuck_final:  # no deadlock
                return DeadlockVerdict(
                    prod(map(len, reports)), 0, stuck - stuck_sink,
                    any(report.truncated for report in reports), None)
    report = explore(csm, queue_cap=queue_cap, config_cap=config_cap)
    witness = (report.witness(report.deadlocks[0]) if report.deadlocks
               else None)
    return DeadlockVerdict(len(report), len(report.deadlocks),
                           len(report.soft_deadlocks), report.truncated,
                           witness)


def csm_language_upto(csm: Csm, k: int, *,
                      queue_cap: Optional[int] = None) -> dict:
    """Traces of runs of length <= k, flagged complete on final configs.

    Words map to the set of configurations they reach, so the flags are
    exact even for non-deterministic components.  Words are listed by
    length, each length in the order of its prefixes and then by
    `Event.sort_key` of the last letter.
    """
    kernel = _compiled(csm)
    cap = _NO_CAP if queue_cap is None else queue_cap

    def out(config: int) -> list:
        return [(kernel.event(move), move & kernel.full)
                for move in kernel.moves(config, cap)]

    return bounded_traces((kernel.initial,), out,
                          lambda configs: _eps_reach(kernel, configs),
                          kernel.is_final, k)


def _eps_reach(kernel: _Kernel, configs) -> frozenset:
    """The packed configurations reachable by epsilon moves, of rank 0,
    alone; a queue cap of 0 keeps `moves` from building any send."""
    return frozenset(reachable(configs, lambda config: [
        move for move in kernel.moves(config, 0) if move <= kernel.full]))


class ProjectionVerdict(Record):
    __slots__ = ("passed", "reasons", "bounded_only")
    def __init__(self, passed: bool, reasons: tuple, bounded_only=False):
        self.passed, self.reasons = passed, reasons
        self.bounded_only = bounded_only  # passed on words up to k only

    def __bool__(self) -> bool:
        return self.passed


def word_embeds(machine: StateMachine, word: Word) -> bool:
    """Whether `word` is a prefix of the machine's closed semantics.

    A FIFO word belongs to the prefix language exactly when each
    participant's projection of it is a prefix of that participant's
    projection of a single run; searched over (state, progress vector)
    pairs on the trimmed machine, where every state extends maximally.
    """
    from .core import expand_pairs
    from .fifo import VIOLATION, is_fifo
    if is_fifo(word).status == VIOLATION:
        return False
    return _embeds(expand_pairs(machine).trim(),
                   {p: project(word, participant=p)
                    for p in {ev.subject for ev in word}})


def _embeds(machine: StateMachine, targets: dict) -> bool:
    """`word_embeds` for a FIFO word given by its participants'
    non-empty projections, on a machine already pair-expanded and
    trimmed."""
    subjects = sorted(targets)
    slot = {p: i for i, p in enumerate(subjects)}
    done = tuple(len(targets[p]) for p in subjects)

    def successors(node):
        q, positions = node
        for ev, dst in machine.out(q):
            if ev is not None:
                i = slot.get(ev.subject)
                if i is not None and positions[i] < done[i]:
                    if targets[subjects[i]][positions[i]] == ev:
                        yield (dst, positions[:i] + (positions[i] + 1,)
                               + positions[i + 1:])
                    continue
            yield dst, positions

    start = (machine.initial, tuple(0 for _ in subjects))
    return any(positions == done
               for _, positions in walk((start,), successors))


class _Views:
    """Per-participant projections of words, interned in one trie.

    A participant's projection of a word is a trie node, an int (0 is
    the empty word), and the word's projection vector is the tuple of
    its participants' nodes in `participants` order.  A CSM observes a
    protocol only through these vectors: the FIFO words with the vector
    of a FIFO word w are exactly the swap closure of w, the
    indistinguishability characterisation of Majumdar, Mukund, Stutz
    and Zufferey (CONCUR 2021).  A vector is realisable when some FIFO
    word has it.
    """

    def __init__(self, participants):
        self.participants = tuple(participants)
        self.slot = {p: i for i, p in enumerate(self.participants)}
        self.empty = (0,) * len(self.participants)
        self.words: list = [()]    # node -> the projection it stands for
        self.parent: list = [0]    # node -> the node one letter shorter
        self._child: dict = {}     # (node, event) -> node

    def extend(self, vector: tuple, ev: Event) -> tuple:
        i = self.slot[ev.subject]
        node = self._child.get((vector[i], ev))
        if node is None:
            node = self._child[vector[i], ev] = len(self.words)
            self.words.append(self.words[vector[i]] + (ev,))
            self.parent.append(vector[i])
        return vector[:i] + (node,) + vector[i + 1:]

    def of(self, word: Word) -> tuple:
        vector = self.empty
        for ev in word:
            vector = self.extend(vector, ev)
        return vector

    def length(self, vector: tuple) -> int:
        return sum(len(self.words[node]) for node in vector)

    def parts(self, vector: tuple) -> dict:
        """Each participant's non-empty projection."""
        return {p: self.words[node]
                for p, node in zip(self.participants, vector) if node}

    def prefixes(self, vectors) -> set:
        """Every realisable vector whose projections are prefixes of
        those of one of the realisable `vectors`.

        Dropping a participant's last letter keeps a vector realisable
        unless the letter is a send its receiver has already received,
        and the realisable prefixes of a realisable vector are all
        reached that way."""
        def shorter(vector: tuple):
            for i, node in enumerate(vector):
                if not node:
                    continue
                word = self.words[node]
                ev = word[-1]
                if ev.kind == SEND:
                    received = self.words[vector[self.slot[ev.receiver]]]
                    if len(project(received, channel=ev.channel)) \
                            >= len(project(word, channel=ev.channel)):
                        continue
                yield vector[:i] + (self.parent[node],) + vector[i + 1:]

        return reachable(vectors, shorter)

    def least(self, vector: tuple, key) -> Word:
        """The FIFO word with a realisable vector that `key` puts
        first, where `key` orders words with a common first letter as
        their remainders.

        Every FIFO word whose projections are prefixes of the vector's
        extends to one with the whole vector, so the least way to finish
        is found back to front over the participants' progress."""
        parts = self.parts(vector)
        names = list(parts)
        where = {p: j for j, p in enumerate(names)}

        def moves(progress: tuple) -> list:
            found = []
            for j, p in enumerate(names):
                i = progress[j]
                if i == len(parts[p]):
                    continue
                ev = parts[p][i]
                if ev.kind == RECV:
                    sender = where.get(ev.sender)
                    sent = () if sender is None \
                        else parts[ev.sender][:progress[sender]]
                    if len(project(sent, channel=ev.channel)) <= \
                            len(project(parts[p][:i], channel=ev.channel)):
                        continue  # nothing in flight to receive
                found.append((ev, progress[:j] + (i + 1,) + progress[j + 1:]))
            return found

        # Each move adds one letter, so breadth-first order is
        # topological and its reverse meets successors first.
        order = list(walk(((0,) * len(names),),
                          lambda progress: [nxt for _, nxt in moves(progress)]))
        best: dict = {}
        for progress in reversed(order):
            options = [(ev,) + best[nxt] for ev, nxt in moves(progress)]
            best[progress] = min(options, key=key) if options else ()
        return best[order[0]]

    def first(self, vectors) -> Word:
        """The shortest word of the realisable `vectors`, ties broken by
        its printed form, so witnesses do not depend on set order."""
        shortest = min(map(self.length, vectors))
        return min((self.least(v, _fmt) for v in vectors
                    if self.length(v) == shortest), key=_fmt)


def _letter_keys(word: Word) -> list:
    """Orders words of one length as `csm_language_upto` lists them."""
    return [ev.sort_key() for ev in word]


def _csm_vectors(kernel: _Kernel, views: _Views, k: int) -> dict:
    """The projection vectors of the CSM's words of length <= k, each
    mapped to whether one of its runs ends in a final configuration.

    Walks (configuration, vector, vector length) triples, so each
    configuration and vector is visited once however many interleavings
    lead there; the vector fixes the length.  Receives consume their
    channel's head and epsilon moves leave the vector alone, as in
    `moves`.
    """
    def successors(node):
        config, vector, size = node
        for move in kernel.moves(config):
            succ = move & kernel.full
            if move == succ:  # epsilon, of rank 0
                yield succ, vector, size
            elif size < k:
                yield (succ, views.extend(vector, kernel.event(move)),
                       size + 1)

    complete: dict = {}
    for config, vector, _ in walk(((kernel.initial, views.empty, 0),),
                                  successors):
        complete[vector] = complete.get(vector) or kernel.is_final(config)
    return complete


def check_projection(psm: Psm, csm: Csm, k: int) -> ProjectionVerdict:
    """Bounded oracle: deadlock-freedom plus language agreement up to k.
    The fallback of `projection.check_against`, and the tests' reference.

    The languages are compared as sets of projection vectors (`_Views`),
    which stand for the swap closures of their words: the complete
    vectors of the CSM and of the machine's complete traces must agree,
    every CSM vector must embed into the machine's prefix semantics,
    and every realisable prefix of a vector of the machine's bounded
    traces must be a CSM vector.  The machine's words must be FIFO, as
    `validate` certifies for the trimmed machine; a `Psm` built by hand
    around a machine with other words may get another verdict than the
    word-level oracle of `tests/csm_reference.py` gives.  Witnesses are
    rebuilt from their vectors: the shortest word, ties broken by
    printed form, except that an added prefix is the first word
    `csm_language_upto` lists.
    """
    from .core import maximal_traces_upto
    reasons: list[str] = []
    per_channel = max(psm.bound_by_channel.values(), default=psm.bound_total)
    report = explore(csm, queue_cap=max(per_channel, 1) + 1)
    if report.deadlocks:
        reasons.append(
            f"deadlock after {_fmt(report.witness(report.deadlocks[0]))}")

    kernel = _compiled(csm)
    views = _Views(sorted(set(kernel.participants)
                          | set(psm.machine.participants())))
    csm_vectors = _csm_vectors(kernel, views, k)
    machine_vectors: dict = {}
    for word, flags in maximal_traces_upto(psm.machine, k).items():
        vector = views.of(word)
        machine_vectors[vector] = machine_vectors.get(vector) or flags.complete

    psm_complete = {v for v, complete in machine_vectors.items() if complete}
    csm_complete = {v for v, complete in csm_vectors.items() if complete}
    if psm_complete - csm_complete:
        reasons.append("CSM misses complete word "
                       + _fmt(views.first(psm_complete - csm_complete)))
    if csm_complete - psm_complete:
        reasons.append("CSM adds complete word "
                       + _fmt(views.first(csm_complete - psm_complete)))

    unembedded: list = []
    for vector in sorted(csm_vectors, key=views.length):
        if unembedded and views.length(vector) > views.length(unembedded[0]):
            break
        if not _embeds(psm.machine, views.parts(vector)):
            unembedded.append(vector)
    if unembedded:
        word = min((views.least(v, _letter_keys) for v in unembedded),
                   key=_letter_keys)
        reasons.append(f"CSM adds prefix {_fmt(word)}")

    missing = views.prefixes(machine_vectors) - csm_vectors.keys()
    if missing:
        reasons.append(f"CSM misses prefix {_fmt(views.first(missing))}")
    # a pass compared words up to k only; a failure's witness stands
    return ProjectionVerdict(not reasons, tuple(reasons),
                             bounded_only=not reasons)


def simulate(csm: Csm, seed: int = 0, max_steps: int = 100) -> Word:
    """One pseudorandom scheduler run; deterministic for a given seed."""
    rng = random.Random(seed)
    kernel = _compiled(csm)
    config = kernel.initial
    trace: list[Event] = []
    for _ in range(max_steps):
        moves = kernel.moves(config)
        if not moves:
            break
        moves.sort()
        move = moves[rng.randrange(len(moves))]
        config = move & kernel.full
        ev = kernel.event(move)
        if ev is not None:
            trace.append(ev)
    return tuple(trace)


# -- serialisation ---------------------------------------------------------


def csm_from_json(data) -> Csm:
    """The CSM a document that `dump_csm` writes describes, each
    participant's machine under its name; raises MalformedInput on any
    other JSON value."""
    if not isinstance(data, dict):
        raise MalformedInput(f"malformed CSM: expected a JSON object, "
                             f"got {type(data).__name__}")
    components = {p: machine_from_json(m) for p, m in data.items()}
    try:
        return Csm(components)
    except ValueError as exc:
        raise MalformedInput(f"malformed CSM: {exc}") from None


def dump_csm(csm: Csm) -> str:
    """The document `json.dumps(doc, indent=2, sort_keys=True)` prints
    for the mapping of each participant to its machine's document, as
    `core.dump_machine` writes it."""
    if not csm.components:
        return "{}\n"
    events: dict = {}
    return "{\n" + ",\n".join(
        f"  {_quote(p)}: {_machine_at(csm.components[p], '  ', events)}"
        for p in sorted(csm.components)) + "\n}\n"


def load_csm(text: str) -> Csm:
    return csm_from_json(json.loads(text))


# -- DOT export ------------------------------------------------------------


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


def csm_to_dot(csm: Csm, name: str = "csm") -> str:
    lines = [f"digraph {_dot_quoted(name)} {{", "  rankdir=LR;"]
    # A component's nodes are named "{p}__start" and "{p}:{q}", which
    # two components can share when a participant's name holds a colon:
    # a name already taken gets the first free one of name_, name__, ...
    taken: set = set()

    def node_id(text: str) -> str:
        while text in taken:
            text += "_"
        taken.add(text)
        return _dot_quoted(text)

    for p, m in csm.components.items():
        start = node_id(f"{p}__start")
        node = {q: node_id(f"{p}:{q}") for q in sorted(m.states)}
        lines.append(f"  subgraph {_dot_quoted(f'cluster_{p}')} {{")
        lines.append(f"    label={_dot_quoted(p)};")
        lines.append(f"    {start} [shape=point];")
        for q in sorted(m.states):
            shape = "doublecircle" if q in m.finals else "circle"
            lines.append(f"    {node[q]} [label={_dot_quoted(q)}, shape={shape}];")
        lines.append(f"    {start} -> {node[m.initial]};")
        for src, ev, dst in m.transitions:
            label = "ε" if ev is None else str(ev)
            lines.append(f"    {node[src]} -> {node[dst]} [label={_dot_quoted(label)}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
