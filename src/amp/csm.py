"""Communicating state machines: semantics, exploration, deadlock
detection, and the bounded projection-fidelity oracle.

A CSM runs one component machine per participant over point-to-point
FIFO channels.  Configurations pair the vector of local states with the
channel contents; deadlocks are stuck configurations that are not final.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from operator import getitem, itemgetter
from typing import Optional

from .core import (Event, MalformedInput, PAIR, RECV, SEND, StateMachine,
                   Word, bounded_traces, machine_from_json, machine_to_json,
                   parent_word, queue_get, reachable)
from .fifo import format_word, project
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


@dataclass(frozen=True)
class Configuration:
    states: tuple[tuple[str, str], ...]          # (participant, state), sorted
    channels: tuple[tuple[Channel, tuple], ...]  # non-empty queues, sorted

    def state_of(self, participant: str) -> str:
        for p, q in self.states:
            if p == participant:
                return q
        raise KeyError(participant)

    def queue(self, channel: Channel) -> tuple:
        return queue_get(self.channels, channel)


def initial_config(csm: Csm) -> Configuration:
    return Configuration(
        tuple((p, m.initial) for p, m in csm.components.items()), ())


def is_final_config(csm: Csm, config: Configuration) -> bool:
    return not config.channels and all(
        q in csm.components[p].finals for p, q in config.states)


def is_final_sink_config(csm: Csm, config: Configuration) -> bool:
    return is_final_config(csm, config) and all(
        csm.components[p].is_sink(q) for p, q in config.states)


# Move kinds in the compiled out-tables.
_EPS, _SEND, _RECV = range(3)

# Sort order of a move: the event's key, then the successor's state ids.
_MOVE_ORDER = itemgetter(0, 1)


class _Kernel:
    """A CSM compiled to integers, built once per `Csm` by `_compiled`.

    Each participant's states are numbered in sorted name order and the
    channels in sorted order, so comparing state-id tuples orders
    configurations as comparing their `Configuration.states` does.  An
    internal configuration is (tuple of state ids, tuple with one queue
    per channel).  `out[i][s]` holds the transitions of participant i in
    state s as (event sort key, event, destination id, kind, channel
    index, message).
    """

    __slots__ = ("participants", "ids", "pairs", "channels", "channel_index",
                 "out", "eps", "final", "final_sink", "initial")

    def __init__(self, components: dict[str, StateMachine]):
        self.participants = tuple(components)
        names = [sorted(m.states) for m in components.values()]
        self.ids = tuple({q: s for s, q in enumerate(qs)} for qs in names)
        # Shared (participant, state) pairs for the public configurations.
        self.pairs = tuple(tuple((p, q) for q in qs)
                           for p, qs in zip(components, names))
        self.channels = tuple(sorted({
            ev.channel for m in components.values()
            for _, ev, _ in m.transitions if ev is not None}))
        self.channel_index = {ch: c for c, ch in enumerate(self.channels)}
        out, eps, final, final_sink = [], [], [], []
        for ids, qs, m in zip(self.ids, names, components.values()):
            tables = []
            for q in qs:
                table = []
                for ev, dst in m.out(q):
                    if ev is None:
                        table.append(((0,), None, ids[dst], _EPS, -1, None))
                    else:
                        table.append(((1,) + ev.sort_key(), ev, ids[dst],
                                      _SEND if ev.kind == SEND else _RECV,
                                      self.channel_index[ev.channel],
                                      ev.message()))
                tables.append(tuple(table))
            out.append(tuple(tables))
            eps.append(tuple(tuple(ids[dst] for ev, dst in m.out(q)
                                   if ev is None) for q in qs))
            final.append(tuple(q in m.finals for q in qs))
            final_sink.append(tuple(q in m.finals and m.is_sink(q)
                                    for q in qs))
        self.out, self.eps = tuple(out), tuple(eps)
        self.final, self.final_sink = tuple(final), tuple(final_sink)
        self.initial = (tuple(ids[m.initial] for ids, m
                              in zip(self.ids, components.values())),
                        ((),) * len(self.channels))

    def public(self, config: tuple) -> Configuration:
        states, queues = config
        return Configuration(
            tuple(map(getitem, self.pairs, states)),
            tuple((ch, q) for ch, q in zip(self.channels, queues) if q))

    def internal(self, config: Configuration) -> tuple:
        named = dict(config.states)
        queues = [()] * len(self.channels)
        for ch, content in config.channels:
            queues[self.channel_index[ch]] = content
        return (tuple(ids[named[p]]
                      for p, ids in zip(self.participants, self.ids)),
                tuple(queues))

    def moves(self, config: tuple) -> list:
        """Every move as (event key, successor state ids, event,
        successor, length of the queue a send grew or 0), unsorted."""
        states, queues = config
        found = []
        for i, s in enumerate(states):
            for key, ev, dst, kind, c, msg in self.out[i][s]:
                size = 0
                succ_queues = queues
                if kind != _EPS:
                    queue = queues[c]
                    if kind == _SEND:
                        queue += (msg,)
                        size = len(queue)
                    elif queue and queue[0] == msg:
                        queue = queue[1:]
                    else:
                        continue
                    succ_queues = queues[:c] + (queue,) + queues[c + 1:]
                succ_states = states[:i] + (dst,) + states[i + 1:]
                found.append((key, succ_states, ev,
                              (succ_states, succ_queues), size))
        return found

    def sorted_moves(self, config: tuple) -> list:
        found = self.moves(config)
        found.sort(key=_MOVE_ORDER)
        return found

    def is_final(self, config: tuple) -> bool:
        states, queues = config
        return not any(queues) and all(map(getitem, self.final, states))

    def is_final_sink(self, config: tuple) -> bool:
        states, queues = config
        return not any(queues) and all(map(getitem, self.final_sink, states))


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
    return tuple((ev, kernel.public(succ))
                 for _, _, ev, succ, _ in kernel.sorted_moves(
                     kernel.internal(config)))


@dataclass
class ExploreReport:
    configs: list = field(default_factory=list)
    edges: dict = field(default_factory=dict)
    deadlocks: list = field(default_factory=list)
    soft_deadlocks: list = field(default_factory=list)
    finals: list = field(default_factory=list)
    truncated: bool = False
    parent: dict = field(default_factory=dict)

    @property
    def deadlock_free(self) -> bool:
        return not self.deadlocks

    def witness(self, config: Configuration) -> Word:
        return parent_word(self.parent, config)


def explore(csm: Csm, *, queue_cap: int = 8,
            config_cap: int = 100_000) -> ExploreReport:
    """Breadth-first exploration up to the caps.

    A configuration only counts as stuck when it has no moves even
    before the queue cap is applied, so capped sends never masquerade as
    deadlocks; hitting either cap sets the truncated flag instead.
    Configurations are visited, and successors listed, in `step` order.
    """
    kernel = _compiled(csm)
    report = ExploreReport()
    start = kernel.initial
    # internal configuration -> its public one, for every admitted config
    seen = {start: kernel.public(start)}
    beyond: dict = {}  # the same for successors dropped by the config cap
    report.configs.append(seen[start])
    frontier = deque([start])
    while frontier:
        config = frontier.popleft()
        here = seen[config]
        moves = kernel.sorted_moves(config)
        allowed = []
        for _, _, ev, succ, size in moves:
            if size and size > queue_cap:  # only sends have a size
                report.truncated = True
                continue
            public = seen.get(succ)
            if public is None:
                if len(seen) >= config_cap:
                    report.truncated = True
                    public = beyond.get(succ)
                    if public is None:
                        public = beyond[succ] = kernel.public(succ)
                else:
                    public = seen[succ] = kernel.public(succ)
                    report.parent[public] = (here, ev)
                    report.configs.append(public)
                    frontier.append(succ)
            allowed.append((ev, public))
        report.edges[here] = tuple(allowed)
        final = kernel.is_final(config)
        if not moves:
            (report.finals if final else report.deadlocks).append(here)
            if not kernel.is_final_sink(config):
                report.soft_deadlocks.append(here)
        elif final:
            report.finals.append(here)
    return report


def csm_language_upto(csm: Csm, k: int, *,
                      queue_cap: Optional[int] = None) -> dict:
    """Traces of runs of length <= k, flagged complete on final configs.

    Words map to the set of configurations they reach, so the flags are
    exact even for non-deterministic components.  Words are listed by
    length, each length in the order of its prefixes and then by
    `Event.sort_key` of the last letter.
    """
    kernel = _compiled(csm)

    def out(config: tuple) -> list:
        return [(ev, succ) for _, _, ev, succ, size in kernel.moves(config)
                if queue_cap is None or not size or size <= queue_cap]

    return bounded_traces((kernel.initial,), out,
                          lambda configs: _eps_reach(kernel, configs),
                          kernel.is_final, k)


def _eps_reach(kernel: _Kernel, configs) -> frozenset:
    """The internal configurations reachable by epsilon moves alone."""
    def successors(config: tuple) -> list:
        states, queues = config
        return [(states[:i] + (dst,) + states[i + 1:], queues)
                for i, s in enumerate(states) for dst in kernel.eps[i][s]]

    return frozenset(reachable(configs, successors))


@dataclass(frozen=True)
class ProjectionVerdict:
    passed: bool
    reasons: tuple[str, ...]
    bounded_only: bool = False

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
    start = (machine.initial, tuple(0 for _ in subjects))
    seen = {start}
    stack = [start]
    while stack:
        q, positions = stack.pop()
        if positions == done:
            return True
        for ev, dst in machine.out(q):
            nxt = (dst, positions)
            if ev is not None:
                i = slot.get(ev.subject)
                if i is not None and positions[i] < done[i]:
                    if targets[subjects[i]][positions[i]] != ev:
                        continue
                    nxt = (dst, positions[:i] + (positions[i] + 1,)
                           + positions[i + 1:])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


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
        found = set(vectors)
        work = list(found)
        while work:
            vector = work.pop()
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
                shorter = vector[:i] + (self.parent[node],) + vector[i + 1:]
                if shorter not in found:
                    found.add(shorter)
                    work.append(shorter)
        return found

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

        order = [(0,) * len(names)]
        seen = set(order)
        for progress in order:
            for _, nxt in moves(progress):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
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

    Walks (configuration, vector) pairs, so each is visited once however
    many interleavings lead there.  Receives consume their channel's
    head and epsilon moves leave the vector alone, as in `moves`.
    """
    length = {(kernel.initial, views.empty): 0}  # pair -> vector length
    work = list(length)
    complete: dict = {}
    while work:
        config, vector = pair = work.pop()
        complete[vector] = complete.get(vector) or kernel.is_final(config)
        for _, _, ev, succ, _ in kernel.moves(config):
            if ev is None:
                nxt, size = (succ, vector), length[pair]
            elif length[pair] < k:
                nxt, size = (succ, views.extend(vector, ev)), length[pair] + 1
            else:
                continue
            if nxt not in length:
                length[nxt] = size
                work.append(nxt)
    return complete


def check_projection(psm: Psm, csm: Csm, k: int) -> ProjectionVerdict:
    """Bounded oracle: deadlock-freedom plus language agreement up to k.

    The languages are compared as sets of projection vectors (`_Views`),
    which stand for the swap closures of their words: the complete
    vectors of the CSM and of the machine's complete traces must agree,
    every CSM vector must embed into the machine's prefix semantics,
    and every realisable prefix of a vector of the machine's bounded
    traces must be a CSM vector.  The machine's words must be FIFO, as
    `validate` certifies.  Witnesses are rebuilt from their vectors: the
    shortest word, ties broken by printed form, except that an added
    prefix is the first word `csm_language_upto` lists.
    """
    from .core import expand_pairs, maximal_traces_upto
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

    trimmed = expand_pairs(psm.machine).trim()
    unembedded: list = []
    for vector in sorted(csm_vectors, key=views.length):
        if unembedded and views.length(vector) > views.length(unembedded[0]):
            break
        if not _embeds(trimmed, views.parts(vector)):
            unembedded.append(vector)
    if unembedded:
        word = min((views.least(v, _letter_keys) for v in unembedded),
                   key=_letter_keys)
        reasons.append(f"CSM adds prefix {_fmt(word)}")

    missing = views.prefixes(machine_vectors) - csm_vectors.keys()
    if missing:
        reasons.append(f"CSM misses prefix {_fmt(views.first(missing))}")
    return ProjectionVerdict(not reasons, tuple(reasons),
                             bounded_only=report.truncated)


def _fmt(word: Word) -> str:
    return format_word(word) if word else "ε"


def simulate(csm: Csm, seed: int = 0, max_steps: int = 100) -> Word:
    """One pseudorandom scheduler run; deterministic for a given seed."""
    rng = random.Random(seed)
    kernel = _compiled(csm)
    config = kernel.initial
    trace: list[Event] = []
    for _ in range(max_steps):
        moves = kernel.sorted_moves(config)
        if not moves:
            break
        _, _, ev, config, _ = moves[rng.randrange(len(moves))]
        if ev is not None:
            trace.append(ev)
    return tuple(trace)


# -- serialisation ---------------------------------------------------------


def csm_to_json(csm: Csm) -> dict:
    return {p: machine_to_json(m) for p, m in csm.components.items()}


def csm_from_json(data) -> Csm:
    """The CSM a `csm_to_json` document describes; raises MalformedInput
    on any other JSON value."""
    if not isinstance(data, dict):
        raise MalformedInput(f"malformed CSM: expected a JSON object, "
                             f"got {type(data).__name__}")
    components = {p: machine_from_json(m) for p, m in data.items()}
    try:
        return Csm(components)
    except ValueError as exc:
        raise MalformedInput(f"malformed CSM: {exc}") from None


def dump_csm(csm: Csm) -> str:
    return json.dumps(csm_to_json(csm), indent=2, sort_keys=True) + "\n"


def load_csm(text: str) -> Csm:
    return csm_from_json(json.loads(text))


def csm_to_dot(csm: Csm, name: str = "csm") -> str:
    lines = [f"digraph \"{name}\" {{", "  rankdir=LR;"]
    for p, m in csm.components.items():
        lines.append(f"  subgraph \"cluster_{p}\" {{")
        lines.append(f"    label=\"{p}\";")
        lines.append(f"    \"{p}__start\" [shape=point];")
        for q in sorted(m.states):
            shape = "doublecircle" if q in m.finals else "circle"
            lines.append(f"    \"{p}:{q}\" [label=\"{q}\", shape={shape}];")
        lines.append(f"    \"{p}__start\" -> \"{p}:{m.initial}\";")
        for src, ev, dst in m.transitions:
            label = "ε" if ev is None else str(ev)
            lines.append(f"    \"{p}:{src}\" -> \"{p}:{dst}\" [label=\"{label}\"];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
