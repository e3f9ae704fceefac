"""The CSM semantics, oracle and scheduler as they stood before the
compiled kernel, kept as a test-only reference: verbatim but for
absolute imports, the exploration report, which `amp.csm` now builds
from packed arrays and which is kept here as the plain dataclass it was,
and one later fix, shared with `amp.csm`: the oracle's complete-word
witnesses break length ties by their printed form, so they do not
depend on the hash seed.

`test_csm_kernel.py` runs these next to `amp.csm` and requires equal
reports, languages and verdicts, in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from amp.core import Event, SEND, StateMachine, Word, parent_word
from amp.csm import (Channel, Configuration, Csm, ProjectionVerdict, _fmt,
                     is_final_config)
from amp.fifo import closure_upto
from amp.psm import Psm

from .semantics import initial_config, is_final_sink_config


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


def _with_state(config: Configuration, participant: str, state: str) -> tuple:
    return tuple((p, state if p == participant else q) for p, q in config.states)


def _with_queue(config: Configuration, channel: Channel, content: tuple) -> tuple:
    rest = [(ch, c) for ch, c in config.channels if ch != channel]
    if content:
        rest.append((channel, content))
    return tuple(sorted(rest))


def step(csm: Csm, config: Configuration) -> tuple:
    """All (event-or-None, successor) moves from a configuration.

    A send appends to its channel, a receive pops a matching head, and an
    epsilon transition moves one participant.  The result is sorted, so
    exploration and simulation are deterministic.
    """
    moves = []
    for p, q in config.states:
        for ev, dst in csm.components[p].out(q):
            if ev is None:
                moves.append((None, Configuration(_with_state(config, p, dst),
                                                  config.channels)))
            elif ev.kind == SEND:
                content = config.queue(ev.channel)
                moves.append((ev, Configuration(
                    _with_state(config, p, dst),
                    _with_queue(config, ev.channel, content + (ev.message(),)))))
            else:
                content = config.queue(ev.channel)
                if content and content[0] == ev.message():
                    moves.append((ev, Configuration(
                        _with_state(config, p, dst),
                        _with_queue(config, ev.channel, content[1:]))))
    moves.sort(key=lambda m: ((0,) if m[0] is None else (1,) + m[0].sort_key(),
                              m[1].states, m[1].channels))
    return tuple(moves)


def explore(csm: Csm, *, queue_cap: int = 8,
            config_cap: int = 100_000) -> ExploreReport:
    """Breadth-first exploration up to the caps.

    A configuration only counts as stuck when it has no moves even
    before the queue cap is applied, so capped sends never masquerade as
    deadlocks; hitting either cap sets the truncated flag instead.
    """
    report = ExploreReport()
    start = initial_config(csm)
    seen = {start}
    report.configs.append(start)
    frontier = [start]
    while frontier:
        config = frontier.pop(0)
        moves = step(csm, config)
        allowed = []
        for ev, succ in moves:
            if ev is not None and ev.kind == SEND and \
                    len(succ.queue(ev.channel)) > queue_cap:
                report.truncated = True
                continue
            allowed.append((ev, succ))
        report.edges[config] = tuple(allowed)
        if not moves:
            if is_final_config(csm, config):
                report.finals.append(config)
            else:
                report.deadlocks.append(config)
            if not is_final_sink_config(csm, config):
                report.soft_deadlocks.append(config)
        elif is_final_config(csm, config):
            report.finals.append(config)
        for ev, succ in allowed:
            if succ not in seen:
                if len(seen) >= config_cap:
                    report.truncated = True
                    continue
                seen.add(succ)
                report.parent[succ] = (config, ev)
                report.configs.append(succ)
                frontier.append(succ)
    return report


def csm_language_upto(csm: Csm, k: int, *,
                      queue_cap: Optional[int] = None) -> dict:
    """Traces of runs of length <= k, flagged complete on final configs.

    Words map to the set of configurations they reach, so the flags are
    exact even for non-deterministic components.
    """
    from amp.core import TraceFlags
    result: dict[Word, TraceFlags] = {}
    frontier: dict[Word, frozenset[Configuration]] = {
        (): _eps_reach(csm, frozenset([initial_config(csm)]))}
    for length in range(k + 1):
        nxt: dict[Word, frozenset[Configuration]] = {}
        for word, configs in frontier.items():
            moves: dict[Event, set[Configuration]] = {}
            for config in configs:
                for ev, succ in step(csm, config):
                    if ev is None:
                        continue
                    if (queue_cap is not None and ev.kind == SEND
                            and len(succ.queue(ev.channel)) > queue_cap):
                        continue
                    moves.setdefault(ev, set()).add(succ)
            result[word] = TraceFlags(
                complete=any(is_final_config(csm, c) for c in configs),
                extendable=bool(moves),
            )
            if length < k:
                for ev in sorted(moves, key=Event.sort_key):
                    nxt[word + (ev,)] = _eps_reach(csm, frozenset(moves[ev]))
        frontier = nxt
    return result


def _eps_reach(csm: Csm, configs: frozenset) -> frozenset:
    seen = set(configs)
    stack = list(configs)
    while stack:
        config = stack.pop()
        for ev, succ in step(csm, config):
            if ev is None and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return frozenset(seen)


def word_embeds(machine: StateMachine, word: Word) -> bool:
    """Whether `word` is a prefix of the machine's closed semantics.

    A FIFO word belongs to the prefix language exactly when each
    participant's projection of it is a prefix of that participant's
    projection of a single run; searched over (state, progress vector)
    pairs on the trimmed machine, where every state extends maximally.
    """
    from amp.core import expand_pairs
    from amp.fifo import VIOLATION, is_fifo, project
    if is_fifo(word).status == VIOLATION:
        return False
    machine = expand_pairs(machine).trim()
    subjects = sorted({ev.subject for ev in word})
    targets = {p: project(word, participant=p) for p in subjects}
    done = tuple(len(targets[p]) for p in subjects)
    start = (machine.initial, tuple(0 for _ in subjects))
    seen = {start}
    stack = [start]
    while stack:
        q, positions = stack.pop()
        if positions == done:
            return True
        for ev, dst in machine.out(q):
            if ev is None:
                nxt = (dst, positions)
            else:
                p = ev.subject
                if p in targets:
                    i = subjects.index(p)
                    if positions[i] < done[i]:
                        if targets[p][positions[i]] != ev:
                            continue
                        advanced = list(positions)
                        advanced[i] += 1
                        nxt = (dst, tuple(advanced))
                    else:
                        nxt = (dst, positions)
                else:
                    nxt = (dst, positions)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def check_projection(psm: Psm, csm: Csm, k: int, *,
                     queue_cap: Optional[int] = None,
                     closure_cap: int = 1_000_000) -> ProjectionVerdict:
    """Bounded oracle: deadlock-freedom plus language agreement up to k.

    Complete words are compared exactly against the swap closure of the
    machine's complete traces (swaps preserve length).  Every CSM trace
    must embed into the machine's prefix semantics, and conversely the
    closure of the machine's bounded traces must be CSM-reachable.
    """
    from amp.core import maximal_traces_upto
    from .semantics import complete_traces
    reasons: list[str] = []
    if queue_cap is None:
        per_channel = max(psm.bound_by_channel.values(), default=psm.bound_total)
        queue_cap = max(per_channel, 1) + 1
    report = explore(csm, queue_cap=queue_cap)
    if report.deadlocks:
        reasons.append(
            f"deadlock after {_fmt(report.witness(report.deadlocks[0]))}")

    machine_traces = maximal_traces_upto(psm.machine, k)
    psm_complete = closure_upto(
        complete_traces(machine_traces), closure_cap)

    csm_traces = csm_language_upto(csm, k)
    csm_complete = complete_traces(csm_traces)

    if psm_complete != csm_complete:
        missing = sorted(psm_complete - csm_complete,
                         key=lambda w: (len(w), _fmt(w)))
        extra = sorted(csm_complete - psm_complete,
                       key=lambda w: (len(w), _fmt(w)))
        if missing:
            reasons.append(f"CSM misses complete word {_fmt(missing[0])}")
        if extra:
            reasons.append(f"CSM adds complete word {_fmt(extra[0])}")

    for word in sorted(csm_traces, key=len):
        if not word_embeds(psm.machine, word):
            reasons.append(f"CSM adds prefix {_fmt(word)}")
            break

    genuine = {w[:i] for w in closure_upto(set(machine_traces), closure_cap)
               for i in range(len(w) + 1)}
    missing_prefixes = genuine - set(csm_traces)
    if missing_prefixes:
        shortest = min(missing_prefixes, key=lambda w: (len(w), _fmt(w)))
        reasons.append(f"CSM misses prefix {_fmt(shortest)}")
    return ProjectionVerdict(not reasons, tuple(reasons),
                             bounded_only=not reasons)


def simulate(csm: Csm, seed: int = 0, max_steps: int = 100) -> Word:
    """One pseudorandom scheduler run; deterministic for a given seed."""
    rng = random.Random(seed)
    config = initial_config(csm)
    trace: list[Event] = []
    for _ in range(max_steps):
        moves = step(csm, config)
        if not moves:
            break
        ev, config = moves[rng.randrange(len(moves))]
        if ev is not None:
            trace.append(ev)
    return tuple(trace)
