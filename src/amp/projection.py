"""Projection: subset construction per participant, the tame-PSM
pipeline (encode, project, decode), and strong-projection analysis.

The pipeline is self-checking: a candidate CSM is only returned after it
passes the structural validity filter and the bounded semantic oracle
(deadlock exploration plus language agreement with the source machine).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import (Event, PAIR, SEND, StateMachine, eps_closure, recv, send,
                   subset_moves)
from .csm import Csm, ProjectionVerdict, check_projection
from .encoding import (channel_participants, decode_fsm, encode_psm,
                       is_amicable)
from .psm import (Psm, PsmError, UnboundedLoop, infer_channel_bounds,
                  single_sender_branching, validate)


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

    out = erased.__getitem__

    def name(states: frozenset) -> str:
        return "{" + ",".join(sorted(states)) + "}"

    start = eps_closure((machine.initial,), out)
    index = {start: name(start)}
    frontier = deque([start])
    transitions = []
    while frontier:
        states = frontier.popleft()
        moves = subset_moves(states, out)
        for label in sorted(moves, key=Event.sort_key):
            succ = eps_closure(moves[label], out)
            if succ not in index:
                index[succ] = name(succ)
                frontier.append(succ)
            transitions.append((index[states], label, index[succ]))
    finals = {index[s] for s in index if s & machine.finals}
    return StateMachine(set(index.values()), index[start], finals, transitions)


def minimize(machine: StateMachine) -> StateMachine:
    """Merge language-equivalent states of a deterministic machine.

    Hopcroft's partition refinement in Valmari & Lehtinen's form for
    partial transition functions (STACS 2008): a missing transition
    leads to an implicit dead state, so every initial block starts on
    the worklist, and after that only the smaller half of each split.
    A splitter is refined by just the events that enter it.  Class
    names are derived from their members so the result is canonical.
    """
    machine = machine.trim()
    # incoming[dst][event] = the states with an `event` transition to dst
    incoming: dict = {q: {} for q in machine.states}
    for src, ev, dst in machine.transitions:
        incoming[dst].setdefault(ev, []).append(src)
    blocks = [block for block in (set(machine.finals),
                                  set(machine.states - machine.finals))
              if block]
    block_of = {q: b for b, block in enumerate(blocks) for q in block}
    work = list(range(len(blocks)))
    waiting = set(work)
    while work:
        splitter = work.pop()
        waiting.discard(splitter)
        preimages: dict = {}
        for dst in blocks[splitter]:
            for ev, sources in incoming[dst].items():
                preimages.setdefault(ev, set()).update(sources)
        for sources in preimages.values():
            touched: dict = {}
            for q in sources:
                touched.setdefault(block_of[q], []).append(q)
            for b, members in touched.items():
                if len(members) == len(blocks[b]):
                    continue
                split = len(blocks)
                blocks[b].difference_update(members)
                blocks.append(set(members))
                for q in members:
                    block_of[q] = split
                if b not in waiting and len(blocks[b]) < len(members):
                    split = b
                work.append(split)
                waiting.add(split)
    order = sorted(range(len(blocks)), key=lambda b: min(blocks[b]))
    number = {b: i for i, b in enumerate(order)}
    rename = {q: f"c{number[block_of[q]]}" for q in machine.states}
    transitions = {(rename[s], ev, rename[d]) for s, ev, d in machine.transitions}
    merged = StateMachine(set(rename.values()), rename[machine.initial],
                          {rename[q] for q in machine.finals}, transitions)
    return canonical_names(merged)


def canonical_names(machine: StateMachine, prefix: str = "s") -> StateMachine:
    """Rename states to s0, s1, ... in breadth-first transition order."""
    names = {machine.initial: f"{prefix}0"}
    frontier = deque([machine.initial])
    while frontier:
        q = frontier.popleft()
        for _, dst in machine.out(q):
            if dst not in names:
                names[dst] = f"{prefix}{len(names)}"
                frontier.append(dst)
    for q in sorted(machine.states):
        if q not in names:
            names[q] = f"{prefix}{len(names)}"
    return machine.rename(names)


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]  # (participant, state, event)


def check_validity(projections: dict[str, StateMachine]) -> ValidityReport:
    """Structural pre-filter: no final state may have an outgoing send.

    The full validity conditions of a complete projection live in the
    semantic oracle; this fast check catches the recorded failure shape.
    """
    violations = []
    for participant, machine in sorted(projections.items()):
        for q in sorted(machine.finals):
            for ev, _ in machine.out(q):
                if ev is not None and ev.kind == SEND:
                    violations.append((participant, q, str(ev)))
    return ValidityReport(not violations, tuple(violations))


class NotTame(PsmError):
    pass


class NotProjectable(PsmError):
    pass


@dataclass
class ProjectionResult:
    csm: Csm
    bounds: dict
    encoded: StateMachine
    validity: ValidityReport
    verdict: ProjectionVerdict


def project_tame(source, *, k: int = 6) -> ProjectionResult:
    """Project a tame protocol machine to a deadlock-free CSM.

    Encodes bounded channels through forwarder participants, runs the
    subset construction for every participant, minimises, checks
    validity, decodes, and finally replays the bounded oracle against
    the source.  Raises NotTame when the structural gate fails
    (multi-sender branching, non-sink-final, no inferable bounds) and
    NotProjectable with a report when a candidate exists but is wrong.

    `check_validity` is a fast structural pre-filter over the subset
    machines; the bounded semantic oracle always runs afterwards and is
    what acceptance rests on.
    """
    psm = source if isinstance(source, Psm) else validate(source)
    machine = psm.machine.trim()

    if not machine.is_sink_final():
        raise NotTame("machine is not sink-final")
    ok, state = single_sender_branching(machine)
    if not ok:
        raise NotTame(f"state {state!r} branches on mixed or multi-sender actions")
    try:
        bounds = infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        raise NotTame(f"no channel bounds: {exc}") from exc

    encoded = encode_psm(machine, bounds)
    participants = set(machine.participants())
    cps = channel_participants(bounds)

    projections = {p: minimize(subset_construction(encoded, p))
                   for p in sorted(participants)}
    cp_machines = {cp.name: minimize(subset_construction(encoded, cp.name))
                   for cp in cps}

    validity = check_validity({**projections, **cp_machines})
    if not validity.ok:
        participant, state, event = validity.violations[0]
        raise NotProjectable(f"check check_validity: state {state} of "
                             f"{participant} rejects {event}")

    if cps and not is_amicable({**projections, **cp_machines}, bounds, k=k + 2):
        raise NotProjectable("forwarder components are not amicable")

    # Distinct state names across components, so the CSM can type sessions.
    csm = Csm({p: canonical_names(decode_fsm(m), prefix=f"{p}_")
               for p, m in projections.items()})
    verdict = check_projection(psm, csm, k)
    if not verdict.passed:
        raise NotProjectable("; ".join(verdict.reasons))
    return ProjectionResult(csm, bounds, encoded, validity, verdict)


@dataclass(frozen=True)
class StrongReport:
    strong: bool
    witnesses: tuple[tuple[str, str], ...]  # (participant, final non-sink state)


def strong_report(csm: Csm) -> StrongReport:
    """The final non-sink states of an already projected CSM.

    A projection is strong when every component is sink-final; an empty
    witness list means the CSM is also free of soft deadlocks.
    """
    witnesses = []
    for participant, machine in csm.components.items():
        for q in sorted(machine.finals):
            if not machine.is_sink(q):
                witnesses.append((participant, q))
    return StrongReport(not witnesses, tuple(witnesses))
