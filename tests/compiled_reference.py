"""The string-named analyses that `core.Compiled`, `encoding.Fused` and
`psm.choice_report` replaced, kept as a test-only reference, verbatim
but for absolute imports and for the `StateMachine` methods `is_dense`,
`immediate_receive` and `has_pure_eps_cycle`, here functions that take
the machine as `self`: density, the epsilon-cycle check, the receive
that immediately follows a send, `psm.detected_channels` on a machine,
`encoding.merge_immediate_pairs`, which fused exchanges on the machine
it was given and trimmed what it built, and the choice classifier with
its single-sender check (`classify_choice`, `single_sender_branching`).
`validate`, `is_tame` and the projection's gate ran these on the
expanded, trimmed machine, and `test_compiled_protocol.py` requires the
compiled form to give the same answers.
"""

from __future__ import annotations

from typing import Optional

from amp.core import (PAIR, RECV, SEND, Event, StateMachine, expand_pairs,
                      nodes_on_cycles, pair)
from amp.psm import DIRECTED, MIXED, NON_DETERMINISTIC, SENDER_DRIVEN

Channel = tuple[str, str]


def is_dense(self) -> bool:
    """Epsilon transitions are only allowed as a state's sole exit."""
    for q in self.states:
        outs = self._out[q]
        if any(ev is None for ev, _ in outs) and len(outs) != 1:
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


def detected_channels(machine: StateMachine) -> frozenset[Channel]:
    """Channels where some send is not immediately followed by its
    unique matching receive."""
    machine = expand_pairs(machine)
    detected: set[Channel] = set()
    for src, ev, dst in machine.transitions:
        if ev is None or ev.kind != SEND:
            continue
        if immediate_receive(machine, ev, dst) is None:
            detected.add(ev.channel)
    return frozenset(detected)


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
        after = immediate_receive(machine, ev, dst)
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


def _branch_events(machine: StateMachine, q: str) -> list[Event]:
    return [ev for ev, _ in machine.out(q) if ev is not None]


def classify_choice(machine: StateMachine) -> str:
    """Classify branching: directed < sender-driven < mixed < non-deterministic.

    Sender-driven means the machine is deterministic and every branching
    state offers only send actions by a single participant; directed
    additionally fixes the receiver; mixed requires determinism only.
    """
    if not machine.is_deterministic():
        return NON_DETERMINISTIC
    directed = True
    for q in machine.states:
        events = _branch_events(machine, q)
        senders = {ev.sender for ev in events if ev.kind in (SEND, PAIR)}
        if events and (any(ev.kind == RECV for ev in events)
                       or len(senders) != 1
                       or len({ev.receiver for ev in events}) != 1):
            directed = False
            break
    if directed:
        return DIRECTED
    if single_sender_branching(machine)[0]:
        return SENDER_DRIVEN
    return MIXED


def single_sender_branching(machine: StateMachine) -> tuple[bool, Optional[str]]:
    """Every branching state offers only sends by one participant.

    This is the structural half of tameness; unlike sender-driven choice
    it tolerates duplicated actions, which the projection pipeline
    rejects later with a semantic witness instead.
    """
    for q in sorted(machine.states):
        events = _branch_events(machine, q)
        if len(events) <= 1:
            continue
        if any(ev.kind == RECV for ev in events):
            return False, q
        if len({ev.sender for ev in events}) != 1:
            return False, q
    return True, None
