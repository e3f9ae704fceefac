"""FIFO words: projection, matching, boundedness, swaps, and closure.

Words are tuples of send/receive events.  The swap relation captures
which adjacent events a network scheduler could reorder without any
participant noticing; its reflexive-transitive closure is the
indistinguishability equivalence used throughout the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .core import Event, PAIR, RECV, SEND, TraceFlags, Word, recv, send

OK = "ok"
COMPLETE = "complete"
VIOLATION = "violation"

DEFAULT_CLOSURE_CAP = 100_000


class ClosureCapExceeded(RuntimeError):
    """Raised when a swap closure grows past its configured cap."""


def project(word: Word, *, participant: Optional[str] = None,
            channel: Optional[tuple[str, str]] = None,
            kind: Optional[str] = None) -> Word:
    """Keep the letters matching a participant or channel-direction pattern."""

    def keep(ev: Event) -> bool:
        if participant is not None and ev.subject != participant:
            return False
        if channel is not None and ev.channel != channel:
            return False
        if kind is not None and ev.kind != kind:
            return False
        return True

    return tuple(ev for ev in word if keep(ev))


def values(word: Word, channel: tuple[str, str], kind: str) -> tuple:
    """The sequence of messages sent (or received) on one channel."""
    return tuple(ev.message() for ev in word if ev.channel == channel and ev.kind == kind)


@dataclass(frozen=True)
class MatchReport:
    matched: Mapping[int, int]
    unmatched: frozenset[int]


def match_report(word: Word) -> MatchReport:
    """Pair each send position with its FIFO-matching receive position."""
    pending: dict[tuple[str, str], list[int]] = {}
    matched: dict[int, int] = {}
    unmatched: set[int] = set()
    for i, ev in enumerate(word):
        if ev.kind == SEND:
            pending.setdefault(ev.channel, []).append(i)
        elif ev.kind == RECV:
            queue = pending.get(ev.channel, [])
            if queue and word[queue[0]].message() == ev.message():
                matched[queue.pop(0)] = i
            else:
                # Receive with no matching head; callers detect this via is_fifo.
                unmatched.add(i)
    for queue in pending.values():
        unmatched.update(queue)
    return MatchReport(matched, frozenset(unmatched))


@dataclass(frozen=True)
class FifoReport:
    status: str
    position: Optional[int] = None


def is_fifo(word: Word) -> FifoReport:
    """Check the per-channel FIFO prefix condition.

    ``ok`` means every receive consumes the channel head (the condition
    for infinite words); ``complete`` additionally means every send was
    matched; a violation reports the first offending position (1-based).
    """
    queues: dict[tuple[str, str], list[tuple]] = {}
    for i, ev in enumerate(word):
        if ev.kind == PAIR:
            raise ValueError("words contain only send/receive letters")
        if ev.kind == SEND:
            queues.setdefault(ev.channel, []).append(ev.message())
        else:
            queue = queues.get(ev.channel, [])
            if not queue or queue[0] != ev.message():
                return FifoReport(VIOLATION, i + 1)
            queue.pop(0)
    if any(queue for queue in queues.values()):
        return FifoReport(OK)
    return FifoReport(COMPLETE)


def is_b_bounded(word: Word, bound: int, mode: str = "per-channel") -> bool:
    """Check that no prefix leaves more than `bound` messages in flight.

    ``per-channel`` bounds each channel separately; ``sum`` bounds the
    total across channels.  Rejects non-FIFO input.
    """
    if mode not in ("per-channel", "sum"):
        raise ValueError(f"unknown mode {mode!r}")
    if is_fifo(word).status == VIOLATION:
        raise ValueError("is_b_bounded requires a FIFO word")
    counts: dict[tuple[str, str], int] = {}
    total = 0
    for ev in word:
        if ev.kind == SEND:
            counts[ev.channel] = counts.get(ev.channel, 0) + 1
            total += 1
        else:
            counts[ev.channel] -= 1
            total -= 1
        if mode == "per-channel" and counts[ev.channel] > bound:
            return False
        if mode == "sum" and total > bound:
            return False
    return True


def swap_step(word: Word, i: int) -> Optional[Word]:
    """Swap positions i and i+1 if the reordering rules permit it.

    The four rules: sends by different senders commute; receives by
    different receivers commute; a send commutes with an unrelated
    receive; and a send/receive pair on one channel commutes when the
    channel already has a message in flight before position i.
    """
    if not 0 <= i < len(word) - 1:
        raise IndexError("swap position out of range")
    a, b = word[i], word[i + 1]
    swapped = word[:i] + (b, a) + word[i + 2:]
    if a.kind == SEND and b.kind == SEND:
        return swapped if a.sender != b.sender else None
    if a.kind == RECV and b.kind == RECV:
        return swapped if a.receiver != b.receiver else None
    snd, rcv_ = (a, b) if a.kind == SEND else (b, a)
    if snd.channel == rcv_.channel:
        prefix = word[:i]
        sends = sum(1 for ev in prefix if ev.kind == SEND and ev.channel == snd.channel)
        recvs = sum(1 for ev in prefix if ev.kind == RECV and ev.channel == snd.channel)
        return swapped if sends > recvs else None
    if snd.sender != rcv_.receiver:
        return swapped
    return None


def closure_upto(words: Iterable[Word], cap: int = DEFAULT_CLOSURE_CAP) -> frozenset[Word]:
    """The least set containing `words` and closed under single swaps."""
    seen: set[Word] = set(words)
    frontier = list(seen)
    while frontier:
        word = frontier.pop()
        for i in range(len(word) - 1):
            other = swap_step(word, i)
            if other is not None and other not in seen:
                seen.add(other)
                if len(seen) > cap:
                    raise ClosureCapExceeded(
                        f"swap closure exceeded {cap} words; raise the cap "
                        f"or shorten the sample")
                frontier.append(other)
    return frozenset(seen)


def equivalent(u: Word, v: Word, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Whether u and v are reachable from each other under swaps."""
    if sorted(ev.sort_key() for ev in u) != sorted(ev.sort_key() for ev in v):
        return False
    return v in closure_upto([u], cap)


def check_feasible_eventual_reception_language(
        sample: Mapping[Word, TraceFlags]) -> bool:
    """Every sampled word with an unmatched send has a sampled extension
    in which that send is matched.

    Sound only relative to the sample: the sample must be prefix-closed,
    and the answer says nothing about extensions beyond it.  Runs in one
    pass: each word discharges the pending sends of all its sampled
    prefixes.
    """
    words = set(sample)
    unresolved: dict[Word, set[int]] = {}
    for w in words:
        report = match_report(w)
        unresolved[w] = {i for i in report.unmatched if w[i].kind == SEND}
    for u in words:
        matched = set(match_report(u).matched)
        if not matched:
            continue
        for k in range(len(u)):
            w = u[:k]
            pending = unresolved.get(w)
            if pending:
                pending -= matched
    return not any(unresolved.values())


# -- word literals -------------------------------------------------------

_SEND_RE = re.compile(r"^(?P<s>[^>!?]+)>(?P<r>[^>!?]+)!(?P<l>[^!?]+)$")
_RECV_RE = re.compile(r"^(?P<s>[^>!?]+)>(?P<r>[^>!?]+)\?(?P<l>[^!?]+)$")
_PAIR_RE = re.compile(r"^(?P<s>[^>!?:]+)->(?P<r>[^>!?:]+):(?P<l>[^:]+)$")


def parse_word(text: str) -> Word:
    """Parse the literal syntax: `p>q!m` send, `p>q?m` receive, and
    `p->q:m` for the send/receive pair; tokens split on whitespace or dots.
    """
    events: list[Event] = []
    for token in re.split(r"[\s.]+", text.strip()):
        if not token:
            continue
        m = _PAIR_RE.match(token)
        if m:
            events.append(send(m["s"], m["r"], m["l"]))
            events.append(recv(m["s"], m["r"], m["l"]))
            continue
        m = _SEND_RE.match(token)
        if m:
            events.append(send(m["s"], m["r"], m["l"]))
            continue
        m = _RECV_RE.match(token)
        if m:
            events.append(recv(m["s"], m["r"], m["l"]))
            continue
        raise ValueError(f"bad event literal {token!r}")
    return tuple(events)


def format_word(word: Word) -> str:
    return " ".join(str(ev) for ev in word)
