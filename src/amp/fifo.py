"""FIFO words: projection, the FIFO prefix check, swaps, and closure.

Words are tuples of send/receive events.  The swap relation captures
which adjacent events a network scheduler could reorder without any
participant noticing; its reflexive-transitive closure is the
indistinguishability equivalence used throughout the library.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import Event, PAIR, RECV, Record, SEND, Word

OK = "ok"
COMPLETE = "complete"
VIOLATION = "violation"

DEFAULT_CLOSURE_CAP = 100_000


class ClosureCapExceeded(RuntimeError):
    """Raised when a swap closure grows past its configured cap."""


def project(word: Word, *, participant: Optional[str] = None,
            channel: Optional[tuple[str, str]] = None) -> Word:
    """Keep the letters of a participant, or of a channel."""

    def keep(ev: Event) -> bool:
        if participant is not None and ev.subject != participant:
            return False
        if channel is not None and ev.channel != channel:
            return False
        return True

    return tuple(ev for ev in word if keep(ev))


class FifoReport(Record):
    __slots__ = ("status", "position")
    def __init__(self, status: str, position: Optional[int] = None):
        self.status, self.position = status, position


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


# -- word literals -------------------------------------------------------


def format_word(word: Word) -> str:
    return " ".join(str(ev) for ev in word)


def show_word(word: Iterable[Event]) -> str:
    """`format_word` for a reader: the empty word shows as ε."""
    return format_word(word) or "ε"
