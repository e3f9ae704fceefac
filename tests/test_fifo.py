"""Tests for FIFO words, the swap relation, and its closure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp.fifo import (COMPLETE, OK, VIOLATION, closure_upto, format_word,
                      is_fifo, project, swap_step)
from amp.core import TraceFlags, recv, send

from .conftest import random_bounded_complete_word, random_fifo_word
from .semantics import (check_feasible_eventual_reception_language, equivalent,
                        is_b_bounded, match_report, parse_word)


def test_project_keeps_matching_letters():
    w = parse_word("p>q!1 c>b!x")
    assert project(w, participant="p") == (send("p", "q", "1"),)
    assert project((), participant="p") == ()


def test_project_participant_alphabet():
    """The relay's own events in the top branch: receive 1, send v."""
    w = parse_word("p>q!m1 p>q?m1 q>r!1 q>r?1 r>p!v1 r>p?v1")
    assert project(w, participant="r") == parse_word("q>r?1 r>p!v1")


def test_project_channel_direction():
    w = parse_word("p>q!a q>p!b p>q?a")
    assert project(w, channel=("p", "q")) == parse_word("p>q!a p>q?a")


def test_is_fifo_mismatch_position():
    report = is_fifo(parse_word("p>q!1 p>q?2"))
    assert report.status == VIOLATION and report.position == 2


def test_is_fifo_empty_and_cross_channel():
    assert is_fifo(()).status == COMPLETE
    assert is_fifo(parse_word("p>q!a r>q!b p>q?a r>q?b")).status == COMPLETE
    assert is_fifo(parse_word("p>q!a")).status == OK


def test_match_report_pairs_positions():
    w = parse_word("p>q!a p>q!b p>q?a")
    report = match_report(w)
    assert report.matched == {0: 2}
    assert report.unmatched == {1}


def test_b_bounded_modes():
    assert is_b_bounded(parse_word("p>q!m p>q?m"), 1, "sum")
    kle_trace = parse_word("e>o!0 o>e!0 e>o?0 o>e?0 o>e!win o>e?win")
    assert is_b_bounded(kle_trace, 1, "per-channel")
    assert not is_b_bounded(kle_trace, 1, "sum")
    triple = parse_word("p>q!m p>q!m p>q!m")
    assert not is_b_bounded(triple, 2)
    with pytest.raises(ValueError):
        is_b_bounded(parse_word("p>q?m"), 1)


def test_swap_send_then_matching_recv_blocked():
    assert swap_step(parse_word("p>q!v p>q?v"), 0) is None


def test_swap_same_channel_with_backlog():
    w = parse_word("p>q!v p>q!v p>q?v")
    assert swap_step(w, 1) == parse_word("p>q!v p>q?v p>q!v")


def test_swap_independent_sends():
    w = parse_word("p>q!m c>d!n")
    assert swap_step(w, 0) == parse_word("c>d!n p>q!m")
    same_sender = parse_word("p>q!m p>d!n")
    assert swap_step(same_sender, 0) is None


def test_swap_independent_receives():
    w = parse_word("p>q?m c>d?n")
    assert swap_step(w, 0) == parse_word("c>d?n p>q?m")
    same_receiver = parse_word("p>q?m c>q?n")
    assert swap_step(same_receiver, 0) is None


def test_swap_send_past_unrelated_receive():
    w = parse_word("p>q!m c>d?n")
    assert swap_step(w, 0) == parse_word("c>d?n p>q!m")
    # The send's own sender may not jump over a receive aimed at it.
    blocked = parse_word("p>q!m c>p?n")
    assert swap_step(blocked, 0) is None


def test_closure_of_two_exchanges():
    w = parse_word("p>q!m c>d!n p>q?m c>d?n")
    closure = closure_upto([w])
    assert len(closure) == 6
    assert parse_word("c>d!n c>d?n p>q!m p>q?m") in closure
    for u in closure:
        for v in closure:
            assert equivalent(u, v)


def test_closure_idempotent_extensive(rng):
    for _ in range(10):
        words = {random_fifo_word(rng, 6) for _ in range(3)}
        once = closure_upto(words)
        assert words <= once
        assert closure_upto(once) == once


def test_closure_members_stay_fifo(rng):
    for _ in range(20):
        w = random_fifo_word(rng, 7)
        for u in closure_upto([w]):
            assert is_fifo(u).status != VIOLATION


def test_closure_respects_projections(rng):
    """Swapped words keep every participant's own event order."""
    for _ in range(20):
        w = random_fifo_word(rng, 7)
        for u in closure_upto([w]):
            for participant in "pqr":
                assert project(u, participant=participant) == \
                    project(w, participant=participant)


def test_equal_projections_imply_equivalence(rng):
    """The converse direction, on sibling complete words: every FIFO
    word with w's projections is equivalent to w."""
    for _ in range(10):
        w = random_bounded_complete_word(rng, 4)
        subjects = sorted({ev.subject for ev in w})
        parts = tuple(project(w, participant=p) for p in subjects)
        siblings = [u for u in _interleavings(parts)
                    if is_fifo(u).status != VIOLATION]
        assert w in siblings
        for u in siblings:
            assert equivalent(u, w), (format_word(u), format_word(w))


def _interleavings(parts: tuple):
    """Every shuffle of the given sequences."""
    if not any(parts):
        yield ()
        return
    for i, part in enumerate(parts):
        if part:
            rest = parts[:i] + (part[1:],) + parts[i + 1:]
            for tail in _interleavings(rest):
                yield (part[0],) + tail


@pytest.mark.parametrize("complete", [False, True])
def test_closure_is_the_fifo_interleavings_of_the_projections(complete):
    """The swap closure of a FIFO word holds exactly the FIFO words with
    the same projection onto every participant."""
    for seed in range(100):
        rng = random.Random(seed)
        w = (random_bounded_complete_word(rng, 4) if complete
             else random_fifo_word(rng, 7))
        subjects = sorted({ev.subject for ev in w})
        parts = tuple(project(w, participant=p) for p in subjects)
        same_views = {u for u in _interleavings(parts)
                      if is_fifo(u).status != VIOLATION}
        assert closure_upto([w]) == same_views, format_word(w)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_closure_idempotence_property(seed):
    rng = random.Random(seed)
    w = random_fifo_word(rng, 6)
    once = closure_upto([w])
    assert closure_upto(once) == once


def test_word_literals_roundtrip():
    w = parse_word("p->q:m r>s!x")
    assert w == (send("p", "q", "m"), recv("p", "q", "m"), send("r", "s", "x"))
    assert parse_word(format_word(w)) == w
    with pytest.raises(ValueError):
        parse_word("nonsense!!")


def test_fer_sample_positive_and_negative():
    complete = parse_word("p>q!m p>q?m")
    sample = {(): TraceFlags(False, True),
              complete[:1]: TraceFlags(False, True),
              complete: TraceFlags(True, False)}
    assert check_feasible_eventual_reception_language(sample)
    dangling = {(): TraceFlags(False, True),
                complete[:1]: TraceFlags(False, True)}
    assert not check_feasible_eventual_reception_language(dangling)


def test_fer_preserved_and_reflected_by_closure(rng):
    """Closing a sample neither creates nor destroys reception gaps."""
    for _ in range(10):
        w = random_bounded_complete_word(rng, 4)
        words = {w[:i] for i in range(len(w) + 1)}
        sample = {u: TraceFlags(u == w, u != w) for u in words}
        assert check_feasible_eventual_reception_language(sample)
        closed = closure_upto(words)
        closed_sample = {u: TraceFlags(is_fifo(u).status == COMPLETE, True)
                         for u in closed}
        assert check_feasible_eventual_reception_language(closed_sample)
