"""Tests for the forwarder encoding of words and machines."""

import random

import pytest

from amp.core import Compiled, StateMachine, maximal_traces_upto, recv, send
from amp.encoding import (ChannelParticipant, Fused, decode_fsm, encode_psm,
                          merge_immediate_pairs, parse_channel_participant)
from amp.fifo import closure_upto
from amp.psm import PsmError, infer_channel_bounds, validate

from .conftest import (kle_encoded_expected, kle_machine, random_fifo_word,
                       random_looping_protocol, random_tame_psm,
                       three_party_machine)
from .projection_reference import machine_is_forwarding
from .semantics import (ALMOST, FORWARDING, NO, channel_participant_machine,
                        is_channel_ordered,
                        complete_traces, decode_word, encode_fsm, encode_word,
                        is_forwarding, machine_isomorphic, parse_word)

KLE_BOUNDS = {("e", "o"): 1, ("o", "e"): 1}


def test_channel_participant_names_roundtrip():
    cp = ChannelParticipant("p", "q", 1)
    assert cp.name == "(p,q)1"
    assert parse_channel_participant("(p,q)1") == cp
    assert parse_channel_participant("plain") is None


def test_encode_word_kle_first_event():
    encoded = encode_word(parse_word("e>o!0"), KLE_BOUNDS)
    assert encoded == (send("e", "(e,o)0", "0"), recv("e", "(e,o)0", "0"))


def test_encode_word_alternates_ring_slots():
    word = parse_word("p>q!a p>q!b p>q?a p>q?b")
    encoded = encode_word(word, {("p", "q"): 2})
    receivers = [ev.receiver for ev in encoded if ev.kind == "send"
                 and ev.sender == "p"]
    assert receivers == ["(p,q)0", "(p,q)1"]


def test_encode_word_rejects_bound_violation():
    with pytest.raises(ValueError):
        encode_word(parse_word("p>q!a p>q!b"), {("p", "q"): 1})


def test_encode_word_empty():
    assert encode_word((), KLE_BOUNDS) == ()
    assert decode_word(()) == ()


def test_decode_encode_identity(rng):
    for _ in range(50):
        bounds = {("p", "q"): rng.choice([1, 2]), ("q", "p"): 1}
        word = random_fifo_word(rng, 10, participants=("p", "q", "r"),
                                bounds={**bounds, ("p", "r"): 1,
                                        ("r", "p"): 1, ("q", "r"): 1,
                                        ("r", "q"): 1})
        assert decode_word(encode_word(word, bounds)) == word


def test_encode_decode_identity_on_channel_ordered(rng):
    for _ in range(50):
        bounds = {("p", "q"): rng.choice([1, 2])}
        word = random_fifo_word(rng, 8, participants=("p", "q"),
                                bounds=bounds)
        encoded = encode_word(word, bounds)
        assert is_channel_ordered(encoded, bounds)
        assert encode_word(decode_word(encoded), bounds) == encoded


def test_encode_preserves_swaps(rng):
    """Equivalent bound-respecting words encode to equivalent routed
    words; closure members that overflow the bound are out of scope."""
    from amp.fifo import project
    from .semantics import equivalent, is_b_bounded
    bounds = {("p", "q"): 1, ("q", "p"): 1}

    def respects(word):
        return all(is_b_bounded(project(word, channel=ch), b)
                   for ch, b in bounds.items())

    for _ in range(10):
        word = random_fifo_word(rng, 6, participants=("p", "q"),
                                bounds=bounds)
        for other in closure_upto([word]):
            if respects(other):
                assert equivalent(encode_word(word, bounds),
                                  encode_word(other, bounds), cap=200_000)


def test_decode_preserves_swaps(rng):
    """Equivalent routed words decode to equivalent plain words."""
    from .semantics import equivalent
    bounds = {("p", "q"): 1, ("q", "p"): 1}
    for _ in range(10):
        word = random_fifo_word(rng, 6, participants=("p", "q"), bounds=bounds)
        encoded = encode_word(word, bounds)
        for other in closure_upto([encoded]):
            try:
                decoded = decode_word(other)
            except ValueError:
                continue  # swaps may tear an exchange apart mid-pair
            assert equivalent(decode_word(encoded), decoded, cap=200_000)


def test_merge_immediate_pairs():
    merged = merge_immediate_pairs(Compiled(three_party_machine()))
    assert all(ev.kind == "pair" for _, ev, _ in merged.transitions
               if ev is not None)
    assert len(merged.states) == 10


def test_merging_a_trimmed_machine_keeps_it_trimmed():
    """The fused protocol, with bounded channels left alone as the
    encoding's first stage leaves them, is trimmed: the machine written
    out, built afresh, must trim to itself."""
    rng = random.Random(29)
    for trial in range(300):
        machine = (random_tame_psm(rng) if trial % 2
                   else random_looping_protocol(rng)[0])
        try:
            psm = validate(machine)
            bounds = infer_channel_bounds(psm)
        except PsmError:
            continue
        merged = Fused(psm.compiled, bounds).machine()
        assert StateMachine(merged.states, merged.initial, merged.finals,
                            merged.transitions).trim() == merged


def test_merge_rejects_deferred_receive_on_unbounded_channel():
    with pytest.raises(ValueError):
        merge_immediate_pairs(Compiled(kle_machine()))


def test_merge_rejects_a_receive_behind_an_epsilon_move():
    """The send's target leaves only by an epsilon move, so the receive
    after it is not immediate."""
    machine = StateMachine(
        ["s0", "s1", "s2", "s3"], "s0", ["s3"],
        [("s0", send("p", "q", "m"), "s1"), ("s1", None, "s2"),
         ("s2", recv("p", "q", "m"), "s3")])
    with pytest.raises(ValueError, match=r"^send p>q!m on unbounded channel "
                                         r"lacks an immediate receive$"):
        merge_immediate_pairs(Compiled(machine))


def test_merge_rejects_a_dropped_state_that_an_epsilon_move_enters():
    """s1, between the send and its receive, goes with the merge, but the
    epsilon move from s2 still enters it."""
    machine = StateMachine(
        ["s0", "s1", "s2"], "s0", ["s2"],
        [("s0", send("p", "q", "m"), "s1"), ("s1", recv("p", "q", "m"), "s2"),
         ("s2", None, "s1")])
    with pytest.raises(ValueError,
                       match="^state s1 mixes paired and other traffic$"):
        merge_immediate_pairs(Compiled(machine))


def test_encode_psm_kle_matches_expected_shape():
    encoded = encode_psm(Compiled(kle_machine()), KLE_BOUNDS).machine()
    assert machine_isomorphic(encoded, kle_encoded_expected()) is not None


def test_encode_psm_empty_bounds_is_merge():
    machine = three_party_machine()
    encoded = encode_psm(Compiled(machine), {}).machine()
    assert machine_isomorphic(encoded, merge_immediate_pairs(
        Compiled(machine))) is not None


def test_encode_psm_preserves_sink_finality_and_choice():
    """Routing through dedicated forwarders can only sharpen the choice
    class: the game comes out directed."""
    from amp.psm import DIRECTED, SENDER_DRIVEN

    from .compiled_reference import classify_choice
    encoded = encode_psm(Compiled(kle_machine()), KLE_BOUNDS).machine()
    assert encoded.trim().is_sink_final()
    assert classify_choice(encoded) in (SENDER_DRIVEN, DIRECTED)


def test_membership_transfer_on_kle():
    """Complete traces of the machine encode exactly to complete traces
    of the encoded machine, up to swaps."""
    machine = validate(kle_machine())
    encoded = encode_psm(machine.compiled, KLE_BOUNDS).machine()
    plain = complete_traces(maximal_traces_upto(machine.machine, 6))
    routed = complete_traces(maximal_traces_upto(encoded, 12))
    encoded_closure = closure_upto(routed)
    for word in plain:
        assert encode_word(word, KLE_BOUNDS) in encoded_closure
    plain_closure = closure_upto(plain)
    for word in routed:
        assert decode_word(word) in plain_closure


def test_encode_fsm_threads_counters():
    local = StateMachine(
        {"x", "y", "z"}, "x", {"z"},
        [("x", send("p", "q", "a"), "y"), ("y", send("p", "q", "b"), "z")])
    encoded = encode_fsm(local, "p", {("p", "q"): 2})
    receivers = sorted(ev.receiver for _, ev, _ in encoded.transitions)
    assert receivers == ["(p,q)0", "(p,q)1"]
    # Two sends wrap the size-two ring back to slot zero: still final.
    assert encoded.finals == {"z|s:(p,q)=0"}


def test_decode_fsm_inverts_encode_fsm():
    local = StateMachine(
        {"x", "y", "z"}, "x", {"z"},
        [("x", send("p", "q", "a"), "y"), ("y", recv("q", "p", "b"), "z")])
    encoded = encode_fsm(local, "p", {("p", "q"): 1, ("q", "p"): 1})
    decoded = decode_fsm(encoded)
    assert machine_isomorphic(decoded, local) is not None


def test_decode_fsm_preserves_determinism(rng):
    from .conftest import random_local_tree
    for _ in range(20):
        local = random_local_tree(rng)
        bounds = {("p", "q"): 1, ("q", "p"): 1, ("p", "r"): 1, ("r", "p"): 1}
        decoded = decode_fsm(encode_fsm(local, "p", bounds))
        assert decoded.is_deterministic()


def test_channel_participant_machine_shape():
    cp = ChannelParticipant("e", "o", 0)
    hub = channel_participant_machine(cp, ["0", "1", "win"])
    assert len(hub.states) == 4
    assert hub.finals == {hub.initial}
    assert machine_is_forwarding(hub, cp)
    hub_empty = channel_participant_machine(cp, [])
    assert len(hub_empty.states) == 1 and hub_empty.finals == {hub_empty.initial}


def test_is_forwarding_words():
    cp = ChannelParticipant("p", "q", 0)
    assert is_forwarding((), cp) == FORWARDING
    good = (recv("p", cp.name, "m"), send(cp.name, "q", "m"))
    assert is_forwarding(good, cp) == FORWARDING
    assert is_forwarding(good[:1], cp) == ALMOST
    bad = (send(cp.name, "q", "m"), recv("p", cp.name, "m"))
    assert is_forwarding(bad, cp) == NO
