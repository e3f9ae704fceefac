"""Tests for the subset construction and the tame projection pipeline."""

import pytest

from amp.core import StateMachine, recv, send
from amp.csm import check_projection, explore
from amp.encoding import merge_immediate_pairs
from amp.projection import (NotProjectable, NotTame, check_validity, minimize,
                            project_tame, strong_report, subset_construction)
from amp.psm import validate
from amp.transform import global_to_psm, parse_global_type

from .conftest import (kle_expected_local_e, kle_machine,
                       one_buyer_seller_expected, three_party_csm,
                       three_party_machine)
from .goldengen import ONE_BUYER_GT
from .semantics import languages_equal_upto, machine_isomorphic


def test_subset_construction_one_buyer_seller():
    """The seller's view of the purchase, against the hand transcription."""
    machine = global_to_psm(parse_global_type(ONE_BUYER_GT))
    seller = subset_construction(machine, "s")
    assert machine_isomorphic(seller, one_buyer_seller_expected()) is not None


def test_subset_construction_merges_relay_branches():
    """The relay cannot tell the first two branches apart."""
    machine = merge_immediate_pairs(three_party_machine(), {})
    relay = minimize(subset_construction(machine, "r"))
    assert len(relay.states) == 4
    assert relay.is_deterministic()


def test_subset_construction_trivial():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    result = subset_construction(machine, "p")
    assert len(result.states) == 1 and result.finals == {result.initial}


def test_subset_language_is_participant_projection():
    """Local language preservation, by brute force at a small bound:
    projections of complete protocol words are exactly the short local
    complete words (longer global witnesses cover the converse)."""
    from amp.core import maximal_traces_upto
    from .semantics import complete_traces
    from amp.fifo import project
    machine = merge_immediate_pairs(three_party_machine(), {})
    for participant in ("p", "q", "r"):
        local = subset_construction(machine, participant)
        projected = {project(w, participant=participant)
                     for w in complete_traces(maximal_traces_upto(machine, 8))}
        wide = {project(w, participant=participant)
                for w in complete_traces(maximal_traces_upto(machine, 16))}
        local_complete = complete_traces(maximal_traces_upto(local, 8))
        assert {w for w in projected if len(w) <= 4} <= local_complete
        assert {w for w in local_complete if len(w) <= 4} <= wide


def test_check_validity_flags_send_from_final():
    machine = StateMachine(
        {"a", "b"}, "a", {"a"}, [("a", send("p", "q", "m"), "b")])
    report = check_validity({"p": machine})
    assert not report.ok
    assert report.violations[0][:2] == ("p", "a")


def test_project_three_party_good():
    result = project_tame(validate(three_party_machine()))
    assert set(result.csm.components) == {"p", "q", "r"}
    assert result.bounds == {}
    # Language-equivalent per component to the hand-drawn candidate.
    drawn = three_party_csm()
    for name in "pqr":
        assert languages_equal_upto(result.csm.components[name],
                                    drawn.components[name], 8)
    assert check_projection(validate(three_party_machine()),
                            result.csm, 6).passed


def test_project_reply_mismatch_not_projectable():
    machine = three_party_machine(v1="v1", v2="v2")
    with pytest.raises(NotProjectable):
        project_tame(validate(machine))


def test_project_label_clash_not_projectable():
    machine = three_party_machine(m2="m2", m3="m2")
    with pytest.raises(NotProjectable):
        project_tame(validate(machine))


def test_project_mixed_choice_not_tame():
    machine = global_to_psm(parse_global_type("( p->q:a . 0 + q->p:b . 0 )"))
    with pytest.raises(NotTame):
        project_tame(validate(machine))


def test_project_non_sink_final_not_tame():
    machine = StateMachine(
        {"a", "b", "c"}, "a", {"a", "c"},
        [("a", send("p", "q", "m"), "b"), ("b", recv("p", "q", "m"), "c")])
    with pytest.raises(NotTame):
        project_tame(validate(machine))


def test_project_kle_e_component_exact():
    result = project_tame(validate(kle_machine()))
    assert machine_isomorphic(result.csm.components["e"],
                              kle_expected_local_e()) is not None
    report = explore(result.csm, queue_cap=2)
    assert report.deadlock_free and not report.truncated
    assert not report.soft_deadlocks


def test_project_leader_election():
    good = global_to_psm(parse_global_type(
        "( a->p:sel . p->q:win . 0 + a->q:sel . q->p:win . 0 )"))
    result = project_tame(validate(good))
    assert set(result.csm.components) == {"a", "p", "q"}
    bad = global_to_psm(parse_global_type(
        "( a->p:sel . q->p:lose . 0 + a->q:sel . p->q:lose . 0 )"))
    with pytest.raises(NotProjectable):
        project_tame(validate(bad))


def test_strong_projection_witness():
    machine = global_to_psm(parse_global_type(
        "( p->q:m1 . p->r:m1 . 0 + p->q:m2 . 0 )"))
    report = strong_report(project_tame(machine).csm)
    assert not report.strong
    participants = {w[0] for w in report.witnesses}
    assert participants == {"r"}
    result = project_tame(validate(machine))
    witness_state = report.witnesses[0][1]
    assert witness_state == result.csm.components["r"].initial


def test_strong_projection_kle():
    assert strong_report(project_tame(kle_machine()).csm).strong


def test_strong_projection_two_party():
    machine = global_to_psm(parse_global_type("p->q:m . 0"))
    assert strong_report(project_tame(machine).csm).strong


def test_minimize_merges_equivalent_states():
    machine = StateMachine(
        {"a", "b", "c", "d", "e"}, "a", {"d", "e"},
        [("a", send("p", "q", "x"), "b"), ("a", send("p", "q", "y"), "c"),
         ("b", send("p", "q", "z"), "d"), ("c", send("p", "q", "z"), "e")])
    merged = minimize(machine)
    assert len(merged.states) == 3
    assert languages_equal_upto(machine, merged, 5)


def test_projected_components_have_distinct_states():
    result = project_tame(validate(three_party_machine()))
    seen: set = set()
    for component in result.csm.components.values():
        assert not (component.states & seen)
        seen |= component.states


def test_two_in_flight_ring_projects():
    """A channel bounded by two routes through both ring slots."""
    from amp.core import pair, recv, send
    machine = StateMachine(
        {"n0", "n1", "n2", "n3", "n4", "n5"}, "n0", {"n5"},
        [("n0", send("p", "q", "a"), "n1"), ("n1", send("p", "q", "b"), "n2"),
         ("n2", recv("p", "q", "a"), "n3"), ("n3", recv("p", "q", "b"), "n4"),
         ("n4", pair("q", "p", "ok"), "n5")])
    psm = validate(machine)
    result = project_tame(psm)
    assert result.bounds == {("p", "q"): 2}
    report = explore(result.csm, queue_cap=3)
    assert report.deadlock_free and not report.truncated


def test_odd_ring_totals_rejected_not_crashed():
    """Send totals that do not wrap the ring evenly cannot encode, and
    the pipeline says so instead of emitting a wrong machine."""
    from amp.core import recv, send
    machine = StateMachine(
        {"k0", "k1", "k2", "k3", "k4", "k5", "k6"}, "k0", {"k6"},
        [("k0", send("p", "q", "a"), "k1"), ("k1", send("p", "q", "b"), "k2"),
         ("k2", recv("p", "q", "a"), "k3"), ("k3", recv("p", "q", "b"), "k4"),
         ("k4", send("p", "q", "c"), "k5"), ("k5", recv("p", "q", "c"), "k6")])
    with pytest.raises(NotProjectable):
        project_tame(validate(machine))


def test_peer_named_like_a_forwarder_rejected_not_crashed():
    """Decoding would give p's exchange with a participant named like
    the forwarder of channel x>y to that channel; the pipeline reports
    the name instead of failing to build the CSM."""
    peer = "(x,y)0"
    machine = StateMachine(
        {"s0", "s1", "s2"}, "s0", {"s2"},
        [("s0", send("p", peer, "m"), "s1"), ("s1", recv("p", peer, "m"), "s2")])
    with pytest.raises(NotProjectable) as caught:
        project_tame(validate(machine))
    assert str(caught.value) == "participant (x,y)0 is named like a forwarder"


def test_random_tame_machines_project(rng):
    """Pipeline success implies the bounded oracle passes."""
    from .conftest import random_tame_psm
    checked = 0
    for _ in range(15):
        machine = random_tame_psm(rng, max_states=6)
        psm = validate(machine)
        try:
            result = project_tame(psm)
        except NotProjectable:
            continue
        checked += 1
        assert check_projection(psm, result.csm, 5).passed
        report = explore(result.csm, queue_cap=3)
        assert report.deadlock_free
    assert checked >= 5
