"""Tests for global/local types, regular expressions, and round trips."""

import random

import pytest

from amp.core import (StateMachine, complete_traces, languages_equal_upto,
                      maximal_traces_upto, pair, recv, send)
from amp.encoding import merge_immediate_pairs
from amp.psm import (DIRECTED, MIXED, NON_DETERMINISTIC, SENDER_DRIVEN,
                     classify_choice)
from amp.transform import (Choice, End, MixedChoiceState, RAlt, RCat, REps,
                           RLetter, RStar, TypeSyntaxError, brz_deriv,
                           first_letters, fsm_to_local_type, global_to_psm,
                           local_to_fsm, make_sink_final, mark, nullable,
                           parse_global_type, psm_deriv, psm_to_global_type,
                           psm_to_regex, rcat, regex_choice_class,
                           regex_choice_class_bounded, regex_lang_upto,
                           regex_to_psm, unmark)

from .conftest import three_party_machine
from .goldengen import THREE_PARTY_GT


def _letter(label: str, sender: str = "p", receiver: str = "q") -> RLetter:
    return RLetter(pair(sender, receiver, label))


def _machine_of(regex) -> StateMachine:
    return regex_to_psm(regex)


# -- global types -----------------------------------------------------


def test_parse_and_format_global_roundtrip():
    g = parse_global_type(THREE_PARTY_GT)
    again = parse_global_type(str(g))
    assert again == g


def test_parser_rejects_unbound_and_unguarded():
    with pytest.raises(TypeSyntaxError):
        parse_global_type("X")
    with pytest.raises(TypeSyntaxError):
        parse_global_type("rec X . X")


def test_global_to_psm_end_is_single_final_state():
    machine = global_to_psm(End())
    assert len(machine.states) == 1
    assert machine.finals == {machine.initial}


def test_global_to_psm_loop_without_exit():
    machine = global_to_psm(parse_global_type("rec X . p->q:m . X"))
    # One epsilon edge into the body, one epsilon back edge, no finals.
    eps = [(s, d) for s, e, d in machine.transitions if e is None]
    assert len(eps) == 2
    assert not machine.finals
    assert machine.is_dense()


def test_global_to_psm_matches_flat_three_party():
    machine = global_to_psm(parse_global_type(THREE_PARTY_GT))
    assert languages_equal_upto(machine, three_party_machine(), 10)


def test_global_machine_structure():
    """Tree-like: back edges are epsilon to ancestors, no state merges."""
    from amp.transform import (is_ancestor_recursive,
                               is_intermediate_recursion_free, is_non_merging,
                               is_tree_shaped)
    machine = global_to_psm(parse_global_type(THREE_PARTY_GT))
    assert machine.is_dense()
    assert is_ancestor_recursive(machine)
    assert is_non_merging(machine)
    assert is_intermediate_recursion_free(machine)
    assert is_tree_shaped(machine)
    # A machine with two labelled edges into one state merges.
    diamond = StateMachine(
        {"a", "b", "c", "d"}, "a", {"d"},
        [("a", pair("p", "q", "x"), "b"), ("a", pair("p", "q", "y"), "c"),
         ("b", pair("p", "q", "z"), "d"), ("c", pair("p", "q", "z"), "d")])
    assert not is_non_merging(diamond)
    assert is_ancestor_recursive(diamond)


def test_structure_predicates_on_random_outputs(rng):
    """Every machine the workflow builds satisfies the tree predicates."""
    from amp.transform import is_tree_shaped
    from .conftest import random_sender_driven_tree
    for _ in range(20):
        machine = random_sender_driven_tree(rng)
        assert is_tree_shaped(global_to_psm(psm_to_global_type(
            regex_to_psm(psm_to_regex(machine)))))
        assert is_tree_shaped(regex_to_psm(psm_to_regex(machine)))


# -- sink-finalisation -------------------------------------------------


def test_make_sink_final_preserves_language():
    machine = StateMachine(
        {"a", "b", "c"}, "a", {"b"},
        [("a", pair("p", "q", "m"), "b"), ("b", pair("p", "q", "n"), "c"),
         ("c", None, "b")])
    finalized = make_sink_final(machine)
    assert finalized.trim().is_sink_final()
    assert languages_equal_upto(machine, finalized, 8)


def test_make_sink_final_introduces_nondeterminism():
    machine = StateMachine(
        {"a", "b"}, "a", {"b"},
        [("a", pair("p", "q", "m"), "b"), ("b", pair("p", "q", "m"), "b")])
    finalized = make_sink_final(machine)
    assert not finalized.is_deterministic()
    assert classify_choice(finalized).kind == NON_DETERMINISTIC


def test_make_sink_final_rejects_empty_word():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    with pytest.raises(ValueError):
        make_sink_final(machine)


# -- machine to regular expression -------------------------------------


def test_psm_to_regex_single_letter():
    machine = StateMachine({"a", "b"}, "a", {"b"},
                           [("a", pair("p", "q", "x"), "b")])
    regex = psm_to_regex(machine)
    assert regex == _letter("x")


def test_psm_to_regex_loop_then_exit():
    machine = StateMachine(
        {"a", "a2", "b"}, "a", {"b"},
        [("a", pair("p", "q", "go"), "a2"), ("a2", None, "a"),
         ("a", pair("p", "q", "stop"), "b")])
    regex = psm_to_regex(machine)
    assert regex == rcat(RStar(_letter("go")), _letter("stop"))


def test_psm_to_regex_three_party_language():
    machine = merge_immediate_pairs(three_party_machine(), {})
    regex = psm_to_regex(machine)
    words = regex_lang_upto(regex, 8)
    traces = complete_traces(maximal_traces_upto(machine, 8))
    assert words == traces
    longer = regex_lang_upto(regex, 16)
    assert complete_traces(maximal_traces_upto(machine, 16)) == longer


# -- derivatives ---------------------------------------------------------


def test_brz_deriv_cases():
    a, b = _letter("a"), _letter("b")
    assert brz_deriv(a.event, a) == REps()
    assert brz_deriv(a.event, rcat(a, b)) == b
    assert brz_deriv(a.event, b) is None
    star = RStar(RAlt(a, b))
    assert brz_deriv(a.event, star) == star
    assert brz_deriv(a.event, RAlt(rcat(a, b), rcat(b, a))) == b


def test_brz_deriv_nullable_concatenation():
    a, b = _letter("a"), _letter("b")
    regex = rcat(RStar(a), b)
    assert brz_deriv(b.event, regex) == REps()
    assert brz_deriv(a.event, regex) == rcat(RStar(a), b)


def _random_regex(rng: random.Random, depth: int = 3):
    letters = [_letter(l, s, r) for l in "abc"
               for s, r in (("p", "q"), ("q", "r"), ("r", "p"))]
    if depth == 0 or rng.random() < 0.3:
        return letters[rng.randrange(len(letters))]
    shape = rng.randrange(3)
    if shape == 0:
        return RAlt(_random_regex(rng, depth - 1), _random_regex(rng, depth - 1))
    if shape == 1:
        return RCat(_random_regex(rng, depth - 1), _random_regex(rng, depth - 1))
    inner = _random_regex(rng, depth - 1)
    return inner if nullable(inner) else RStar(inner)


def test_brz_deriv_against_brute_force(rng):
    """L(deriv(a, r)) must be the a-quotient of L(r), at a small bound."""
    for _ in range(100):
        regex = _random_regex(rng)
        words = regex_lang_upto(regex, 7)
        for a in sorted(first_letters(regex), key=lambda e: e.sort_key()):
            derived = brz_deriv(a, regex)
            quotient = {w[2:] for w in words if w[:2] == tuple(a.letters())}
            derived_words = (regex_lang_upto(derived, 5) if derived is not None
                             else frozenset())
            assert {w for w in quotient if len(w) <= 5} == derived_words


def test_psm_deriv_two_state():
    machine = _machine_of(_letter("a"))
    derived = psm_deriv(pair("p", "q", "a"), machine)
    assert complete_traces(maximal_traces_upto(derived, 4)) == {()}


def test_psm_deriv_keeps_loop_through_copy():
    regex = rcat(RStar(_letter("a")), _letter("b"))
    machine = _machine_of(regex)
    derived = psm_deriv(pair("p", "q", "a"), machine)
    expected = brz_deriv(pair("p", "q", "a"), regex)
    assert complete_traces(maximal_traces_upto(derived, 8)) == \
        regex_lang_upto(expected, 8)


def test_psm_deriv_against_brute_force(rng):
    """The machine derivative agrees with the word quotient on random
    tree-shaped machines."""
    from .conftest import random_sender_driven_tree
    for _ in range(100):
        machine = random_sender_driven_tree(rng, max_states=6)
        words = complete_traces(maximal_traces_upto(machine, 8))
        firsts = {ev for ev, _ in machine.out(machine.initial)
                  if ev is not None}
        for a in sorted(firsts, key=lambda e: e.sort_key()):
            derived = psm_deriv(a, machine)
            quotient = {w[2:] for w in words if w[:2] == tuple(a.letters())}
            derived_words = complete_traces(maximal_traces_upto(derived, 6))
            assert {w for w in quotient if len(w) <= 6} == derived_words


# -- regular expression to machine ---------------------------------------


def test_regex_to_psm_letter():
    machine = _machine_of(_letter("a"))
    assert len(machine.states) == 2 and machine.trim().is_sink_final()


def test_regex_to_psm_merges_shared_first_letter():
    """(a.b) + (a.c) determinises at the shared first letter."""
    a, b, c = _letter("a"), _letter("b"), _letter("c")
    machine = _machine_of(RAlt(rcat(a, b), rcat(a, c)))
    assert machine.is_deterministic()
    roots = [ev for ev, _ in machine.out(machine.initial)]
    assert roots == [a.event]
    words = complete_traces(maximal_traces_upto(machine, 6))
    assert words == regex_lang_upto(RAlt(rcat(a, b), rcat(a, c)), 6)


def test_regex_to_psm_star_makes_initial_final():
    machine = _machine_of(RStar(_letter("a")))
    assert machine.initial in machine.finals
    assert complete_traces(maximal_traces_upto(machine, 4)) == \
        regex_lang_upto(RStar(_letter("a")), 4)


def test_regex_to_psm_structure():
    """Output is dense, with epsilon only on back edges."""
    regex = rcat(RStar(rcat(_letter("a"), _letter("b", "q", "r"))),
                 _letter("c"))
    machine = _machine_of(regex)
    assert machine.is_dense()
    assert machine.trim().is_sink_final()
    assert complete_traces(maximal_traces_upto(machine, 10)) == \
        regex_lang_upto(regex, 10)


def test_regex_to_psm_rejects_eps():
    with pytest.raises(ValueError):
        regex_to_psm(REps())


# -- marked expressions ----------------------------------------------------


def test_mark_unmark():
    regex = RAlt(_letter("a"), _letter("a"))
    marked = mark(regex)
    firsts = sorted(first_letters(marked), key=lambda e: e.sort_key())
    assert len(firsts) == 2 and firsts[0] != firsts[1]
    assert {unmark(ev) for ev in firsts} == {pair("p", "q", "a")}


def test_regex_choice_classes():
    sd = RAlt(_letter("a", "p", "q"), _letter("b", "p", "r"))
    assert regex_choice_class(sd) == SENDER_DRIVEN
    directed = RAlt(_letter("a"), _letter("b"))
    assert regex_choice_class(directed) == DIRECTED
    mixed = RAlt(_letter("a", "p", "q"), _letter("b", "q", "r"))
    assert regex_choice_class(mixed) == MIXED
    dup = RAlt(_letter("a"), _letter("a"))
    assert regex_choice_class(dup) == NON_DETERMINISTIC


def _letter_count(regex) -> int:
    if isinstance(regex, RLetter):
        return 1
    if isinstance(regex, (RAlt, RCat)):
        return _letter_count(regex.left) + _letter_count(regex.right)
    if isinstance(regex, RStar):
        return _letter_count(regex.inner)
    return 0


def test_choice_class_agrees_with_bounded_prefix_check(rng):
    """First/follow classification matches the prefix-based one, once
    the bound is generous enough to reach every decision point."""
    for _ in range(100):
        regex = _random_regex(rng, depth=2)
        bound = 4 * _letter_count(regex) + 4
        assert regex_choice_class(regex) == \
            regex_choice_class_bounded(regex, bound)


def test_sender_driven_closed_under_deriv(rng):
    from amp.transform import is_sender_driven_regex
    for _ in range(50):
        regex = _random_regex(rng)
        if not is_sender_driven_regex(regex):
            continue
        for a in first_letters(regex):
            derived = brz_deriv(a, regex)
            if derived is not None:
                assert is_sender_driven_regex(derived)


# -- machine to global type ------------------------------------------------


def test_psm_to_global_single_final():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    # The full pipeline maps the empty protocol to end directly.
    assert psm_to_global_type(machine) == End()


def test_full_workflow_three_party():
    machine = merge_immediate_pairs(three_party_machine(), {})
    regex = psm_to_regex(machine)
    rebuilt = regex_to_psm(regex)
    g = psm_to_global_type(rebuilt)
    round_tripped = global_to_psm(g)
    assert languages_equal_upto(round_tripped, three_party_machine(), 10)
    assert classify_choice(round_tripped).kind == classify_choice(machine).kind


def test_workflow_preserves_language_and_choice(rng):
    from .conftest import random_sender_driven_tree
    for _ in range(40):
        machine = random_sender_driven_tree(rng)
        regex = psm_to_regex(machine)
        rebuilt = regex_to_psm(regex)
        g = psm_to_global_type(rebuilt)
        again = global_to_psm(g)
        assert languages_equal_upto(machine, again, 8)
        assert classify_choice(again).kind == classify_choice(machine).kind


def test_non_sink_final_route_through_finalisation():
    machine = StateMachine(
        {"a", "b"}, "a", {"b"},
        [("a", pair("p", "q", "m"), "b"), ("b", pair("p", "q", "m"), "b")])
    finalized = make_sink_final(machine)
    g = psm_to_global_type(regex_to_psm(psm_to_regex(finalized)))
    again = global_to_psm(g)
    assert languages_equal_upto(again, machine, 8)


# -- local types -------------------------------------------------------------


def test_local_type_of_seller_fragment():
    """The payment fragment: receive the card, then accept or decline."""
    machine = StateMachine(
        {"q3", "q4", "q5", "q6", "q7", "q8"}, "q3", {"q6", "q8"},
        [("q3", recv("b", "s", "ccard"), "q4"),
         ("q4", send("s", "b", "valid"), "q5"),
         ("q5", send("s", "b", "confirm"), "q6"),
         ("q4", send("s", "b", "invalid"), "q7"),
         ("q7", send("s", "b", "cancel"), "q8")])
    local = fsm_to_local_type(machine, "s")
    assert isinstance(local, Choice)
    (ev, cont), = local.branches
    assert ev == recv("b", "s", "ccard")
    assert isinstance(cont, Choice)
    assert {ev.kind for ev, _ in cont.branches} == {"send"}
    assert {ev.label for ev, _ in cont.branches} == {"valid", "invalid"}
    assert languages_equal_upto(local_to_fsm(local), machine, 8)


def test_local_type_end():
    machine = StateMachine({"a"}, "a", {"a"}, [])
    assert fsm_to_local_type(machine, "p") == End()


def test_local_type_rejects_mixed_choice_state():
    machine = StateMachine(
        {"a", "b", "c"}, "a", {"b", "c"},
        [("a", send("p", "q", "m"), "b"), ("a", recv("q", "p", "n"), "c")])
    with pytest.raises(MixedChoiceState):
        fsm_to_local_type(machine, "p")


def test_local_type_text_roundtrip():
    from amp.transform import parse_local_type
    machine = StateMachine(
        {"q3", "q4", "q5", "q6", "q7", "q8"}, "q3", {"q6", "q8"},
        [("q3", recv("b", "s", "ccard"), "q4"),
         ("q4", send("s", "b", "valid"), "q5"),
         ("q5", send("s", "b", "confirm"), "q6"),
         ("q4", send("s", "b", "invalid"), "q7"),
         ("q7", send("s", "b", "cancel"), "q8")])
    local = fsm_to_local_type(machine, "s")
    again = parse_local_type(str(local), "s")
    assert again == local
    looped = parse_local_type("rec X . (+ !q:a . X !q:b<end> . 0 )", "p")
    assert str(looped) == "rec X . (+ !q:a . X !q:b<end> . 0 )"
    assert languages_equal_upto(local_to_fsm(local), machine, 8)


def test_global_type_payload_text_roundtrip():
    text = "( p->q:l1<@q0> . 0 + p->q:l2<end> . 0 )"
    g = parse_global_type(text)
    assert str(g) == text
    from amp.core import StateRef
    (ev1, _), (ev2, _) = g.branches
    assert ev1.payload == StateRef("q0") and ev2.payload == "end"


def test_local_roundtrip_random(rng):
    from .conftest import random_local_tree
    for _ in range(50):
        machine = random_local_tree(rng)
        local = fsm_to_local_type(machine, "p")
        back = local_to_fsm(local)
        assert languages_equal_upto(machine, back, 8)
        again = fsm_to_local_type(back, "p")
        assert languages_equal_upto(local_to_fsm(again), machine, 8)


def test_to_local_type_names_the_least_foreign_event():
    """The rejected event is the least by `Event.sort_key`, whatever the
    hash order of the alphabet."""
    events = [pair("p", receiver, label) for receiver in ("q", "r")
              for label in ("m1", "m2", "m3", "m4")]
    events += [send("q", "p", "n1"), send("p", "r", "a")]
    states = [f"s{i}" for i in range(len(events) + 1)]
    machine = StateMachine(states, "s0", {states[-1]},
                           [(states[i], ev, states[i + 1])
                            for i, ev in enumerate(events)])
    with pytest.raises(ValueError, match=r"^event p->q:m1 is not an action"):
        fsm_to_local_type(machine, "p")
