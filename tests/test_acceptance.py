"""The acceptance suite: one test per criterion, each printing a
pass/fail line and holding to its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from amp.core import maximal_traces_upto
from amp.csm import check_projection, csm_language_upto, explore
from amp.encoding import encode_psm
from amp.fifo import closure_upto, is_fifo, swap_step
from amp.projection import (NotProjectable, NotTame, project_tame,
                            strong_report)
from amp.psm import (DIRECTED, SENDER_DRIVEN, classify_choice,
                     infer_channel_bounds, validate)
from amp.transform import (brz_deriv, first_letters, global_to_psm,
                           parse_global_type, psm_to_global_type, psm_to_regex,
                           regex_to_psm)

from .conftest import (kle_encoded_expected, kle_expected_local_e,
                       kle_machine, random_fifo_word,
                       random_sender_driven_tree, random_tame_psm,
                       three_party_csm, three_party_machine)
from .goldengen import THREE_PARTY_GT
from .test_transform import _random_regex
from .test_typecheck import delegation_program
from .semantics import (check_feasible_eventual_reception_language,
                        complete_traces, decode_word, encode_word,
                        is_channel_ordered,
                        languages_equal_upto, machine_isomorphic, psm_deriv,
                        regex_lang_upto)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s, budget "
              f"{self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget"


def test_criterion_1_figure_corpus_exact():
    """Projection of the three-way choice matches the drawn candidate;
    breaking either distinctness condition kills projectability."""
    with Budget("criterion 1 (figure corpus)", 1.0):
        machine = global_to_psm(parse_global_type(THREE_PARTY_GT))
        psm = validate(machine)
        assert psm.sum_one
        assert classify_choice(psm.machine).kind in (SENDER_DRIVEN, DIRECTED)
        result = project_tame(psm)
        drawn = three_party_csm()
        assert set(result.csm.components) == set(drawn.components)
        for name, component in result.csm.components.items():
            assert languages_equal_upto(component, drawn.components[name], 8)
        assert check_projection(psm, result.csm, 6).passed
        # Reproducibility: a second run is state-for-state identical.
        again = project_tame(validate(machine))
        for name, component in result.csm.components.items():
            assert machine_isomorphic(component,
                                      again.csm.components[name]) is not None

        with pytest.raises(NotProjectable):
            project_tame(validate(three_party_machine(v1="v1", v2="v2")))
        with pytest.raises(NotProjectable):
            project_tame(validate(three_party_machine(m2="m2", m3="m2")))


def test_criterion_2_kle_pipeline_exact():
    """Bounds, encoding, and the local projection of the game are exact;
    the decoded CSM is deadlock-free and faithful at depth twelve."""
    with Budget("criterion 2 (KLE pipeline)", 5.0):
        psm = validate(kle_machine())
        assert infer_channel_bounds(psm) == {("e", "o"): 1, ("o", "e"): 1}
        encoded = encode_psm(psm.machine, {("e", "o"): 1, ("o", "e"): 1})
        assert machine_isomorphic(encoded, kle_encoded_expected()) is not None
        result = project_tame(psm)
        assert machine_isomorphic(result.csm.components["e"],
                                  kle_expected_local_e()) is not None
        report = explore(result.csm, queue_cap=2)
        assert report.deadlock_free and not report.truncated
        assert check_projection(psm, result.csm, 12).passed


def test_criterion_3_negative_controls():
    """The lose-protocol dies at validity; mixed-choice toys die at the
    tameness gate, each with a witness."""
    with Budget("criterion 3 (lose protocol)", 1.0):
        lose = global_to_psm(parse_global_type(
            "( a->p:sel . q->p:lose . 0 + a->q:sel . p->q:lose . 0 )"))
        with pytest.raises(NotProjectable) as excinfo:
            project_tame(validate(lose))
        assert str(excinfo.value) == ("send validity: p may send p>q!lose "
                                      "after ε where it must first receive "
                                      "a>p?sel")
    with Budget("criterion 3 (mixed-choice toys)", 1.0):
        toy = global_to_psm(parse_global_type("( p->q:a . 0 + q->p:b . 0 )"))
        with pytest.raises(NotTame) as excinfo:
            project_tame(validate(toy))
        assert "branches" in str(excinfo.value)
        from amp.transform import make_sink_final
        toy2 = make_sink_final(toy)
        with pytest.raises(NotTame) as excinfo:
            project_tame(validate(toy2))
        assert "branches" in str(excinfo.value)


def test_criterion_4_round_trip_suite():
    """Two hundred random sender-driven sink-final machines survive the
    type-reconstruction round trip with language and choice intact."""
    with Budget("criterion 4 (round trips)", 60.0):
        rng = random.Random(41)
        failures = 0
        for _ in range(200):
            machine = random_sender_driven_tree(rng, max_states=8)
            rebuilt = global_to_psm(psm_to_global_type(
                regex_to_psm(psm_to_regex(machine))))
            if not languages_equal_upto(machine, rebuilt, 8):
                failures += 1
            elif classify_choice(rebuilt).kind != classify_choice(machine).kind:
                failures += 1
        assert failures == 0


def test_criterion_5_encoding_laws():
    """Decode undoes encode on five hundred bounded words and vice versa
    on channel-ordered ones; membership transfers across the encoding."""
    with Budget("criterion 5 (encoding laws)", 60.0):
        rng = random.Random(42)
        bounds_all = {(a, b): 1 for a in "pqr" for b in "pqr" if a != b}
        bounds_all[("p", "q")] = 2
        for _ in range(500):
            word = random_fifo_word(rng, 10, bounds=bounds_all)
            assert decode_word(encode_word(word, bounds_all)) == word
        for _ in range(500):
            word = random_fifo_word(rng, 8, bounds=bounds_all)
            encoded = encode_word(word, bounds_all)
            assert is_channel_ordered(encoded, bounds_all)
            assert encode_word(decode_word(encoded), bounds_all) == encoded

        from amp.fifo import project
        from .semantics import is_b_bounded

        def respects(word, bounds):
            return all(is_b_bounded(project(word, channel=ch), b)
                       for ch, b in bounds.items())

        transfers = 0
        for _ in range(50):
            machine = random_tame_psm(rng, max_states=5)
            psm = validate(machine)
            bounds = infer_channel_bounds(psm)
            encoded = encode_psm(psm.machine, bounds)
            plain = complete_traces(maximal_traces_upto(psm.machine, 6))
            routed = complete_traces(maximal_traces_upto(encoded, 12))
            if not plain:
                continue
            transfers += 1
            sem_plain = closure_upto(plain)
            sem_routed = closure_upto(routed)
            for word in sem_plain:
                # The encoding is defined on bound-respecting words only.
                if respects(word, bounds):
                    assert encode_word(word, bounds) in sem_routed
            for word in routed:
                decoded = decode_word(word)
                if len(decoded) <= 6:
                    assert decoded in sem_plain
        assert transfers >= 25


def test_criterion_6_closure_laws():
    """Closure is idempotent and extensive; CSM languages are closed
    under swaps; reception survives closure in both directions."""
    with Budget("criterion 6 (closure laws)", 60.0):
        rng = random.Random(43)
        for _ in range(25):
            words = {random_fifo_word(rng, 6) for _ in range(3)}
            closed = closure_upto(words)
            assert words <= closed
            assert closure_upto(closed) == closed

        corpus = [three_party_csm()]
        from amp.projection import project_tame as project
        corpus.append(project(validate(kle_machine())).csm)
        for csm in corpus:
            traces = csm_language_upto(csm, 6)
            for word in traces:
                for i in range(len(word) - 1):
                    swapped = swap_step(word, i)
                    if swapped is not None:
                        assert swapped in traces

        for machine in (three_party_machine(), kle_machine()):
            sample = maximal_traces_upto(machine, 6)
            assert check_feasible_eventual_reception_language(sample)
            from amp.core import TraceFlags
            words = closure_upto(set(sample))
            closed_sample = {
                w: TraceFlags(is_fifo(w).status == "complete", True)
                for w in words}
            assert check_feasible_eventual_reception_language(closed_sample)


def test_criterion_7_type_system():
    """The delegation example types, its reduct pins the delegated
    capability in flight, the corpus survives the harness, and the
    mutated label dies statically."""
    from pathlib import Path

    from amp.program import parse_program
    from amp.typecheck import (TypeCheckError, normalize, reduce_config,
                               subject_reduction_harness, typecheck_process,
                               typecheck_runtime)
    with Budget("criterion 7 (type system)", 30.0):
        program = delegation_program()
        typecheck_process(program)
        config = normalize(program.main)
        delegating = [succ for desc, succ in reduce_config(config, {})
                      if "l1" in desc]
        report = typecheck_runtime(program, delegating[0])
        assert report.ok
        assert report.chosen["s2"].queue(("p", "r")) == (("l1", "@q0"),)

        with pytest.raises(TypeCheckError):
            typecheck_process(delegation_program(first_label="l3"))

        programs_dir = Path(__file__).resolve().parent.parent / \
            "protocols" / "programs"
        corpus = sorted(programs_dir.glob("*.amp"))
        assert len(corpus) >= 10
        for path in corpus:
            parsed = parse_program(path.read_text(), base_dir=path.parent)
            for seed in range(5):
                walk = subject_reduction_harness(parsed, steps=30, seed=seed)
                assert walk.ok, (path.name, seed, walk.failure)


def test_criterion_8_strong_projection():
    """The maybe-one-more-message protocol is not strong, with the
    receiver's initial state as witness; the game is strong."""
    with Budget("criterion 8 (strong projection)", 1.0):
        maybe = global_to_psm(parse_global_type(
            "( p->q:m1 . p->r:m1 . 0 + p->q:m2 . 0 )"))
        report = strong_report(project_tame(maybe).csm)
        assert not report.strong
        result = project_tame(validate(maybe))
        assert report.witnesses == (
            ("r", result.csm.components["r"].initial),)
        assert strong_report(project_tame(kle_machine()).csm).strong


def test_criterion_9_derivative_oracle():
    """Both derivative constructions agree with the brute-force word
    quotient on a hundred random expressions and tree machines."""
    with Budget("criterion 9 (derivative oracle)", 60.0):
        rng = random.Random(44)
        for _ in range(100):
            regex = _random_regex(rng)
            words = regex_lang_upto(regex, 8)
            for a in sorted(first_letters(regex),
                            key=lambda e: e.sort_key()):
                derived = brz_deriv(a, regex)
                quotient = {w[2:] for w in words if w[:2] == a.letters()
                            and len(w) - 2 <= 6}
                derived_words = (frozenset(w for w in
                                           regex_lang_upto(derived, 6))
                                 if derived is not None else frozenset())
                assert quotient == derived_words
        for _ in range(100):
            machine = random_sender_driven_tree(rng, max_states=6)
            words = complete_traces(maximal_traces_upto(machine, 8))
            firsts = {ev for ev, _ in machine.out(machine.initial)
                      if ev is not None}
            for a in sorted(firsts, key=lambda e: e.sort_key()):
                derived = psm_deriv(a, machine)
                quotient = {w[2:] for w in words
                            if w[:2] == a.letters() and len(w) - 2 <= 6}
                derived_words = complete_traces(
                    maximal_traces_upto(derived, 6))
                assert quotient == derived_words
