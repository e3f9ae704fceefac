"""Failure charging and the output checks."""

import contextlib
import time

import pytest

from perfbench import harness
from perfbench.harness import Op, expect


def op(check=None, limit=0.5, output=None):
    return Op("op", ("x",), limit, check or expect(0), output)


def test_passing_op_is_charged_its_own_time():
    result = harness.run_op(op(), lambda argv: 0)
    assert not result.failed and not result.wrong and result.error is None
    assert result.charged_s == result.elapsed_s < 0.5


def test_raising_op_fails_and_is_charged_its_limit():
    def deep(argv):
        return deep(argv)
    result = harness.run_op(op(), deep)
    assert result.failed and not result.wrong
    assert result.error.startswith("RecursionError")
    assert result.charged_s == 0.5


def test_wrong_exit_code_or_field_is_a_wrong_answer():
    result = harness.run_op(op(expect(1)), lambda argv: 0)
    assert result.failed and result.wrong and result.charged_s == 0.5
    check = expect(0, {"a.b": 2})
    result = harness.run_op(op(check), lambda argv: print('{"a": {"b": 3}}') or 0)
    assert result.wrong and "a.b = 3" in result.error
    result = harness.run_op(op(check), lambda argv: print("not json") or 0)
    assert result.wrong and result.error.startswith("unreadable output")


def test_slow_op_is_stopped_at_its_limit_and_charged_it():
    start = time.perf_counter()
    result = harness.run_op(op(limit=0.05), lambda argv: time.sleep(2))
    assert time.perf_counter() - start < 1
    assert result.failed and not result.wrong
    assert result.error.startswith("timeout")
    assert result.charged_s == 0.05


def test_verdict_sums_charged_times():
    results = [harness.OpResult("a", 0.1, 0.1, False, False, None),
               harness.OpResult("b", 0.2, 3.0, True, False, "timeout")]
    assert harness.verdict_s(results) == pytest.approx(3.1)


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([5.0], 90) == 5.0
    assert harness.percentile([1, 2, 3, 4], 50) == 2.5
    assert harness.percentile(range(11), 90) == pytest.approx(9.0)


def test_stale_output_is_removed_before_the_op(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("stale")
    result = harness.run_op(op(expect(0, None, harness.same_file(out, "x")),
                               output=out), lambda argv: 0)
    assert result.wrong and "not written" in result.error


def test_line_word_reads_single_paths_only():
    machine = {"states": ["a", "b", "c"], "initial": "a", "finals": ["c"],
               "transitions": [
                   {"from": "a", "to": "b", "event": {
                       "kind": "send", "sender": "p", "receiver": "q",
                       "label": "m"}},
                   {"from": "b", "to": "c", "event": {
                       "kind": "recv", "sender": "p", "receiver": "q",
                       "label": "m"}}]}
    assert harness.line_word(machine) == ["p>q!m", "p>q?m"]
    machine["finals"] = ["b"]
    assert harness.line_word(machine) is None


class DoublingClock:
    paused_s = 0.0

    def sampling(self):
        return contextlib.nullcontext()

    def factor(self):
        return 2.0


def test_clock_rescales_times_but_not_charged_limits():
    ops = [op(), op(expect(1))]
    results = harness.run_pass(ops, lambda argv: 0, DoublingClock())
    assert results[0].charged_s == pytest.approx(2 * results[0].elapsed_s)
    assert results[1].failed and results[1].charged_s == 0.5


def test_speed_clock_samples_inside_ops_and_leaves_that_time_out():
    from perfbench import speed

    def busy(argv):
        deadline = time.process_time() + 0.35
        while time.process_time() < deadline:
            pass
        return 0
    clock = speed.Clock()
    result = harness.run_op(op(limit=5.0), busy, clock)
    assert clock.paused_s > 0 and not result.failed
    assert clock.factor() > 0
