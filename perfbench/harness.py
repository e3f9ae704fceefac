"""Running CLI operations in-process, checking them, and charging failures.

An operation is one `amp.cli.main(argv)` call plus a check of its exit
code and output against an answer fixed in the benchmark.  An operation
fails when it raises, runs past its time limit, or gives a wrong answer;
a failed operation is charged its limit in every timing, as in a PAR-1
score, so a change that makes a failing operation pass reads as a gain.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[int, str], Optional[str]]


class OpTimeout(BaseException):
    """Raised inside an operation that ran past its limit.  A
    BaseException, so no `except Exception` in the program swallows it."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    limit_s: float
    check: Check
    output: Optional[Path] = None   # a file the operation writes, if any


@dataclass(frozen=True)
class OpResult:
    name: str
    elapsed_s: float
    charged_s: float
    failed: bool
    wrong: bool            # the operation finished but its answer was wrong
    error: Optional[str]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the running thread once `seconds` have passed."""
    def expire(signum, frame):
        raise OpTimeout(f"over its {seconds:g} s limit")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: Op, main: Callable[[list], int], clock=None) -> OpResult:
    """Run one operation, never retrying it, and charge it.  With a
    `speed.Clock`, the machine's speed is sampled while it runs and the
    sampling time is left out of its time."""
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    out = io.StringIO()
    wrong = False
    sampling = contextlib.nullcontext() if clock is None else clock.sampling()
    paused = 0.0 if clock is None else clock.paused_s
    start = time.perf_counter()
    try:
        with time_limit(op.limit_s), sampling, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
    except OpTimeout as exc:
        error = f"timeout: {exc}"
    except Exception as exc:    # the op's failure is recorded, the run goes on
        error = f"{type(exc).__name__}: {str(exc)[:160]}"
    else:
        error = None
    elapsed = time.perf_counter() - start
    if clock is not None:
        elapsed -= clock.paused_s - paused
    if error is None:
        try:
            error = op.check(code, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        wrong = error is not None
    if error is None and elapsed > op.limit_s:
        error = f"timeout: {elapsed:.3f} s over its {op.limit_s:g} s limit"
    failed = error is not None
    return OpResult(op.name, elapsed, op.limit_s if failed else elapsed,
                    failed, wrong, error)


# With a clock, the machine's speed is read after at least this much work.
CLOCK_EVERY_S = 1.0


def run_pass(ops, main, clock=None, before_op=None) -> list[OpResult]:
    """Run `ops` in order.  With a `speed.Clock`, each time is converted
    to reference seconds by the speed sampled around and during it; a
    failure keeps its charge, its limit."""
    results, scaled = [], 0
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(op)
        results.append(run_op(op, main, clock))
        if clock is None:
            continue
        pending = results[scaled:]
        if i == len(ops) - 1 or \
                sum(r.elapsed_s for r in pending) >= CLOCK_EVERY_S:
            factor = clock.factor()
            results[scaled:] = [
                r if r.failed else
                dataclasses.replace(r, charged_s=r.elapsed_s * factor)
                for r in pending]
            scaled = len(results)
    return results


def verdict_s(results: list[OpResult]) -> float:
    """One pass's time to all verdicts, failures charged their limit."""
    return sum(r.charged_s for r in results)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- checks -----------------------------------------------------------------

def _field(report, dotted: str):
    for key in dotted.split("."):
        report = report[key]
    return report


def expect(code: int, fields: Optional[dict] = None, *extra: Check) -> Check:
    """Exit code `code`, each dotted `--json` field equal to its value,
    then every `extra` check."""
    def check(got: int, out: str) -> Optional[str]:
        if got != code:
            return f"exit {got}, expected {code}"
        if fields:
            report = json.loads(out)
            for key, want in fields.items():
                value = _field(report, key)
                if value != want:
                    return f"{key} = {value!r}, expected {want!r}"
        for more in extra:
            error = more(got, out)
            if error:
                return error
        return None
    return check


def same_file(path: Path, golden: str) -> Check:
    """The operation wrote exactly `golden` to `path`."""
    def check(code: int, out: str) -> Optional[str]:
        if not path.exists():
            return f"{path.name} not written"
        if path.read_text() != golden:
            return f"{path.name} differs from its golden"
        return None
    return check


def _event_text(ev: dict) -> str:
    mark = {"send": "!", "recv": "?"}[ev["kind"]]
    return f"{ev['sender']}>{ev['receiver']}{mark}{ev['label']}"


def line_word(machine: dict) -> Optional[list[str]]:
    """The word of a machine that is a single path from its initial state
    to a final sink, or None when the machine is not such a path."""
    out: dict[str, list] = {q: [] for q in machine["states"]}
    for t in machine["transitions"]:
        out[t["from"]].append(t)
    word, state, seen = [], machine["initial"], set()
    while out[state]:
        if len(out[state]) != 1 or state in seen:
            return None
        seen.add(state)
        t = out[state][0]
        if t["event"]["kind"] == "eps":
            return None
        word.append(_event_text(t["event"]))
        state = t["to"]
    return word if state in machine["finals"] else None


def line_machine(path: Path, word: list[str]) -> Check:
    """The operation wrote a machine whose only run spells `word`."""
    def check(code: int, out: str) -> Optional[str]:
        if not path.exists():
            return f"{path.name} not written"
        if line_word(json.loads(path.read_text())) != word:
            return f"{path.name} is not the expected line machine"
        return None
    return check


def line_csm(path: Path, words: dict[str, list[str]]) -> Check:
    """The operation wrote a CSM whose components are single paths
    spelling each participant's `words`."""
    def check(code: int, out: str) -> Optional[str]:
        if not path.exists():
            return f"{path.name} not written"
        csm = json.loads(path.read_text())
        if sorted(csm) != sorted(words):
            return f"{path.name} has participants {sorted(csm)}"
        for participant, machine in csm.items():
            if line_word(machine) != words[participant]:
                return f"{path.name}: component {participant} is wrong"
        return None
    return check
