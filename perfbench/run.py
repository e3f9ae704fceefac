"""Benchmark amp through its command-line entry point.

    python3 perfbench/run.py                  # all workloads, one process each
    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

With `--workload`, this process runs that one workload: it imports amp
from `src/` of the checkout it sits in, writes the workload's inputs to
a temporary directory under `.perfbench/`, and calls `amp.cli.main(argv)`
for one operation at a time (a closed loop with a single caller), each
checked against an answer fixed in `perfbench/workloads.py`.  It prints
a report and, as its last line, one JSON object with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(ROOT))
from perfbench import harness, spans, speed, workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
MIN_COLD_ROUNDS = 6


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_cli():
    """Import amp from the checkout's `src/`, never an installed copy."""
    if not (SRC / "amp" / "cli.py").is_file() or \
            not (ROOT / "protocols").is_dir():
        sys.exit(f"error: {ROOT} has no src/amp/cli.py or protocols/")
    sys.path.insert(0, str(SRC))
    import amp.cli
    _check_source(amp.cli.__file__)
    return amp.cli


def _check_source(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "amp").resolve():
        sys.exit(f"error: imported amp from {path}, not from {SRC}")


def child_import_s() -> float:
    """Seconds a fresh interpreter spends in `import amp.cli`."""
    code = ("import time; t = time.perf_counter(); import amp.cli; "
            "print(time.perf_counter() - t); print(amp.cli.__file__)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    seconds, where = done.stdout.split()
    _check_source(where)
    return float(seconds)


# Runs the CLI as `python -m amp.cli` does.  It times the speed probe
# right after start-up and again at exit, in the same process and so on
# the same CPU, and reports that, the time the probing took, and the peak
# RSS of its own address space (ru_maxrss of a child also counts the
# parent's pages at the time of the fork).
COLD_CLI = """\
import atexit, runpy, sys, time
started = time.perf_counter()
from perfbench.speed import PROBES_PER_READING, probe_s
probes = [probe_s() for _ in range(PROBES_PER_READING)]
probing = time.perf_counter() - started
def report():
    started = time.perf_counter()
    probes.extend(probe_s() for _ in range(PROBES_PER_READING))
    taken = probing + time.perf_counter() - started
    with open("/proc/self/status") as f:
        hwm = [l for l in f if l.startswith("VmHWM:")][0]
    sys.stderr.write(f"{hwm}probes: {taken} {sum(probes) / len(probes)}\\n")
atexit.register(report)
sys.argv[0] = "amp"
runpy.run_module("amp.cli", run_name="__main__")
"""


def peak_rss_mb(status: str) -> float:
    """The VmHWM line of a /proc/<pid>/status text, in MB."""
    line = [l for l in status.splitlines() if l.startswith("VmHWM:")][0]
    return int(line.split()[1]) / 1024


class ColdCli:
    """Runs the CLI in a fresh interpreter, as a user would, one at a
    time; keeps the largest peak RSS among those runs and, for the last
    run, the seconds it spent probing and the probe's mean time."""

    def __init__(self):
        self.peak_mb = 0.0
        self.probing = (0.0, speed.REFERENCE_S)

    def __call__(self, argv: list) -> int:
        done = subprocess.run([sys.executable, "-c", COLD_CLI, *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True)
        sys.stdout.write(done.stdout)
        self.peak_mb = max(self.peak_mb, peak_rss_mb(done.stderr))
        line = [l for l in done.stderr.splitlines()
                if l.startswith("probes:")][0]
        taken, mean = map(float, line.split()[1:])
        self.probing = (taken, mean)
        return done.returncode

    def round(self, ops) -> list[harness.OpResult]:
        """One run of each op, in reference seconds by the child's own
        probes, with the probing left out."""
        results = []
        for op in ops:
            result = harness.run_op(op, self)
            if not result.failed:
                taken, mean = self.probing
                result = dataclasses.replace(
                    result, charged_s=(result.elapsed_s - taken)
                    * speed.REFERENCE_S / mean)
            results.append(result)
        return results


def setup(name: str, seed: int, cli):
    """Generate the inputs into a fresh directory and run the warm-up
    pass; returns (reference seconds, tmp dir, ops, warm-up results).
    The import is timed in a fresh interpreter, since this one has amp
    already."""
    clock = speed.Clock()
    import_s = child_import_s()
    start = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    ops, warm = workloads.WORKLOADS[name](ROOT, tmp, random.Random(seed))
    warmed = harness.run_pass(warm, lambda argv: cli.main(argv))
    taken = import_s + time.perf_counter() - start
    return taken * clock.factor(), tmp, ops, warmed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(ops, cold_ops, cli, cold_cli: ColdCli, clock: speed.Clock,
            seconds: float):
    """Passes in-process, each followed by a round of cold CLI runs, for
    `seconds` and at least MIN_PASSES passes and MIN_COLD_ROUNDS rounds."""
    main = lambda argv: cli.main(argv)  # noqa: E731 (looked up per call)
    passes, rounds = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(harness.run_pass(ops, main, clock))
        rounds.append(cold_cli.round(cold_ops))
    while len(rounds) < MIN_COLD_ROUNDS:
        rounds.append(cold_cli.round(cold_ops))
    return passes, rounds


def end_to_end(setups, passes, rounds, cold_peak_mb: float) -> dict:
    """The cold CLI figure is the median over rounds of a round's mean,
    since the median of the pooled runs of four commands of different
    cost would jump between two of them."""
    charged = [r.charged_s for p in passes for r in p]
    results = [r for p in passes + rounds for r in p]
    failed = sum(r.failed for r in results)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "verdict_s": metric(
            statistics.median(harness.verdict_s(p) for p in passes), "s"),
        "op_ms.p50": metric(1000 * harness.percentile(charged, 50), "ms"),
        "op_ms.p90": metric(1000 * harness.percentile(charged, 90), "ms"),
        "ok_ratio": metric(1 - failed / len(results), "ratio"),
        "peak_rss_mb": metric(
            peak_rss_mb(Path("/proc/self/status").read_text()), "MB"),
        "cli_cold_ms.p50": metric(1000 * statistics.median(
            statistics.fmean(r.charged_s for r in p) for p in rounds), "ms"),
        "cli_peak_rss_mb": metric(cold_peak_mb, "MB"),
    }


def traced_run(ops, cli, clock: speed.Clock, seconds: float,
               tracer: spans.Tracer):
    """Alternate untraced and traced passes; spans come only from the
    traced ones."""
    main = lambda argv: cli.main(argv)  # noqa: E731 (looked up per call)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(harness.run_pass(ops, main, clock))

        def label(op, number=len(traced)):
            tracer.op = f"{number}/{op.name}"
        tracer.install()
        try:
            traced.append(harness.run_pass(ops, main, clock, label))
        finally:
            tracer.uninstall()
    return untraced, traced


def per_layer(tracer: spans.Tracer, untraced, traced) -> dict:
    """Per traced pass, in wall seconds: spans are not rescaled."""
    passes = len(traced)
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_s"] = metric(totals[name]["self_s"] / passes, "s")
        metrics[f"{name}.calls"] = metric(totals[name]["calls"] / passes,
                                          "count")
        metrics[f"{name}.raised"] = metric(totals[name]["raised"] / passes,
                                           "count")
        for counter in spans.COUNTS.get(name, {}):
            metrics[f"{name}.{counter}"] = metric(
                tracer.count(f"{name}.{counter}") / passes, "count")
    explore_s = totals["csm.explore"]["self_s"]
    metrics["csm.explore.configs_per_s"] = metric(
        tracer.count("csm.explore.configs") / explore_s if explore_s else 0.0,
        "1/s")
    metrics["trace_overhead"] = metric(
        statistics.median(harness.verdict_s(p) for p in traced)
        / statistics.median(harness.verdict_s(p) for p in untraced), "ratio")
    return metrics


def print_hot_spots(tracer: spans.Tracer) -> None:
    """Per operation of the first traced pass: wall time, the functions
    with most self time, and the counts read from return values."""
    print("hot spots (first traced pass, wall seconds):")
    for op, (wall, top) in spans.op_hot_spots(tracer.spans).items():
        if not op.startswith("0/"):
            continue
        parts = ", ".join(f"{fn} {s * 1000:.1f} ms" for fn, s in top)
        counts = ", ".join(f"{key}={value:g}" for key, value
                           in sorted(tracer.op_counts[op].items()))
        print(f"  {op[2:]}: {wall * 1000:.1f} ms; {parts}; {counts}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    setups, tmp = [], None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if tmp is not None:
                shutil.rmtree(tmp)
            seconds_taken, tmp, ops, warmed = setup(name, seed, cli)
            setups.append(seconds_taken)
        clock = speed.Clock()
        if trace:
            tracer = spans.Tracer()
            untraced, traced = traced_run(ops, cli, clock, seconds, tracer)
            tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
            print_hot_spots(tracer)
            results = [r for p in untraced + traced for r in p]
            metrics = per_layer(tracer, untraced, traced)
            samples = f"{len(traced)} traced and {len(untraced)} untraced passes"
        else:
            cold_cli = ColdCli()
            passes, rounds = measure(ops, workloads.cold_cli(ROOT, tmp), cli,
                                     cold_cli, clock, seconds)
            results = [r for p in passes + rounds for r in p]
            metrics = end_to_end(setups, passes, rounds, cold_cli.peak_mb)
            samples = (f"{len(passes)} passes of {len(ops)} ops "
                       f"({len(passes) * len(ops)} op samples), "
                       f"{len(rounds)} rounds of cold CLI runs, "
                       f"{len(setups)} set-ups")
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    failures = [r for r in results + warmed if r.failed]
    for r in failures[:20]:
        print(f"FAILED {r.name}: {r.error}")
    print(f"{name}, seed {seed}: {samples}; machine speed "
          f"{statistics.median(clock.factors):.3f} reference s per wall s")
    if not trace:
        for key, m in metrics.items():
            print(f"  {key:18} {m['value']:12.4f} {m['unit']}")
    print(json.dumps({
        "correct": not any(r.wrong for r in results + warmed),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
