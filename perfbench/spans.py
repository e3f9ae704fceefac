"""Spans around the calls into each layer of amp, recorded from outside.

Every listed function is wrapped in every `amp` module namespace that
binds it, so calls through `from .csm import explore` and calls made
through the defining module are both seen.  Functions imported inside a
function body (`check_projection` reads `amp.core.maximal_traces_upto`
at call time) are seen through the defining module.  Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer (module of amp) -> its public functions that get a span
LAYERS = {
    "cli": ("main",),
    "projection": ("project_tame", "subset_construction", "minimize"),
    "psm": ("validate", "build_config_graph", "check_fer",
            "infer_channel_bounds"),
    "encoding": ("encode_psm", "is_amicable", "decode_fsm"),
    "csm": ("check_projection", "explore", "csm_language_upto",
            "word_embeds"),
    "core": ("maximal_traces_upto",),
    "fifo": ("closure_upto",),
    "transform": ("parse_global_type", "global_to_psm", "psm_to_regex",
                  "regex_to_psm", "psm_to_global_type"),
    "typecheck": ("typecheck_process", "subject_reduction_harness",
                  "typecheck_runtime", "check_well_annotated"),
    "program": ("parse_program",),
}

# span name -> counter -> value read from (args, result)
COUNTS = {
    "projection.minimize": {
        "states_in": lambda args, result: len(args[0].states),
        "states_out": lambda args, result: len(result.states)},
    "projection.subset_construction": {
        "states": lambda args, result: len(result.states)},
    "psm.build_config_graph": {
        "nodes": lambda args, result: len(result.nodes)},
    "csm.explore": {"configs": lambda args, result: len(result.configs)},
    "csm.csm_language_upto": {"words": lambda args, result: len(result)},
    "core.maximal_traces_upto": {"words": lambda args, result: len(result)},
    "fifo.closure_upto": {"words_out": lambda args, result: len(result)},
    "transform.regex_to_psm": {
        "states": lambda args, result: len(result.states)},
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)

# span fields
NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        # operation id -> "<span name>.<counter>" -> summed value
        self.op_counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        counters = COUNTS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            for counter, read in counters.items():
                self.op_counts[self.op][f"{name}.{counter}"] += \
                    read(args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever an amp module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "amp" or key.startswith("amp.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"amp.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._installed.append((module, attr, original))

    def count(self, key: str) -> float:
        """A counter summed over every operation."""
        return sum(counts[key] for counts in self.op_counts.values())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, calls, and calls that raised."""
    totals = {name: {"self_s": 0.0, "calls": 0, "raised": 0}
              for name in SPAN_NAMES}
    for span, self_s in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[NAME],
                                  {"self_s": 0.0, "calls": 0, "raised": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["raised"] += span[RAISED]
    return totals


def op_hot_spots(spans, top: int = 3) -> dict:
    """Per operation: its wall time and the functions with most self time."""
    per_op: dict = defaultdict(lambda: defaultdict(float))
    wall: dict = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        per_op[span[OP]][span[NAME]] += self_s
        if span[PARENT] < 0:
            wall[span[OP]] += span[END] - span[START]
    return {op: (wall[op], sorted(names.items(), key=lambda kv: -kv[1])[:top])
            for op, names in per_op.items()}
