"""Run `check-csm` on large CSMs, in one process, and print each
command's output and wall time.

`pairs(4,4)` is four disjoint sender/receiver pairs of four messages
each, whose participants see few local views; `check-csm` composes its
verdict from each pair's 15 configurations.  In `pairs(4,4) wrong` the
first receiver expects its labels in reverse order, so the CSM
deadlocks and `check-csm` explores it whole for the breadth-first
witness.  The other probes are CSMs whose participants meet a new
local view at most configurations:

- `tpc3` and `tpc4` are three-party choices with two and three looping
  branches, compiled by `from-global` and projected by `project`;
- `two` is p sending any of 4 labels to q, one state each;
- `twotwo` is `two` beside a renamed copy of itself at queue cap 6:
  two groups of participants that share no channel, each meeting more
  local views than its move table keeps.  Their product passes the
  config cap, so `check-csm` explores it whole, after 317
  configurations of the first group (each group reaches 5,461; its
  share of the config cap is 316, the integer part of 100,000's square
  root).

    PYTHONPATH=src python tests/kernel_probes.py
    PYTHONPATH=src python tests/kernel_probes.py --check

With `--check` the script also requires each command's exit code and
output lines to be the recorded ones, and exits 1 if one differs.  It
asserts no timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from amp import cli

TPC3 = ("rec X . ( p->q:m1 . q->r:1 . r->p:v . 0"
        " + p->q:m2 . q->r:2 . p->r:v2 . X"
        " + p->q:m3 . q->r:3 . p->r:v3 . X )")
TPC4 = ("rec X . ( p->q:m1 . q->r:1 . r->p:v . 0"
        " + p->q:m2 . q->r:2 . p->r:v2 . X"
        " + p->q:m3 . q->r:3 . p->r:v3 . X"
        " + p->q:m4 . q->r:4 . p->r:v4 . X )")


def _event(kind: str, sender: str, receiver: str, label: str) -> dict:
    return {"kind": kind, "sender": sender, "receiver": receiver,
            "label": label, "payload": None}


def _line(owner: str, events: list) -> dict:
    states = [f"{owner}{i}" for i in range(len(events) + 1)]
    return {"states": states, "initial": states[0], "finals": [states[-1]],
            "transitions": [{"from": states[i], "to": states[i + 1],
                             "event": ev} for i, ev in enumerate(events)]}


def _pairs_csm(n: int, m: int, wrong: bool = False) -> str:
    components = {}
    for i in range(1, n + 1):
        p, q = f"p{i}", f"q{i}"
        labels = [f"l{j}" for j in range(m)]
        received = labels[::-1] if wrong and i == 1 else labels
        components[p] = _line(p, [_event("send", p, q, x) for x in labels])
        components[q] = _line(q, [_event("recv", p, q, x) for x in received])
    return json.dumps(components)


def _two_csm(*suffixes: str) -> str:
    def loop(p: str, q: str, kind: str) -> dict:
        return {"states": ["s"], "initial": "s", "finals": ["s"],
                "transitions": [{"from": "s", "to": "s",
                                 "event": _event(kind, p, q, x)}
                                for x in "wxyz"]}
    components = {}
    for s in suffixes:
        components[f"p{s}"] = loop(f"p{s}", f"q{s}", "send")
        components[f"q{s}"] = loop(f"p{s}", f"q{s}", "recv")
    return json.dumps(components)


INPUTS = {
    "pairs44.csm.json": _pairs_csm(4, 4),
    "pairs44-wrong.csm.json": _pairs_csm(4, 4, wrong=True),
    "tpc3.gt": TPC3,
    "tpc4.gt": TPC4,
    "two.csm.json": _two_csm(""),
    "twotwo.csm.json": _two_csm("", "2"),
}

PASS = ["deadlocks: 0  soft deadlocks: 0", "projection check: pass"]

# (argv, exit code, output lines); None is output that is not checked
COMMANDS = [
    (["check-csm", "pairs44.csm.json"], 0,
     ["50625 configurations explored", "deadlocks: 0  soft deadlocks: 0"]),
    (["check-csm", "pairs44-wrong.csm.json"], 1,
     ["16875 configurations explored", "deadlocks: 1  soft deadlocks: 1",
      "deadlock witness: " + " ".join(
          f"p1>q1!l{j}" for j in range(4)) + "".join(
          f" p{i}>q{i}!l{j} p{i}>q{i}?l{j}"
          for i in range(2, 5) for j in range(4))]),
    (["from-global", "tpc3.gt", "-o", "tpc3.psm.json"], 0, None),
    (["project", "tpc3.psm.json", "-o", "tpc3.csm.json"], 0, None),
    (["check-csm", "tpc3.csm.json", "--against", "tpc3.psm.json"], 0,
     ["61975 configurations explored (truncated)"] + PASS),
    (["from-global", "tpc4.gt", "-o", "tpc4.psm.json"], 0, None),
    (["project", "tpc4.psm.json", "-o", "tpc4.csm.json"], 0, None),
    (["check-csm", "tpc4.csm.json", "--against", "tpc4.psm.json",
      "--queue-cap", "6"], 0,
     ["100000 configurations explored (truncated)"] + PASS),
    (["check-csm", "two.csm.json"], 0,
     ["87381 configurations explored (truncated)",
      "deadlocks: 0  soft deadlocks: 0"]),
    (["check-csm", "twotwo.csm.json", "--queue-cap", "6"], 0,
     ["100000 configurations explored (truncated)",
      "deadlocks: 0  soft deadlocks: 0"]),
]


def run(argv: list) -> tuple[int, list, float]:
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue().splitlines(), time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="require the recorded exit codes and output")
    args = parser.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            failed = probe(args.check)
        finally:
            os.chdir(here)
    if failed:
        print(f"{failed} of {len(COMMANDS)} commands differ from the record")
    return 1 if failed else 0


def probe(check: bool) -> int:
    """Run `COMMANDS` in the current directory; the number that differ
    from the record when `check` is set."""
    failed = 0
    for name, text in INPUTS.items():
        Path(name).write_text(text + "\n")
    for command, code, lines in COMMANDS:
        got, output, seconds = run(command)
        print(f"amp {' '.join(command)} / {got} / {seconds:.3f} s")
        for line in output:
            print(f"    {line}")
        if check and (got != code or lines is not None and output != lines):
            failed += 1
            print(f"  expected exit {code}"
                  + (f" and output {lines}" if lines is not None else ""))
    return failed


if __name__ == "__main__":
    sys.exit(main())
