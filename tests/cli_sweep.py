"""Run every CLI subcommand over the shipped corpus, and the type
checker's harness over the programs in `tests/programs`, in one process
and print one `command / exit / digest` line per command.

The digest covers stdout, stderr and any file written through `-o`
(which goes to a temporary directory, never into the repository).
`to-global` and `to-local` also run on three generated inputs, written
into the same temporary directory and printed as `GEN/<name>`: a
60-message chain machine, a looping branchy global type and a
40-message global type.  `check-csm`, `simulate` and `dot` also run on
a generated two-participant CSM with epsilon transitions whose initial
configuration is final yet can still move.  `project --json` also runs
on generated protocols that fail Send Validity, Receive Validity,
amicability and the encoding's final states, one each, and with
`to-local` on one whose participant p sends to a participant named like
another channel's forwarder.  Two runs of the same code
must print the same lines, whatever the hash seed:

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/cli_sweep.py > a.txt
    PYTHONHASHSEED=2 PYTHONPATH=src python tests/cli_sweep.py > b.txt
    diff a.txt b.txt

Comparing the lines of two versions of the code shows which outputs a
change touched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from amp import cli

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = Path("protocols")
OUTPUT = "OUT"  # stands for the temporary -o file in printed commands
GENERATED = "GEN"  # stands for the temporary directory of generated inputs
RING = ("p", "q", "r")


def _chain_machine(n: int) -> str:
    """n messages p->q, q->r, r->p, ..., each send followed at once by
    its receive, as a protocol-machine file."""
    states, transitions = ["s0"], []
    for i in range(n):
        sender, receiver = RING[i % 3], RING[(i + 1) % 3]
        for kind, src, dst in (("send", f"s{i}", f"s{i}m"),
                               ("recv", f"s{i}m", f"s{i + 1}")):
            states.append(dst)
            transitions.append({"from": src, "to": dst, "event": {
                "kind": kind, "sender": sender, "receiver": receiver,
                "label": f"m{i % 3}", "payload": None}})
    return json.dumps({"states": states, "initial": "s0",
                       "finals": [f"s{n}"], "transitions": transitions})


def _chain_type(n: int) -> str:
    return " . ".join(f"{RING[i % 3]}->{RING[(i + 1) % 3]}:m{i % 3}"
                      for i in range(n)) + " . 0"


def _branchy_loop(depth: int, chooser: int, leaves) -> str:
    """A binary choice tree of the given depth: each chooser tells the
    next participant, who tells the third, who chooses next.  Its leaves
    are taken from `leaves`."""
    if depth == 0:
        return next(leaves)
    a, b, c = (RING[(chooser + i) % 3] for i in range(3))
    branches = [f"{a}->{b}:{tag}{depth} . {b}->{c}:{tag}{depth} . "
                + _branchy_loop(depth - 1, (chooser + 2) % 3, leaves)
                for tag in ("l", "r")]
    return "( " + " + ".join(branches) + " )"


def _eps_csm() -> str:
    """p and q loop through epsilon steps: p sends a, then any number of
    b, and q receives them; every state is final except p1."""
    def step(src, dst, kind=None, label=None):
        event = {"kind": kind, "sender": "p", "receiver": "q",
                 "label": label, "payload": None} if kind else {"kind": "eps"}
        return {"from": src, "to": dst, "event": event}

    return json.dumps({
        "p": {"states": ["p0", "p1", "p2"], "initial": "p0",
              "finals": ["p0", "p2"],
              "transitions": [step("p0", "p1"), step("p1", "p2", "send", "a"),
                              step("p2", "p2", "send", "b"),
                              step("p2", "p0")]},
        "q": {"states": ["q0", "q1"], "initial": "q0", "finals": ["q0", "q1"],
              "transitions": [step("q0", "q1", "recv", "a"),
                              step("q1", "q1", "recv", "b"),
                              step("q1", "q0")]}})


def _line_machine(events) -> str:
    """A protocol-machine file that takes `events`, (kind, sender,
    receiver, label) tuples, in a row and then ends."""
    states = [f"s{i}" for i in range(len(events) + 1)]
    return json.dumps({
        "states": states, "initial": "s0", "finals": [states[-1]],
        "transitions": [
            {"from": states[i], "to": states[i + 1], "event": {
                "kind": kind, "sender": sender, "receiver": receiver,
                "label": label, "payload": None}}
            for i, (kind, sender, receiver, label) in enumerate(events)]})


def _burst_then(events) -> str:
    """p sends a and b to q before q receives them, so p>q has two
    forwarders, (p,q)0 and (p,q)1; then `events`."""
    return _line_machine([("send", "p", "q", "a"), ("send", "p", "q", "b"),
                          ("recv", "p", "q", "a"), ("recv", "p", "q", "b")]
                         + events)


GENERATED_INPUTS = {
    "chain60.psm.json": _chain_machine(60),
    # leaves alternate between ending and looping back to the top
    "branchy_loop.gt": "rec X . " + _branchy_loop(
        3, 0, itertools.cycle(("0", "X"))),
    "global40.gt": _chain_type(40),
    "eps.csm.json": _eps_csm(),
}

# protocols that `project` rejects, one for each condition
REJECTED_INPUTS = {
    "send_validity.gt": "( c->d:a . p->r:x . 0 + c->d:b . p->r:z . 0 )",
    "receive_validity.gt":
        "( c->q2:a . q2->p:n . q1->p:m . 0 + c->q1:b . q1->p:m . 0 )",
    # a participant named like p>q's first forwarder
    "not_amicable.psm.json": _burst_then([("send", "(p,q)0", "r", "x"),
                                          ("recv", "(p,q)0", "r", "x")]),
    # a third message on the ring of two: its counters end at one
    "lost_final.psm.json": _burst_then([("send", "p", "q", "c"),
                                        ("recv", "p", "q", "c")]),
    # decoding would move p's send to channel x>y
    "forwarder_named.psm.json": _line_machine([("send", "p", "(x,y)0", "m"),
                                               ("recv", "p", "(x,y)0", "m")]),
}


def corpus(pattern: str, directory: Path = PROTOCOLS) -> list[str]:
    return sorted(str(p.relative_to(ROOT))
                  for p in (ROOT / directory).glob(pattern))


def commands() -> list[list[str]]:
    protocols = corpus("*.psm.json") + corpus("*.gt")
    csms = corpus("*.csm.json")
    programs = corpus("*.amp", PROTOCOLS / "programs")
    out: list[list[str]] = []
    for path in protocols:
        for json_flag in ([], ["--json"]):
            for sub in ("validate", "classify", "bounds", "project"):
                out.append([sub, path, *json_flag])
            out.append(["project", path, "--strong", *json_flag])
        out.append(["encode", path, "-o", OUTPUT])
        out.append(["to-global", path])
        out.append(["dot", path])
        if path.endswith(".gt"):
            out.append(["from-global", path])
        else:
            out.append(["decode-fsm", path])
        for participant in cli._load_machine(path).participants() + ("zz",):
            out.append(["to-local", path, "--participant", participant])
    for path in csms:
        out.append(["check-csm", path])
        out.append(["check-csm", path, "--json"])
        for against in protocols:
            out.append(["check-csm", path, "--against", against, "-K", "4"])
        out.append(["simulate", path, "--seed", "1"])
        out.append(["dot", path, "-o", OUTPUT])
    for path in programs:
        out.append(["typecheck", path])
        out.append(["typecheck", path, "--harness", "--json"])
        out.append(["typecheck", path, "--harness", "--json", "--seeds", "21"])
    for path in corpus("*.amp", Path("tests") / "programs"):
        out.append(["typecheck", path, "--harness", "--json", "--seeds", "21"])
    out.append(["check-csm", "protocols/three_party_choice.csm.json",
                "--against", "protocols/three_party_reply_mismatch.gt",
                "-K", "6"])
    out.append(["validate", "protocols/no_such_file.gt"])
    out.append(["no-such-subcommand"])
    for name in GENERATED_INPUTS:
        path = f"{GENERATED}/{name}"
        if name.endswith(".csm.json"):
            out.append(["check-csm", path])
            out.append(["check-csm", path, "--json"])
            out.append(["check-csm", path, "--queue-cap", "1", "--json"])
            out.append(["check-csm", path, "--against",
                        "protocols/three_party_choice.gt", "-K", "4"])
            out.append(["simulate", path, "--seed", "1"])
            out.append(["dot", path])
            continue
        out.append(["to-global", path])
        for participant in RING:
            out.append(["to-local", path, "--participant", participant])
    for name in REJECTED_INPUTS:
        out.append(["project", f"{GENERATED}/{name}", "--json"])
    # `project -K` is still parsed but no longer changes the report: this
    # line prints the digest of the one without it
    out.append(["project", f"{GENERATED}/send_validity.gt", "--json",
                "-K", "1"])
    out.append(["to-local", f"{GENERATED}/forwarder_named.psm.json",
                "--participant", "p", "--json"])
    return out


def run(argv: list[str], tmp_dir: Path) -> tuple[int, str]:
    target = tmp_dir / "out"
    target.unlink(missing_ok=True)
    argv = [str(target) if a == OUTPUT
            else str(tmp_dir) + a[len(GENERATED):]
            if a.startswith(GENERATED + "/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = target.read_text() if target.exists() else ""
    text = "\0".join((stdout.getvalue(), stderr.getvalue(), written))
    text = text.replace(str(target), OUTPUT).replace(str(tmp_dir), GENERATED)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return code, digest[:16]


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**GENERATED_INPUTS, **REJECTED_INPUTS}.items():
            (Path(tmp) / name).write_text(text + "\n")
        for argv in commands():
            code, digest = run(argv, Path(tmp))
            print(f"amp {' '.join(argv)} / {code} / {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
