"""Run every CLI subcommand over the shipped corpus, and the type
checker's harness over the programs in `tests/programs`, in one process
and print one `command / exit / digest` line per command.

The digest covers stdout, stderr and any file written through `-o`
(which goes to a temporary directory, never into the repository).  Two
runs of the same code must print the same lines, whatever the hash
seed:

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
import os
import sys
import tempfile
from pathlib import Path

from amp import cli

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = Path("protocols")
OUTPUT = "OUT"  # stands for the temporary -o file in printed commands


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
    return out


def run(argv: list[str], tmp_dir: Path) -> tuple[int, str]:
    target = tmp_dir / "out"
    target.unlink(missing_ok=True)
    argv = [str(target) if a == OUTPUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = target.read_text() if target.exists() else ""
    text = "\0".join((stdout.getvalue(), stderr.getvalue(), written))
    digest = hashlib.sha256(
        text.replace(str(target), OUTPUT).encode()).hexdigest()
    return code, digest[:16]


def main() -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands():
            code, digest = run(argv, Path(tmp))
            print(f"amp {' '.join(argv)} / {code} / {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
