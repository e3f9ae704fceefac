"""Every subcommand in a fresh interpreter: the same exit code, stdout
and written file as in this process, and only the modules it needs are
executed (`amp.cli` defers the rest until first use)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from amp import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROTOCOLS = ROOT / "protocols"

# Runs `amp.cli.main` on argv[2:] and writes to argv[1] the file of
# every code object that `exec` ran, which includes each module body.
CHILD = """\
import sys
executed = set()
def record(event, args):
    if event == "exec":
        executed.add(getattr(args[0], "co_filename", ""))
sys.addaudithook(record)
from amp import cli
try:
    code = cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as f:
        f.write("\\n".join(sorted(executed)))
sys.exit(code)
"""

SESSION = {"transform", "typecheck", "program"}
MACHINES = {"csm", "projection", "encoding"}

# (argv with OUT for the -o file, modules it must not execute)
COMMANDS = [
    (["validate", "kle.psm.json", "--json"], SESSION | MACHINES),
    (["classify", "three_party_choice.psm.json"], SESSION | MACHINES),
    (["bounds", "kle.psm.json", "--json"], SESSION | MACHINES),
    (["encode", "kle.psm.json", "-o", "OUT"], SESSION),
    (["decode-fsm", "kle_encoded.psm.json", "-o", "OUT"], SESSION),
    (["project", "three_party_choice.psm.json", "-o", "OUT"], SESSION),
    (["check-csm", "kle.csm.json", "--against", "kle.psm.json", "--json"],
     SESSION),
    (["simulate", "kle.csm.json", "--seed", "3"], SESSION),
    (["to-global", "three_party_choice.psm.json"], set()),
    (["from-global", "three_party_choice.gt", "-o", "OUT"], set()),
    (["to-local", "three_party_choice.psm.json", "--participant", "q"],
     set()),
    (["typecheck", "programs/three_party.amp", "--harness", "--json"],
     set()),
    (["dot", "kle.csm.json", "-o", "OUT"], SESSION),
]


def _argv(argv, out: Path) -> list:
    return [str(out) if a == "OUT"
            else str(PROTOCOLS / a) if a.endswith((".json", ".gt", ".amp"))
            else a for a in argv]


def test_every_subcommand_is_covered():
    commands = {name[4:].replace("_", "-") for name in vars(cli)
                if name.startswith("cmd_")}
    assert sorted(argv[0] for argv, _ in COMMANDS) == sorted(commands)


@pytest.mark.parametrize("argv, unused", COMMANDS,
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_fresh_interpreter_matches_in_process(argv, unused, tmp_path,
                                              capsys):
    out = tmp_path / "out"
    argv = _argv(argv, out)
    code = cli.main(argv)
    stdout = capsys.readouterr().out
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)

    record = tmp_path / "executed.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, "-c", CHILD, str(record), *argv],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=120)
    assert (child.returncode, child.stdout) == (code, stdout), child.stderr
    assert (out.read_bytes() if out.exists() else None) == written

    executed = {Path(f).stem for f in record.read_text().splitlines()
                if Path(f).parent == SRC / "amp"}
    assert {"cli", "core", "psm"} <= executed
    assert not executed & unused, sorted(executed & unused)
    if argv[0] == "typecheck":
        assert {"typecheck", "program"} <= executed



# What a class declared with `dataclasses` runs when its module is
# executed: `dataclasses` itself, the `inspect` it imports, and the
# methods it generates and executes from source text.
GENERATED = ("dataclasses.py", "inspect.py", "<string>")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS],
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_no_command_executes_dataclasses_or_generated_code(argv, tmp_path):
    record = tmp_path / "executed.txt"
    subprocess.run([sys.executable, "-c", CHILD, str(record),
                    *_argv(argv, tmp_path / "out")], cwd=tmp_path,
                   env=_child_env(), capture_output=True, timeout=120)
    executed = record.read_text().splitlines()
    assert {"cli.py", "core.py"} <= {Path(f).name for f in executed}
    assert [f for f in executed if f.endswith(GENERATED)] == []


def test_no_module_imports_dataclasses_or_inspect():
    """All ten modules in a fresh interpreter, each executed: reading an
    attribute runs a module that `amp.cli` deferred."""
    modules = ["core", "psm", "csm", "encoding", "fifo", "program",
               "projection", "transform", "typecheck", "cli"]
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('amp.' + name).__name__\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.stdout == "[]\n", child.stderr
