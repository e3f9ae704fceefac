"""End-to-end tests of the command line."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amp.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ROOT / "protocols"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_reports_tame(capsys):
    code, out = run(capsys, "validate", str(PROTOCOLS / "kle.psm.json"),
                    "--json")
    assert code == 0
    report = json.loads(out)
    assert report["tame"] is True
    assert report["perChannelBounds"] == {"e>o": 1, "o>e": 1}
    assert report["choiceClass"] == "sender-driven"
    assert report["sinkFinal"] is True


def test_validate_empty_protocol_trivially_ok(tmp_path, capsys):
    empty = tmp_path / "empty.psm.json"
    empty.write_text(json.dumps({
        "states": ["a"], "initial": "a", "finals": ["a"], "transitions": []}))
    code, out = run(capsys, "validate", str(empty), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == 0 and report["tame"] is True


CORPUS = sorted(PROTOCOLS.glob("*.psm.json")) + sorted(PROTOCOLS.glob("*.gt"))


def test_choice_is_directed_only_for_a_protocol_with_no_message(tmp_path,
                                                                 capsys):
    """`validate` and `classify` read the choice class with each pair
    split into its send and its receive, so every message adds a state
    that moves on a receive, and only a protocol with no message is
    directed.  Pinned as it stands: whether directed should be read on
    the exchanges is a contract change of its own."""
    printed = {}
    for path in CORPUS:
        for command in ("validate", "classify"):
            code, out = run(capsys, command, str(path))
            assert code == 0
            printed.setdefault(path.name, set()).add(out.splitlines()[-1])
    choice = dict.fromkeys(printed, "sender-driven")
    choice.update({"mixed_choice_toy.gt": "mixed",
                   "three_party_label_clash.gt": "non-deterministic"})
    assert len(printed) == 12 and printed == {
        name: {f"choice: {c}  tame: {c == 'sender-driven'}"}
        for name, c in choice.items()}
    empty = tmp_path / "empty.psm.json"
    empty.write_text(json.dumps({
        "states": ["a"], "initial": "a", "finals": ["a"], "transitions": []}))
    code, out = run(capsys, "classify", str(empty))
    assert code == 0 and out.splitlines()[-1] == "choice: directed  tame: True"


def test_validate_builds_no_machine_but_the_loaded_one(monkeypatch):
    """`validate` and `classify` read sink-finality and the choice class
    off the compiled form: where no channel needs a bound, they build no
    `StateMachine` once the protocol is loaded."""
    from amp import cli, core, psm
    built = []
    init = core.StateMachine.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    checked = 0
    for path in CORPUS:
        form = cli._load_protocol(str(path))
        if psm.detected_channels(form):
            continue
        monkeypatch.setattr(core.StateMachine, "__init__", counted)
        cli._analysis_report(form, psm.DEFAULT_CONFIG_CAP)
        monkeypatch.undo()
        assert built == [], path.name
        checked += 1
    assert checked == 10


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "states": ["a"], "initial": "a", "finals": [],
        "transitions": [{"from": "a", "to": "a",
                         "event": {"kind": "send", "sender": "p",
                                   "receiver": "q", "label": "m",
                                   "payload": None}}]}))
    code, _ = run(capsys, "validate", str(bad))
    assert code == 1


def test_bounds_subcommand(capsys):
    code, out = run(capsys, "bounds", str(PROTOCOLS / "kle.psm.json"),
                    "--json")
    assert code == 0
    assert json.loads(out)["perChannelBounds"] == {"e>o": 1, "o>e": 1}


def test_project_writes_csm(tmp_path, capsys):
    out_file = tmp_path / "out.csm.json"
    code, _ = run(capsys, "project", str(PROTOCOLS / "kle.psm.json"),
                  "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert set(data) == {"e", "o"}


def test_project_from_global_type(capsys):
    code, out = run(capsys, "project",
                    str(PROTOCOLS / "three_party_choice.gt"), "--json")
    assert code == 0
    assert json.loads(out)["result"] == "ok"


def test_project_rejects_lose_protocol(capsys):
    code, out = run(capsys, "project",
                    str(PROTOCOLS / "leader_election_lose.gt"), "--json")
    assert code == 1
    assert json.loads(out)["result"] == "NotProjectable"


def test_project_rejects_mixed_choice_as_not_tame(capsys):
    code, out = run(capsys, "project",
                    str(PROTOCOLS / "mixed_choice_toy.gt"), "--json")
    assert code == 1
    assert json.loads(out)["result"] == "NotTame"


def test_project_strong_flag(capsys):
    code, out = run(capsys, "project", str(PROTOCOLS / "nonsink_choice.gt"),
                    "--strong", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["strong"] is False and report["witnesses"]
    code, out = run(capsys, "project", str(PROTOCOLS / "kle.psm.json"),
                    "--strong", "--json")
    assert code == 0
    assert json.loads(out)["strong"] is True


def test_encode_and_decode_fsm_roundtrip(tmp_path, capsys):
    """Encode the game, project one participant, decode its machine."""
    encoded_file = tmp_path / "enc.json"
    code, _ = run(capsys, "encode", str(PROTOCOLS / "kle.psm.json"),
                  "--bounds", "auto", "-o", str(encoded_file))
    assert code == 0
    data = json.loads(encoded_file.read_text())
    assert any("(e,o)0" in s.get("event", {}).get("receiver", "")
               for s in data["transitions"])

    from amp.core import dump_machine, load_protocol
    from amp.projection import subset_construction
    from .projection_reference import compiled, minimal_machine
    local_file = tmp_path / "e_local.json"
    encoded = load_protocol(encoded_file.read_text()).source
    local_file.write_text(dump_machine(
        minimal_machine(subset_construction(compiled(encoded), "e"))))
    code, out = run(capsys, "decode-fsm", str(local_file))
    assert code == 0
    decoded = json.loads(out)
    events = [t["event"] for t in decoded["transitions"]
              if t["event"]["kind"] != "eps"]
    participants = ({e["sender"] for e in events}
                    | {e["receiver"] for e in events})
    assert participants == {"e", "o"}


def test_encode_with_bounds_file(tmp_path, capsys):
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps({"e>o": 1, "o>e": 1}))
    code, out = run(capsys, "encode", str(PROTOCOLS / "kle.psm.json"),
                    "--bounds", str(bounds_file))
    assert code == 0 and "(e,o)0" in out


@pytest.mark.parametrize("bounds", [
    {"e>o": "x", "o>e": 1},
    [1, 2],
    {"eo": 1, "o>e": 1},
    {"e>o": 2.5, "o>e": 1},
    {"e>o": -1, "o>e": 1},
    {"e>o": True, "o>e": 1},
    {"e>o": 0, "o>e": 1},
    {"x>y": 3, "e>o": 1, "o>e": 1},
    {"e>o": 1},
], ids=["string", "list", "no-arrow", "float", "negative", "bool", "zero",
        "unused-channel", "missing-channel"])
def test_encode_rejects_a_malformed_bounds_file(tmp_path, capsys, bounds):
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps(bounds))
    code = main(["encode", str(PROTOCOLS / "kle.psm.json"),
                 "--bounds", str(bounds_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: malformed bounds: ")
    assert captured.err.count("\n") == 1


def test_check_csm_and_against(capsys):
    code, out = run(capsys, "check-csm", str(PROTOCOLS / "kle.csm.json"),
                    "--queue-cap", "2", "--against",
                    str(PROTOCOLS / "kle.psm.json"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["deadlocks"] == 0
    assert report["projection"]["passed"] is True


def test_simulate_deterministic(capsys):
    code, first = run(capsys, "simulate", str(PROTOCOLS / "kle.csm.json"),
                      "--seed", "3")
    assert code == 0
    _, second = run(capsys, "simulate", str(PROTOCOLS / "kle.csm.json"),
                    "--seed", "3")
    assert first == second and first.strip()


def test_to_global_and_back(tmp_path, capsys):
    out_file = tmp_path / "roundtrip.gt"
    code, out = run(capsys, "to-global",
                    str(PROTOCOLS / "three_party_choice.psm.json"),
                    "-o", str(out_file))
    assert code == 0
    code, _ = run(capsys, "from-global", str(out_file),
                  "-o", str(tmp_path / "back.json"))
    assert code == 0
    from amp.core import load_protocol
    from .semantics import languages_equal_upto
    back = load_protocol((tmp_path / "back.json").read_text()).source
    original = load_protocol(
        (PROTOCOLS / "three_party_choice.psm.json").read_text()).source
    assert languages_equal_upto(back, original, 8)


@pytest.mark.parametrize("n", [300, 400])
def test_to_global_reads_a_long_chain_back(tmp_path, capsys, n):
    """The type printer and the tree workflow go past Python's recursion
    limit: `to-global` prints the type the chain was written from."""
    import random
    from perfbench import generators as gen
    messages = gen.chain_messages(n, random.Random(n))
    source = tmp_path / f"chain{n}.psm.json"
    source.write_text(gen.dump(gen.linear_psm(messages)))
    code, out = run(capsys, "to-global", str(source))
    assert (code, out) == (0, gen.global_text(messages) + "\n")


def test_to_global_reads_a_choice_with_a_long_branch_back(tmp_path,
                                                          capsys):
    """The regex printer, which orders alternatives, goes past Python's
    recursion limit too."""
    chain = " . ".join(f"{s}->{r}:m" for s, r in [("p", "q"), ("q", "p")]
                       * 200)
    text = f"( p->q:go . {chain} . 0 + p->q:stop . 0 )"
    source = tmp_path / "branch.gt"
    source.write_text(text + "\n")
    code, out = run(capsys, "to-global", str(source))
    assert (code, out) == (0, text + "\n")


def test_to_local(capsys):
    code, out = run(capsys, "to-local", str(PROTOCOLS / "one_buyer.gt"),
                    "--participant", "s", "--json")
    assert code == 0
    assert "query" in json.loads(out)["local"]


@pytest.mark.parametrize("text", ["0", "rec X . 0"], ids=["end", "rec-end"])
@pytest.mark.parametrize("command", [("to-global",),
                                     ("to-local", "--participant", "p")],
                         ids=["to-global", "to-local"])
def test_a_protocol_whose_only_word_is_empty_reads_as_end(tmp_path, capsys,
                                                          text, command):
    source = tmp_path / "empty.gt"
    source.write_text(text + "\n")
    code, out = run(capsys, command[0], str(source), *command[1:])
    assert (code, out) == (0, "0\n")
    assert capsys.readouterr().err == ""


def test_to_local_rejects_a_machine_that_may_end_or_go_on(tmp_path, capsys):
    from amp.core import StateMachine, send
    star = StateMachine({"s0", "s1", "f"}, "s0", {"f"},
                        [("s0", send("p", "q", "a"), "s1"),
                         ("s1", None, "s0"), ("s0", None, "f")])
    source = _write_machine(tmp_path / "star.psm.json", star)
    assert main(["to-local", source, "--participant", "p"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the machine accepts ε and longer words; "
                            "no type ends and goes on at once\n")


def test_typecheck_program(capsys):
    code, out = run(capsys, "typecheck",
                    str(PROTOCOLS / "programs" / "delegation.amp"),
                    "--harness", "--steps", "10", "--seeds", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"] == "ok"
    assert report["harness"]["failures"] == []


def test_typecheck_rejects_bad_program(tmp_path, capsys):
    bad = tmp_path / "bad.amp"
    bad.write_text("csm Ping = %s\nmain = new s : Ping in 0\n"
                   % (PROTOCOLS / "ping.csm.json"))
    code, out = run(capsys, "typecheck", str(bad), "--json")
    assert code == 1
    assert json.loads(out)["result"] == "ill-typed"


def test_dot_outputs(capsys):
    code, out = run(capsys, "dot", str(PROTOCOLS / "kle.psm.json"))
    assert code == 0 and out.startswith("digraph")
    code, out = run(capsys, "dot", str(PROTOCOLS / "kle.csm.json"))
    assert code == 0 and "cluster_e" in out


def test_dot_reads_a_csm_with_a_participant_named_states(tmp_path, capsys):
    """A CSM is told from a machine by shape, not by a `states` key."""
    csm = json.loads((PROTOCOLS / "ping.csm.json").read_text())
    csm["states"] = csm.pop("p")
    for component in csm.values():
        for t in component["transitions"]:
            for side in ("sender", "receiver"):
                if t["event"][side] == "p":
                    t["event"][side] = "states"
    path = tmp_path / "states.csm.json"
    path.write_text(json.dumps(csm))
    assert run(capsys, "check-csm", str(path))[0] == 0
    code, out = run(capsys, "dot", str(path))
    assert code == 0 and "cluster_states" in out


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["a"], ')
    for argv in (["validate", str(bad)], ["check-csm", str(bad)],
                 ["encode", str(PROTOCOLS / "kle.psm.json"),
                  "--bounds", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON: ")
        assert err.count("\n") == 1


KLE = json.loads((PROTOCOLS / "kle.psm.json").read_text())
FOREIGN = {"states": ["a"], "initial": "a", "finals": ["a"], "transitions": [
    {"from": "a", "to": "a", "event": {"kind": "send", "sender": "q",
                                       "receiver": "p", "label": "m"}}]}


@pytest.mark.parametrize("command,document,message", [
    (command, document, message)
    for command in ("validate", "project")
    for document, message in [
        ([1, 2], "malformed machine: expected a JSON object, got list"),
        ({key: value for key, value in KLE.items() if key != "transitions"},
         "malformed machine: no 'transitions' field"),
        ({**KLE, "states": 5},
         "malformed machine: 'int' object is not iterable"),
        ({**KLE, "transitions": [{"from": "k0", "to": "WE"}]},
         "malformed transition: no 'event' field"),
    ]] + [
    ("check-csm", [1, 2], "malformed CSM: expected a JSON object, got list"),
    ("check-csm", {"p": [1]},
     "malformed machine: expected a JSON object, got list"),
    ("check-csm", {"p": {"states": ["a"]}},
     "malformed machine: no 'initial' field"),
    ("check-csm", {"p": FOREIGN},
     "malformed CSM: component 'p' has foreign event q>p!m"),
    ("check-csm", {"p": {**FOREIGN, "states": ["a", 1]}},
     "malformed machine: 1 is not a string"),
])
def test_wrong_shaped_file_is_a_usage_error(tmp_path, capsys, command,
                                            document, message):
    """A document of the wrong shape is malformed input, like malformed
    JSON: exit 2 and one error line, never a traceback or exit 1."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mixed_label_types_name_one_label_under_every_hash_seed(tmp_path):
    """Labels "x" and 1 on two sends of one state: sorting the machine's
    transitions would compare them in an order that follows the hash
    seed, so the names are checked first."""
    sends = [{"from": "a", "to": dst, "event": {
        "kind": "send", "sender": "p", "receiver": "q", "label": label}}
        for dst, label in (("b", "x"), ("c", 1))]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["a", "b", "c"], "initial": "a",
                               "finals": ["b", "c"], "transitions": sends}))
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "amp.cli", "validate", str(bad)],
            env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (
            2, "error: malformed machine: 1 is not a string\n"), seed


def test_check_csm_against_a_wrong_shaped_machine_is_a_usage_error(
        tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["a"]}))
    assert main(["check-csm", str(PROTOCOLS / "kle.csm.json"),
                 "--against", str(bad)]) == 2
    assert capsys.readouterr().err == \
        "error: malformed machine: no 'initial' field\n"


def test_project_strong_projects_once(monkeypatch, capsys):
    from amp import projection
    calls = []
    real = projection.project_tame

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(projection, "project_tame", counted)
    code, out = run(capsys, "project", str(PROTOCOLS / "kle.psm.json"),
                    "--strong", "--json")
    assert code == 0 and json.loads(out)["strong"] is True
    assert len(calls) == 1


def test_reports_are_byte_stable(capsys):
    _, first = run(capsys, "validate", str(PROTOCOLS / "kle.psm.json"),
                   "--json")
    _, second = run(capsys, "validate", str(PROTOCOLS / "kle.psm.json"),
                    "--json")
    assert first == second


def _write_machine(path: Path, machine) -> str:
    from amp.core import dump_machine
    path.write_text(dump_machine(machine))
    return str(path)


def test_long_epsilon_chain_is_analysed(tmp_path, capsys):
    from .conftest import epsilon_chain
    source = _write_machine(tmp_path / "eps.psm.json", epsilon_chain(3000))
    for command in ("validate", "classify", "bounds", "encode", "project"):
        code, _ = run(capsys, command, source)
        assert code == 0, command


def test_recursion_limit_is_a_resource_cap(tmp_path, capsys):
    from amp.core import StateMachine, pair
    states = [f"s{i}" for i in range(1001)]
    chain = StateMachine(
        states, "s0", {"s1000"},
        [(states[i], pair("p", "q", f"l{i}") if i % 2 == 0
          else pair("q", "p", f"l{i}"), states[i + 1]) for i in range(1000)])
    code = main(["to-global", _write_machine(tmp_path / "chain.psm.json",
                                             chain)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource cap: ") and err.count("\n") == 1


def _non_fifo_source(tmp_path: Path) -> str:
    """p sends x then y on p>q, and q receives y first."""
    from amp.core import StateMachine, recv, send
    states = [f"s{i}" for i in range(5)]
    events = [send("p", "q", "x"), send("p", "q", "y"),
              recv("p", "q", "y"), recv("p", "q", "x")]
    return _write_machine(tmp_path / "nonfifo.psm.json", StateMachine(
        states, "s0", {"s4"},
        [(states[i], ev, states[i + 1]) for i, ev in enumerate(events)]))


@pytest.mark.parametrize("command", [
    ("project",), ("encode",), ("to-global",),
    ("to-local", "--participant", "p"),
    ("check-csm", str(PROTOCOLS / "ping.csm.json"), "--against")])
def test_invalid_protocol_is_one_error_line(tmp_path, capsys, command):
    source = _non_fifo_source(tmp_path)
    argv = [command[0], source, *command[1:]]
    if command[0] == "check-csm":
        argv = [*command, source]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: receive p>q?y does not match the channel head\n"


def test_configuration_cap_outside_validate_is_a_resource_cap(
        monkeypatch, capsys):
    from amp import psm

    def capped(*args, **kwargs):
        raise psm.ConfigCapExceeded("exploration exceeded 5 configurations")

    monkeypatch.setattr(psm, "validate", capped)
    assert main(["to-global", str(PROTOCOLS / "kle.psm.json")]) == 3
    err = capsys.readouterr().err
    assert err == "error: exploration exceeded 5 configurations\n"
    # check-csm validates the protocol it compares against
    assert main(["check-csm", str(PROTOCOLS / "kle.csm.json"), "--against",
                 str(PROTOCOLS / "kle.psm.json")]) == 3
    assert capsys.readouterr().err == err


def test_to_local_projects_a_protocol_sent_by_the_participant(capsys):
    code, out = run(capsys, "to-local", str(PROTOCOLS / "nonsink_choice.gt"),
                    "--participant", "p")
    assert code == 0
    assert out == "(+ !q:m1 . !r:m1 . 0 !q:m2 . 0 )\n"


def test_queue_cap_on_a_participant_named_configurations_is_negative(
        tmp_path, capsys):
    from amp.core import StateMachine, send
    loop = StateMachine({"s0"}, "s0", set(),
                        [("s0", send("configurations", "q", "m"), "s0")])
    source = _write_machine(tmp_path / "loop.psm.json", loop)
    assert main(["validate", source]) == 1
    assert "exceeded queue cap" in capsys.readouterr().out


def test_configuration_cap_in_validate_is_a_resource_cap(capsys):
    code, out = run(capsys, "validate", str(PROTOCOLS / "kle.psm.json"),
                    "--config-cap", "3")
    assert code == 3
    assert out == "unbounded channel: exploration exceeded 3 configurations\n"


def test_configuration_cap_in_bounds_is_a_resource_cap(capsys):
    code, out = run(capsys, "bounds", str(PROTOCOLS / "kle.psm.json"),
                    "--config-cap", "2", "--json")
    assert code == 3
    assert json.loads(out) == {
        "detail": "exploration exceeded 2 configurations",
        "error": "unbounded-channel", "witness": []}


@pytest.mark.parametrize("command,capped", [
    ("validate", {"detail": "exploration exceeded 18 configurations",
                  "error": "unbounded-channel", "witness": []}),
    ("classify", {"detail": "exploration exceeded 18 configurations",
                  "error": "unbounded-channel", "witness": []}),
    ("bounds", {"detail": "exploration exceeded 18 configurations",
                "error": "unbounded-channel", "witness": []})])
def test_the_configuration_cap_holds_where_no_graph_is_walked(
        capsys, command, capped):
    """one_buyer receives each message at once: validation counts its 19
    configurations without walking them, and still honours the cap."""
    source = str(PROTOCOLS / "one_buyer.gt")
    code, out = run(capsys, command, source, "--config-cap", "18", "--json")
    assert code == 3
    assert json.loads(out) == capped
    code, out = run(capsys, command, source, "--config-cap", "19", "--json")
    assert code == 0
    assert "error" not in json.loads(out)


@pytest.mark.parametrize("source,participant", [
    ("mixed_choice_toy.gt", "s"), ("kle_encoded.psm.json", "b"),
    ("kle.psm.json", "p")])
def test_to_local_unknown_participant_is_a_usage_error(capsys, source,
                                                       participant):
    code, out = run(capsys, "to-local", str(PROTOCOLS / source),
                    "--participant", participant, "--json")
    assert code == 2
    assert json.loads(out) == {"error": "unknown-participant"}


def test_to_local_known_participant_of_an_untame_protocol_is_negative(capsys):
    code, out = run(capsys, "to-local", str(PROTOCOLS / "mixed_choice_toy.gt"),
                    "--participant", "p", "--json")
    assert code == 1
    assert json.loads(out)["error"] == "NotTame"


def test_oracle_witnesses_do_not_depend_on_the_hash_seed():
    """A protocol that is not tame leaves the verdict to the oracle."""
    argv = [sys.executable, "-m", "amp.cli", "check-csm",
            str(PROTOCOLS / "three_party_choice.csm.json"), "--against",
            str(PROTOCOLS / "mixed_choice_toy.gt"), "-K", "6"]
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 1, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert "projection check: fail" in outputs.pop()


@pytest.mark.parametrize("command,option", [
    (["validate", "kle.psm.json"], "--config-cap"),
    (["classify", "kle.psm.json"], "--config-cap"),
    (["bounds", "kle.psm.json"], "--config-cap"),
    (["project", "kle.psm.json"], "-K"),
    (["project", "kle.psm.json"], "--bound"),
    (["check-csm", "kle.csm.json"], "--queue-cap"),
    (["check-csm", "kle.csm.json"], "-K"),
    (["simulate", "ping.csm.json"], "--max-steps"),
    (["check-csm", "kle.csm.json", "--against", "kle.psm.json"], "-K"),
    (["typecheck", "programs/ping.amp", "--harness"], "--steps"),
    (["typecheck", "programs/ping.amp", "--harness"], "--seeds"),
])
@pytest.mark.parametrize("value", ["-1", "-5", "two"])
def test_negative_counts_are_usage_errors(capsys, command, option, value):
    subcommand, source, *rest = command
    argv = [subcommand, str(PROTOCOLS / source), *rest, option, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = "-K/--bound" if option in ("-K", "--bound") else option
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"amp {subcommand}: error: argument {shown}: "
                      f"expected a non-negative integer, got '{value}'"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("source,code,result", [
    ("three_party_choice.psm.json", 0, "ok"),
    ("three_party_reply_mismatch.gt", 1, "NotProjectable")])
def test_project_report_does_not_depend_on_the_bound(capsys, source, code,
                                                     result):
    """`project -K` is still parsed and checked, and changes nothing."""
    outputs = [run(capsys, "project", str(PROTOCOLS / source), "--json",
                   *bound)
               for bound in ([], ["-K", "0"], ["-K", "50"])]
    assert outputs == [(code, outputs[0][1])] * 3
    assert json.loads(outputs[0][1])["result"] == result


def test_to_local_takes_no_bound(capsys):
    assert main(["to-local", str(PROTOCOLS / "kle.psm.json"),
                 "--participant", "e", "-K", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: -K 6" in captured.err


def test_zero_counts_are_accepted(capsys):
    code, out = run(capsys, "simulate", str(PROTOCOLS / "ping.csm.json"),
                    "--max-steps", "0")
    assert code == 0 and out == "ε\n"
    code, out = run(capsys, "typecheck", str(PROTOCOLS / "programs/ping.amp"),
                    "--harness", "--seeds", "0")
    assert code == 0 and "harness: 0 seeds x 30 steps, 0 failures" in out


def test_memory_error_is_a_resource_cap(monkeypatch, capsys):
    from amp import psm

    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(psm, "validate", exhausted)
    assert main(["validate", str(PROTOCOLS / "kle.psm.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: out of memory\n"


class Interrupted(BaseException):
    """What a signal handler may raise mid-command, as a timeout does."""


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["collector on", "collector off"])
def test_the_collector_is_off_while_a_command_runs(monkeypatch, capsys,
                                                   collecting):
    """A command's working set lives until it ends, so `main` pauses the
    cyclic collector around it, and leaves the caller's setting as it
    found it however the command ends."""
    from amp import cli

    seen = []
    load = cli._load_protocol

    def loader(failure=None):
        def run(path):
            seen.append(gc.isenabled())
            if failure is not None:
                raise failure
            return load(path)
        return run

    path = str(PROTOCOLS / "kle.psm.json")
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for failure, code in ((None, 0), (ValueError("no"), 1)):
            monkeypatch.setattr(cli, "_load_protocol", loader(failure))
            assert main(["validate", path]) == code
            assert gc.isenabled() is collecting
        assert main(["validate", path, "--no-such-flag"]) == 2
        assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "_load_protocol", loader(Interrupted()))
        with pytest.raises(Interrupted):
            main(["validate", path])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    capsys.readouterr()
    assert seen == [False, False, False]


def test_a_directory_as_input_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    program = tmp_path / "dir.amp"
    program.write_text("csm X = sub\nmain = 0\n")
    for argv in (["validate", str(PROTOCOLS)],
                 ["check-csm", str(PROTOCOLS)],
                 ["typecheck", str(program)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 21] Is a directory")
        assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("name,argv", [
    ("bin.gt", ["validate"]), ("bin.gt", ["from-global"]),
    ("bin.csm.json", ["check-csm"]), ("bin.psm.json", ["project"]),
    ("bin.amp", ["typecheck", "--harness"])])
def test_binary_input_is_a_usage_error(tmp_path, capsys, name, argv):
    """Bytes that are not UTF-8 are unreadable input, not a negative
    analysis."""
    binary = tmp_path / name
    binary.write_bytes(b"\xff\xfe\x00\x81 binary")
    assert main([argv[0], str(binary), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: input is not UTF-8 text: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("text,token", [
    ("-> -> p : m . 0", "->"), ("p -> q : ( . 0", "("),
    ("rec + . p -> q : m . 0", "+"), ("( p -> q : m . ) + 0", ")")])
def test_global_type_names_must_be_words(tmp_path, capsys, text, token):
    source = tmp_path / "bad.gt"
    source.write_text(text)
    assert main(["from-global", str(source)]) == 2  # malformed input
    captured = capsys.readouterr()
    assert captured.err == f"error: expected a name, got {token!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text", ["!q:( . 0", "?->:m . 0", "rec + . 0",
                                  "!&:m . 0"])
def test_local_type_names_must_be_words(text):
    from amp.transform import TypeSyntaxError, parse_local_type
    with pytest.raises(TypeSyntaxError, match="expected a name"):
        parse_local_type(text, "p")


def test_one_process_runs_every_command_alike_in_either_order(tmp_path,
                                                               monkeypatch):
    """`main` shares one parser between calls and keeps nothing else from
    one command to the next: every command of the CLI sweep, run
    forwards and then backwards in one process, gives the same exit code
    and the same output both times."""
    from amp import cli

    from . import cli_sweep
    monkeypatch.chdir(cli_sweep.ROOT)
    commands = cli_sweep.commands()
    forwards = [cli_sweep.run(argv, tmp_path) for argv in commands]
    backwards = [cli_sweep.run(argv, tmp_path) for argv in commands[::-1]]
    assert forwards == backwards[::-1]
    assert {code for code, _ in forwards} == {0, 1, 2}
    assert any("-o" in argv for argv in commands)
    assert cli.build_parser() is cli.build_parser()
