"""The generators' answers by construction, checked at small sizes."""

import io
import json
import random
from collections import deque
from contextlib import redirect_stdout

import pytest

from amp import cli
from perfbench import generators as gen
from perfbench.harness import line_word


def run_cli(tmp_path, *argv, files=None):
    for name, text in (files or {}).items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(tmp_path / a) if a in (files or {}) else a
                         for a in argv])
    return code, out.getvalue()


@pytest.mark.parametrize("n", [1, 5, 12])
def test_chain_is_tame_unbounded_and_round_trips(tmp_path, n):
    messages = gen.chain_messages(n, random.Random(n))
    files = {"chain.psm.json": gen.dump(gen.linear_psm(messages))}
    code, out = run_cli(tmp_path, "validate", "chain.psm.json", "--json",
                        files=files)
    assert code == 0
    report = json.loads(out)
    assert report["tame"] and report["perChannelBounds"] == {}
    code, out = run_cli(tmp_path, "to-global", "chain.psm.json", "--json",
                        files=files)
    assert code == 0
    assert json.loads(out)["global"] == gen.global_text(messages)


def test_chain_projects_to_its_local_words(tmp_path):
    messages = gen.chain_messages(9, random.Random(3))
    files = {"chain.psm.json": gen.dump(gen.linear_psm(messages))}
    code, _ = run_cli(tmp_path, "project", "chain.psm.json", "-o",
                      str(tmp_path / "out.json"), files=files)
    assert code == 0
    csm = json.loads((tmp_path / "out.json").read_text())
    assert {p: line_word(m) for p, m in csm.items()} == \
        gen.local_words(messages)


def test_global_text_compiles_to_the_linear_machine(tmp_path):
    messages = gen.chain_messages(7, random.Random(4))
    files = {"g.gt": gen.global_text(messages) + "\n"}
    code, _ = run_cli(tmp_path, "from-global", "g.gt", "-o",
                      str(tmp_path / "m.json"), files=files)
    assert code == 0
    machine = json.loads((tmp_path / "m.json").read_text())
    assert line_word(machine) == gen.linear_word(messages)
    assert line_word(gen.linear_psm(messages)) == gen.linear_word(messages)


@pytest.mark.parametrize("d", [1, 3])
def test_diamonds_bound_both_channels_by_one(tmp_path, d):
    files = {"d.psm.json": gen.dump(gen.diamonds(d, random.Random(d)))}
    code, out = run_cli(tmp_path, "bounds", "d.psm.json", "--json",
                        files=files)
    assert code == 0
    assert json.loads(out)["perChannelBounds"] == {"p>q": 1, "p>r": 1}
    code, out = run_cli(tmp_path, "project", "d.psm.json", "--json",
                        files=files)
    assert code == 0 and json.loads(out)["result"] == "ok"


@pytest.mark.parametrize("b", [2, 5])
def test_burst_bounds_its_channel_by_its_length(tmp_path, b):
    files = {"b.psm.json": gen.dump(gen.burst(b, random.Random(b)))}
    code, out = run_cli(tmp_path, "project", "b.psm.json", "--json",
                        files=files)
    assert code == 0
    assert json.loads(out)["bounds"] == {"p>q": b}


def reachable_configs(csm: dict) -> int:
    """Breadth-first count of a CSM's configurations, written apart from
    amp: local states plus FIFO queue contents."""
    out = {p: {} for p in csm}
    for p, m in csm.items():
        for t in m["transitions"]:
            out[p].setdefault(t["from"], []).append((t["event"], t["to"]))
    start = (tuple(sorted((p, m["initial"]) for p, m in csm.items())), ())
    seen, frontier = {start}, deque([start])
    while frontier:
        states, queues = frontier.popleft()
        for i, (p, q) in enumerate(states):
            for ev, dst in out[p].get(q, []):
                channel = (ev["sender"], ev["receiver"])
                content = dict(queues).get(channel, ())
                if ev["kind"] == "send":
                    content = content + (ev["label"],)
                elif content[:1] == (ev["label"],):
                    content = content[1:]
                else:
                    continue
                new_queues = dict(queues)
                new_queues[channel] = content
                succ = (states[:i] + ((p, dst),) + states[i + 1:],
                        tuple(sorted((c, v) for c, v in new_queues.items()
                                     if v)))
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return len(seen)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("wrong", [False, True])
def test_pairs_configuration_count_matches_the_closed_form(n, m, wrong):
    csm = gen.pairs_csm(gen.pairs_messages(n, m, random.Random(n * m)), wrong)
    assert reachable_configs(csm) == gen.pairs_configs(n, m, wrong)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2)])
def test_pairs_right_candidate_passes_and_wrong_one_deadlocks(tmp_path, n, m):
    messages = gen.pairs_messages(n, m, random.Random(7))
    files = {"p.psm.json": gen.dump(gen.linear_psm(messages)),
             "right.csm.json": gen.dump(gen.pairs_csm(messages)),
             "wrong.csm.json": gen.dump(gen.pairs_csm(messages, True))}
    for name, code_wanted in (("right.csm.json", 0), ("wrong.csm.json", 1)):
        code, out = run_cli(tmp_path, "check-csm", name, "--against",
                            "p.psm.json", "-K", "4", "--json", files=files)
        report = json.loads(out)
        assert code == code_wanted
        assert report["configurations"] == gen.pairs_configs(n, m, bool(code))
        assert report["deadlocks"] == code
        assert report["projection"]["passed"] is not bool(code)


def test_same_seed_same_inputs_and_seeds_only_rename():
    a = gen.diamonds(4, random.Random(1))
    assert a == gen.diamonds(4, random.Random(1))
    b = gen.diamonds(4, random.Random(2))
    assert len(a["states"]) == len(b["states"])
    assert len(a["transitions"]) == len(b["transitions"])
    assert gen.global_text(gen.chain_messages(5, random.Random(9))) == \
        gen.global_text(gen.chain_messages(5, random.Random(9)))
