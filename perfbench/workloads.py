"""The three workloads: their operations, limits and expected answers.

Each workload function writes its inputs under `tmp` and returns the
measured operations and a warm-up list.  Limits are fixed per operation,
a few times what the operation takes at the commit that introduced the
benchmark, so an operation that fails is charged a fixed price.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import generators as gen
from .harness import Op, expect, line_csm, line_machine, same_file

CORPUS_LIMIT_S = 2.0


def _k(name: str) -> str:
    """The oracle bound the corpus goldens were made with."""
    return "8" if name.startswith("kle") else "6"


# -- corpus -------------------------------------------------------------------

# source -> (bound, choice class, per-channel bounds, tame, and then the
#            golden CSM of its projection or the result name of a rejection)
SOURCES = {
    "early_commit.psm.json": (2, "sender-driven", {"p>r": 1}, True,
                              "early_commit.csm.json"),
    "kle.psm.json": (2, "sender-driven", {"e>o": 1, "o>e": 1}, True,
                     "kle.csm.json"),
    "kle_encoded.psm.json": (1, "sender-driven", {}, True, "NotProjectable"),
    "three_party_choice.psm.json": (1, "sender-driven", {}, True,
                                    "three_party_choice.csm.json"),
    "leader_election.gt": (1, "sender-driven", {}, True,
                           "leader_election.csm.json"),
    "leader_election_lose.gt": (1, "sender-driven", {}, True,
                                "NotProjectable"),
    "mixed_choice_toy.gt": (1, "mixed", {}, False, "NotTame"),
    "nonsink_choice.gt": (1, "sender-driven", {}, True,
                          "nonsink_choice.csm.json"),
    "one_buyer.gt": (1, "sender-driven", {}, True, "one_buyer.csm.json"),
    "three_party_choice.gt": (1, "sender-driven", {}, True,
                              "three_party_choice.csm.json"),
    "three_party_label_clash.gt": (1, "non-deterministic", {}, False,
                                   "NotProjectable"),
    "three_party_reply_mismatch.gt": (1, "sender-driven", {}, True,
                                      "NotProjectable"),
}

# CSM -> (deadlocks, soft deadlocks, truncated at the default queue cap)
CSMS = {
    "delegation_inner.csm.json": (0, 0, False),
    "delegation_outer.csm.json": (0, 0, False),
    "early_commit.csm.json": (0, 0, False),
    "kle.csm.json": (0, 0, False),
    "leader_election.csm.json": (0, 0, False),
    "nonsink_choice.csm.json": (0, 1, False),
    "one_buyer.csm.json": (0, 0, False),
    "ping.csm.json": (0, 0, False),
    "three_party_choice.csm.json": (0, 0, True),
    "tick_loop.csm.json": (0, 0, True),
}

AGAINST = {
    "three_party_choice.csm.json": "three_party_choice.psm.json",
    "kle.csm.json": "kle.psm.json",
    "early_commit.csm.json": "early_commit.psm.json",
    "leader_election.csm.json": "leader_election.gt",
    "one_buyer.csm.json": "one_buyer.gt",
    "nonsink_choice.csm.json": "nonsink_choice.gt",
}

SIMULATE_STEPS = 100


# CSM -> the trace lengths a `simulate` run may have, read off the
# protocol: a finished run, or SIMULATE_STEPS events when a loop kept the
# scheduler busy.  The three-party choice loops 6 events at a time and
# ends with a 6-event branch; early commit loops 4 at a time.
SIMULATE_LENGTHS = {
    "delegation_inner.csm.json": lambda n: n == 2,
    "delegation_outer.csm.json": lambda n: n == 2,
    "early_commit.csm.json":
        lambda n: n == SIMULATE_STEPS or (n >= 6 and (n - 6) % 4 == 0),
    "kle.csm.json": lambda n: n == 6,
    "leader_election.csm.json": lambda n: n == 4,
    "nonsink_choice.csm.json": lambda n: n in (2, 4),
    "one_buyer.csm.json": lambda n: n in (6, 12),
    "ping.csm.json": lambda n: n == 4,
    "three_party_choice.csm.json":
        lambda n: n == SIMULATE_STEPS or (n >= 6 and n % 6 == 0),
    "tick_loop.csm.json": lambda n: n == SIMULATE_STEPS,
}

TO_GLOBAL = {
    "three_party_choice.psm.json": (0, {"global": (
        "rec X1 . ( p->q:m1 . q->r:1 . r->p:v . 0 + p->q:m2 . q->r:1 . "
        "r->p:v . 0 + p->q:m3 . q->r:3 . p->r:v3 . X1 )")}),
    "one_buyer.gt": (0, {"global": (
        "b->s:query . s->b:price . ( b->s:buy . b->s:ccard . "
        "( s->b:invalid . s->b:cancel . 0 + s->b:valid . s->b:confirm . 0 ) "
        "+ b->s:no . 0 )")}),
    "leader_election.gt": (0, {"global": (
        "( a->p:sel . p->q:win . 0 + a->q:sel . q->p:win . 0 )")}),
    "kle.psm.json": (1, {"error": "not-sum-one"}),
}

TO_LOCAL = {
    ("one_buyer.gt", "s"): (0, {"local": (
        "?b:query . !b:price . (& ?b:buy . ?b:ccard . (+ !b:invalid . "
        "!b:cancel . 0 !b:valid . !b:confirm . 0 ) ?b:no . 0 )")}),
    ("kle.psm.json", "e"): (0, {"local": (
        "(+ !o:0 . (& ?o:0 . ?o:win . 0 ?o:1 . !o:win . 0 ) !o:1 . "
        "(& ?o:0 . !o:win . 0 ?o:1 . ?o:win . 0 ) )")}),
    ("mixed_choice_toy.gt", "p"): (1, {"error": "NotTame"}),
}

STRONG = {
    "nonsink_choice.gt": (1, {"strong": False, "witnesses": [["r", "r_0"]]}),
    "kle.psm.json": (0, {"strong": True, "witnesses": []}),
}


def _simulate_check(lengths_ok):
    def check(code: int, out: str):
        n = len(json.loads(out)["trace"])
        return None if lengths_ok(n) else f"trace of {n} events"
    return check


def corpus(root: Path, tmp: Path, rng: random.Random):
    protocols = root / "protocols"
    ops = []

    def op(name, argv, check, output=None):
        ops.append(Op(name, tuple(str(a) for a in argv), CORPUS_LIMIT_S,
                      check, output))

    for src, (bound, choice, per_channel, tame, projected) in SOURCES.items():
        path = protocols / src
        op(f"validate {src}", ["validate", path, "--json"], expect(0, {
            "bound": bound, "choiceClass": choice,
            "perChannelBounds": per_channel, "tame": tame}))
        op(f"bounds {src}", ["bounds", path, "--json"],
           expect(0, {"perChannelBounds": per_channel}))
        out = tmp / f"project-{src}.csm.json"
        argv = ["project", path, "-K", _k(src), "--json", "-o", out]
        if projected.endswith(".json"):
            golden = (protocols / projected).read_text()
            check = expect(0, {"result": "ok", "bounds": per_channel},
                           same_file(out, golden))
        else:
            check = expect(1, {"result": projected})
        op(f"project {src}", argv, check, out)

    for csm, (deadlocks, soft, truncated) in CSMS.items():
        path = protocols / csm
        op(f"check-csm {csm}", ["check-csm", path, "--json"], expect(
            0, {"deadlocks": deadlocks, "softDeadlocks": soft,
                "truncated": truncated}))
        if csm in AGAINST:
            op(f"check-csm {csm} --against",
               ["check-csm", path, "--against", protocols / AGAINST[csm],
                "-K", _k(csm), "--json"],
               expect(0, {"deadlocks": deadlocks,
                          "projection.passed": True}))
        op(f"simulate {csm}",
           ["simulate", path, "--seed", rng.randrange(10**6),
            "--max-steps", SIMULATE_STEPS, "--json"],
           expect(0, None, _simulate_check(SIMULATE_LENGTHS[csm])))

    for src, (code, fields) in TO_GLOBAL.items():
        op(f"to-global {src}", ["to-global", protocols / src, "--json"],
           expect(code, fields))
    for (src, who), (code, fields) in TO_LOCAL.items():
        op(f"to-local {src} {who}",
           ["to-local", protocols / src, "--participant", who, "--json"],
           expect(code, fields))
    for src, (code, fields) in STRONG.items():
        op(f"project --strong {src}",
           ["project", protocols / src, "--strong", "-K", _k(src), "--json"],
           expect(code, fields))

    for program in sorted((protocols / "programs").glob("*.amp")):
        op(f"typecheck {program.name}",
           ["typecheck", program, "--harness", "--json"],
           expect(0, {"result": "ok", "harness.failures": []}))
    return ops, ops


# -- cold CLI runs: the four north-star commands on shipped inputs -----------

def cold_cli(root: Path, tmp: Path):
    protocols = root / "protocols"
    out = tmp / "cold-three_party_choice.csm.json"
    golden = (protocols / "three_party_choice.csm.json").read_text()
    return [
        Op("cold validate kle.psm.json",
           ("validate", str(protocols / "kle.psm.json"), "--json"),
           10.0, expect(0, {"tame": True})),
        Op("cold project three_party_choice.psm.json",
           ("project", str(protocols / "three_party_choice.psm.json"),
            "-o", str(out)),
           10.0, expect(0, None, same_file(out, golden)), out),
        Op("cold check-csm kle.csm.json --against",
           ("check-csm", str(protocols / "kle.csm.json"), "--against",
            str(protocols / "kle.psm.json"), "-K", "8", "--json"),
           10.0, expect(0, {"projection.passed": True})),
        Op("cold typecheck three_party.amp --harness",
           ("typecheck", str(protocols / "programs" / "three_party.amp"),
            "--harness", "--json"),
           10.0, expect(0, {"result": "ok", "harness.failures": []})),
    ]


# -- scaling --------------------------------------------------------------------

# family size -> limit in seconds
CHAIN_PROJECT = {250: 1.5, 500: 4.0, 1000: 12.0}
DIAMONDS_PROJECT = {10: 1.5, 12: 2.5, 14: 5.0}
BURST_PROJECT = {32: 0.5, 64: 1.0, 128: 2.5}
CHAIN_TO_GLOBAL = {50: 0.5, 100: 1.0, 150: 3.0, 200: 5.0}
GLOBAL_TYPES = {250: (0.5, 1.5), 500: (0.5, 4.0)}  # (from-global, project)


def scaling(root: Path, tmp: Path, rng: random.Random):
    measured = _scaling_ops(tmp, rng, CHAIN_PROJECT, DIAMONDS_PROJECT,
                            BURST_PROJECT, CHAIN_TO_GLOBAL, GLOBAL_TYPES)
    warm = _scaling_ops(tmp, rng, {12: 1.0}, {2: 1.0}, {4: 1.0}, {12: 1.0},
                        {12: (1.0, 1.0)})
    return measured, warm


def _scaling_ops(tmp, rng, chains, diamonds, bursts, to_global, global_types):
    ops = []

    def write(name: str, text: str) -> Path:
        path = tmp / name
        path.write_text(text)
        return path

    for n, limit in chains.items():
        messages = gen.chain_messages(n, rng)
        src = write(f"chain{n}.psm.json", gen.dump(gen.linear_psm(messages)))
        out = tmp / f"chain{n}.csm.json"
        ops.append(Op(f"project chain({n})",
                      ("project", str(src), "--json", "-o", str(out)), limit,
                      expect(0, {"result": "ok", "bounds": {}},
                             line_csm(out, gen.local_words(messages))), out))
    for d, limit in diamonds.items():
        src = write(f"diamonds{d}.psm.json", gen.dump(gen.diamonds(d, rng)))
        ops.append(Op(f"project diamonds({d})",
                      ("project", str(src), "--json"), limit,
                      expect(0, {"result": "ok",
                                 "bounds": {"p>q": 1, "p>r": 1}})))
    for b, limit in bursts.items():
        src = write(f"burst{b}.psm.json", gen.dump(gen.burst(b, rng)))
        ops.append(Op(f"project burst({b})",
                      ("project", str(src), "--json"), limit,
                      expect(0, {"result": "ok", "bounds": {"p>q": b}})))
    for n, limit in to_global.items():
        messages = gen.chain_messages(n, rng)
        src = write(f"to-global-chain{n}.psm.json",
                    gen.dump(gen.linear_psm(messages)))
        ops.append(Op(f"to-global chain({n})",
                      ("to-global", str(src), "--json"), limit,
                      expect(0, {"global": gen.global_text(messages)})))
    for n, (from_limit, project_limit) in global_types.items():
        messages = gen.chain_messages(n, rng)
        src = write(f"global{n}.gt", gen.global_text(messages) + "\n")
        machine = tmp / f"global{n}.psm.json"
        ops.append(Op(f"from-global global({n})",
                      ("from-global", str(src), "-o", str(machine)),
                      from_limit,
                      expect(0, None,
                             line_machine(machine, gen.linear_word(messages))),
                      machine))
        out = tmp / f"global{n}.csm.json"
        ops.append(Op(f"project global({n})",
                      ("project", str(src), "--json", "-o", str(out)),
                      project_limit,
                      expect(0, {"result": "ok", "bounds": {}},
                             line_csm(out, gen.local_words(messages))), out))
    return ops


# -- concurrent -----------------------------------------------------------------

# (n, m, k) -> limit in seconds for the correct and the wrong candidate
ORACLE = {(3, 2, 6): (3.5, 2.0), (3, 2, 7): (10.0, 4.0),
          (4, 1, 8): (4.0, 2.0), (2, 3, 8): (4.0, 1.0)}
# (n, m) -> limit in seconds
EXPLORE = {(4, 3): 4.0, (4, 4): 25.0}


def concurrent(root: Path, tmp: Path, rng: random.Random):
    measured = _concurrent_ops(tmp, rng, ORACLE, EXPLORE)
    warm = _concurrent_ops(tmp, rng, {(2, 1, 4): (1.0, 1.0)}, {(2, 2): 1.0})
    return measured, warm


def _concurrent_ops(tmp, rng, oracle, explore):
    ops = []
    for (n, m, k), limits in oracle.items():
        messages = gen.pairs_messages(n, m, rng)
        psm = tmp / f"pairs{n}x{m}.psm.json"
        psm.write_text(gen.dump(gen.linear_psm(messages)))
        for wrong, limit in zip((False, True), limits):
            tag = "wrong" if wrong else "right"
            csm = tmp / f"pairs{n}x{m}-{tag}.csm.json"
            csm.write_text(gen.dump(gen.pairs_csm(messages, wrong)))
            fields = {"configurations": gen.pairs_configs(n, m, wrong),
                      "deadlocks": int(wrong),
                      "projection.passed": not wrong}
            ops.append(Op(f"check-csm pairs({n},{m}) {tag} -K {k}",
                          ("check-csm", str(csm), "--against", str(psm),
                           "-K", str(k), "--json"), limit,
                          expect(int(wrong), fields)))
    for (n, m), limit in explore.items():
        csm = tmp / f"pairs{n}x{m}-explore.csm.json"
        csm.write_text(gen.dump(gen.pairs_csm(gen.pairs_messages(n, m, rng))))
        ops.append(Op(f"check-csm pairs({n},{m})",
                      ("check-csm", str(csm), "--json"), limit,
                      expect(0, {"configurations": gen.pairs_configs(n, m),
                                 "deadlocks": 0, "truncated": False})))
    return ops


WORKLOADS = {"corpus": corpus, "scaling": scaling, "concurrent": concurrent}
