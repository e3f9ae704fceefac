"""Builds the protocol corpus under protocols/.

Run `python -m tests.goldengen` after changing a construction; the test
suite asserts the shipped files match what the library produces, so the
corpus can never drift from the code.
"""

from __future__ import annotations

import json
from pathlib import Path

from amp.core import StateMachine, dump_machine, recv, send
from amp.csm import dump_csm
from amp.encoding import encode_psm
from amp.projection import project_tame
from amp.psm import validate
from amp.transform import global_to_psm, parse_global_type

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ROOT / "protocols"

THREE_PARTY_GT = """\
rec X . ( p->q:m1 . q->r:1 . r->p:v . 0
        + p->q:m2 . q->r:1 . r->p:v . 0
        + p->q:m3 . q->r:3 . p->r:v3 . X )
"""

THREE_PARTY_REPLY_MISMATCH_GT = """\
rec X . ( p->q:m1 . q->r:1 . r->p:v1 . 0
        + p->q:m2 . q->r:1 . r->p:v2 . 0
        + p->q:m3 . q->r:3 . p->r:v3 . X )
"""

THREE_PARTY_LABEL_CLASH_GT = """\
rec X . ( p->q:m1 . q->r:1 . r->p:v . 0
        + p->q:m2 . q->r:1 . r->p:v . 0
        + p->q:m2 . q->r:3 . p->r:v3 . X )
"""

LEADER_ELECTION_GT = "( a->p:sel . p->q:win . 0 + a->q:sel . q->p:win . 0 )\n"

LEADER_ELECTION_LOSE_GT = \
    "( a->p:sel . q->p:lose . 0 + a->q:sel . p->q:lose . 0 )\n"

MIXED_CHOICE_TOY_GT = "( p->q:a . 0 + q->p:b . 0 )\n"

NONSINK_CHOICE_GT = "( p->q:m1 . p->r:m1 . 0 + p->q:m2 . 0 )\n"

ONE_BUYER_GT = """\
b->s:query . s->b:price .
( b->s:buy . b->s:ccard . ( s->b:valid . s->b:confirm . 0
                          + s->b:invalid . s->b:cancel . 0 )
+ b->s:no . 0 )
"""


def kle_machine() -> StateMachine:
    """Two children pick 0 or 1 simultaneously; the loser concedes."""
    states = {"k0", "WE", "W1", "F1", "WO", "W2", "F2"}
    finals = {"F1", "F2"}
    transitions: list = []
    for z in "01":
        states.add(f"E{z}")
        transitions.append(("k0", send("e", "o", z), f"E{z}"))
        for y in "01":
            committed, half, got = f"S{z}{y}", f"T{z}{y}", f"U{z}{y}"
            states.update([committed, half, got])
            transitions.append((f"E{z}", send("o", "e", y), committed))
            transitions.append((committed, recv("e", "o", z), half))
            transitions.append((half, recv("o", "e", y), got))
    transitions += [
        ("U00", None, "WE"), ("U11", None, "WE"),
        ("U01", None, "WO"), ("U10", None, "WO"),
        ("WE", send("o", "e", "win"), "W1"),
        ("W1", recv("o", "e", "win"), "F1"),
        ("WO", send("e", "o", "win"), "W2"),
        ("W2", recv("e", "o", "win"), "F2"),
    ]
    return StateMachine(states, "k0", finals, transitions)


def early_commit_machine() -> StateMachine:
    """p commits a number to r up front; q and r negotiate arbitrarily
    long before r finally reads it."""
    return StateMachine(
        {"n0", "n1", "n2", "n3", "n4", "n5", "n5b", "n5c", "n6", "n7"},
        "n0", {"n7"},
        [
            ("n0", send("p", "r", "int"), "n1"),
            ("n1", send("p", "q", "go"), "n2"),
            ("n2", recv("p", "q", "go"), "n3"),
            ("n3", send("q", "r", "ok"), "n4"),
            ("n4", recv("q", "r", "ok"), "n6"),
            ("n3", send("q", "r", "int"), "n5"),
            ("n5", recv("q", "r", "int"), "n5b"),
            ("n5b", send("r", "q", "int"), "n5c"),
            ("n5c", recv("r", "q", "int"), "n3"),
            ("n6", recv("p", "r", "int"), "n7"),
        ],
    )


def generate() -> dict[str, str]:
    """Produce the full corpus as a path -> contents mapping."""
    files: dict[str, str] = {}

    files["three_party_choice.gt"] = THREE_PARTY_GT
    files["three_party_reply_mismatch.gt"] = THREE_PARTY_REPLY_MISMATCH_GT
    files["three_party_label_clash.gt"] = THREE_PARTY_LABEL_CLASH_GT
    files["leader_election.gt"] = LEADER_ELECTION_GT
    files["leader_election_lose.gt"] = LEADER_ELECTION_LOSE_GT
    files["mixed_choice_toy.gt"] = MIXED_CHOICE_TOY_GT
    files["nonsink_choice.gt"] = NONSINK_CHOICE_GT
    files["one_buyer.gt"] = ONE_BUYER_GT

    three_party = global_to_psm(parse_global_type(THREE_PARTY_GT))
    files["three_party_choice.psm.json"] = dump_machine(three_party)
    files["three_party_choice.csm.json"] = dump_csm(
        project_tame(validate(three_party)).csm)

    kle = kle_machine()
    files["kle.psm.json"] = dump_machine(kle)
    kle_psm = validate(kle)
    kle_result = project_tame(kle_psm)
    files["kle_encoded.psm.json"] = dump_machine(
        encode_psm(kle_psm.compiled, kle_result.bounds).machine())
    files["kle.csm.json"] = dump_csm(kle_result.csm)

    early = early_commit_machine()
    files["early_commit.psm.json"] = dump_machine(early)
    files["early_commit.csm.json"] = dump_csm(
        project_tame(validate(early)).csm)

    leader = global_to_psm(parse_global_type(LEADER_ELECTION_GT))
    files["leader_election.csm.json"] = dump_csm(
        project_tame(validate(leader)).csm)

    buyer = global_to_psm(parse_global_type(ONE_BUYER_GT))
    files["one_buyer.csm.json"] = dump_csm(
        project_tame(validate(buyer)).csm)

    nonsink = global_to_psm(parse_global_type(NONSINK_CHOICE_GT))
    files["nonsink_choice.csm.json"] = dump_csm(
        project_tame(validate(nonsink)).csm)

    files["delegation_inner.csm.json"] = _dump_json({
        "p": _machine_json(
            {"q0", "q1"}, "q0", ["q1"],
            [("q0", _ev("send", "p", "q", "l", "end"), "q1")]),
        "q": _machine_json(
            {"q2", "q3"}, "q2", ["q3"],
            [("q2", _ev("recv", "p", "q", "l", "end"), "q3")]),
    })

    files["delegation_outer.csm.json"] = _dump_json({
        "p": _machine_json(
            {"q4", "q5", "q6"}, "q4", ["q5", "q6"],
            [("q4", _ev("send", "p", "r", "l1", {"state": "q0"}), "q5"),
             ("q4", _ev("send", "p", "r", "l2", "end"), "q6")]),
        "r": _machine_json(
            {"q7", "q8", "q9"}, "q7", ["q8", "q9"],
            [("q7", _ev("recv", "p", "r", "l1", {"state": "q0"}), "q8"),
             ("q7", _ev("recv", "p", "r", "l2", "end"), "q9")]),
    })

    files["ping.csm.json"] = _dump_json({
        "p": _machine_json(
            {"a0", "a1", "a2"}, "a0", ["a2"],
            [("a0", _ev("send", "p", "q", "ping"), "a1"),
             ("a1", _ev("recv", "q", "p", "pong"), "a2")]),
        "q": _machine_json(
            {"b0", "b1", "b2"}, "b0", ["b2"],
            [("b0", _ev("recv", "p", "q", "ping"), "b1"),
             ("b1", _ev("send", "q", "p", "pong"), "b2")]),
    })

    files["tick_loop.csm.json"] = _dump_json({
        "p": _machine_json(
            {"c0"}, "c0", [],
            [("c0", _ev("send", "p", "q", "tick"), "c0")]),
        "q": _machine_json(
            {"d0"}, "d0", [],
            [("d0", _ev("recv", "p", "q", "tick"), "d0")]),
    })

    files.update(_programs())
    return files


def _ev(kind, sender, receiver, label, payload=None) -> dict:
    return {"kind": kind, "sender": sender, "receiver": receiver,
            "label": label, "payload": payload}


def _machine_json(states, initial, finals, transitions) -> dict:
    return {
        "states": sorted(states),
        "initial": initial,
        "finals": sorted(finals),
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for src, event, dst in transitions
        ],
    }


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _programs() -> dict[str, str]:
    programs: dict[str, str] = {}

    programs["programs/ping.amp"] = """\
# Two-party request/response.
csm Ping = ../ping.csm.json
main = new s : Ping in
  ( s[p][q]!ping. s[p][q]?pong. 0
  | s[q][p]?ping. s[q][p]!pong. 0 )
"""

    programs["programs/ping_defs.amp"] = """\
# The same exchange factored through process definitions.
csm Ping = ../ping.csm.json
def Ask(x: a0) = x[q]!ping. x[q]?pong. 0
def Serve(y: b0) = y[p]?ping. y[p]!pong. 0
main = new s : Ping in ( Ask(s[p]) | Serve(s[q]) )
"""

    programs["programs/tick_loop.amp"] = """\
# An endless producer/consumer pair.
csm Loop = ../tick_loop.csm.json
def Tick(x: c0) = x[q]!tick. Tick(x)
def Tock(y: d0) = y[p]?tick. Tock(y)
main = new s : Loop in ( Tick(s[p]) | Tock(s[q]) )
"""

    programs["programs/delegation.amp"] = """\
# p either delegates its inner-session capability to r, or finishes the
# inner session itself.
csm Inner = ../delegation_inner.csm.json
csm Outer = ../delegation_outer.csm.json
order Inner < Outer
main = new s1 : Inner in new s2 : Outer in
  ( (+ s2[p][r]!l1(s1[p]). 0
       s2[p][r]!l2(unit). s1[p][q]!l(unit). 0 )
  | s1[q][p]?l(x). 0
  | (& s2[r][p]?l1(x). x[q]!l(unit). 0
       s2[r][p]?l2(y). 0 ) )
"""

    programs["programs/delegation_always.amp"] = """\
# Delegation on the only branch.
csm Inner = ../delegation_inner.csm.json
csm Outer = ../delegation_outer.csm.json
order Inner < Outer
main = new s1 : Inner in new s2 : Outer in
  ( s2[p][r]!l1(s1[p]). 0
  | s1[q][p]?l(x). 0
  | (& s2[r][p]?l1(x). x[q]!l(unit). 0
       s2[r][p]?l2(y). 0 ) )
"""

    programs["programs/three_party.amp"] = """\
# The three-way choice; the third branch loops.
csm Choice = ../three_party_choice.csm.json
def P(x: p_0) = (+ x[q]!m1. x[r]?v. 0
                   x[q]!m2. x[r]?v. 0
                   x[q]!m3. x[r]!v3. P(x) )
def Q(y: q_0) = (& y[p]?m1. y[r]!1. 0
                   y[p]?m2. y[r]!1. 0
                   y[p]?m3. y[r]!3. Q(y) )
def R(z: r_0) = (& z[q]?1. z[p]!v. 0
                   z[q]?3. z[p]?v3. R(z) )
main = new s : Choice in ( P(s[p]) | Q(s[q]) | R(s[r]) )
"""

    programs["programs/kle.amp"] = """\
# Both children commit a pick, learn the other's, and settle the win.
csm Kle = ../kle.csm.json
main = new s : Kle in
  ( (+ s[e][o]!0. (& s[e][o]?0. s[e][o]?win. 0
                     s[e][o]?1. s[e][o]!win. 0 )
       s[e][o]!1. (& s[e][o]?0. s[e][o]!win. 0
                     s[e][o]?1. s[e][o]?win. 0 ) )
  | (+ s[o][e]!0. (& s[o][e]?0. s[o][e]!win. 0
                     s[o][e]?1. s[o][e]?win. 0 )
       s[o][e]!1. (& s[o][e]?0. s[o][e]?win. 0
                     s[o][e]?1. s[o][e]!win. 0 ) ) )
"""

    programs["programs/two_sessions.amp"] = """\
# Two independent sessions interleaved by one process.
csm Ping = ../ping.csm.json
main = new s : Ping in new t : Ping in
  ( s[p][q]!ping. t[p][q]!ping. s[p][q]?pong. t[p][q]?pong. 0
  | s[q][p]?ping. s[q][p]!pong. 0
  | t[q][p]?ping. t[q][p]!pong. 0 )
"""

    programs["programs/one_buyer.amp"] = """\
# The book purchase: query, price, then buy with a card or walk away.
csm Buyer = ../one_buyer.csm.json
main = new w : Buyer in
  ( w[b][s]!query. w[b][s]?price.
    (+ w[b][s]!buy. w[b][s]!ccard.
         (& w[b][s]?valid. w[b][s]?confirm. 0
            w[b][s]?invalid. w[b][s]?cancel. 0 )
       w[b][s]!no. 0 )
  | w[s][b]?query. w[s][b]!price.
    (& w[s][b]?buy. w[s][b]?ccard.
         (+ w[s][b]!valid. w[s][b]!confirm. 0
            w[s][b]!invalid. w[s][b]!cancel. 0 )
       w[s][b]?no. 0 ) )
"""

    programs["programs/leader.amp"] = """\
# An arbiter picks the leader; the winner tells the loser.
csm Leader = ../leader_election.csm.json
main = new s : Leader in
  ( (+ s[a][p]!sel. 0
       s[a][q]!sel. 0 )
  | (& s[p][a]?sel. s[p][q]!win. 0
       s[p][q]?win. 0 )
  | (& s[q][a]?sel. s[q][p]!win. 0
       s[q][p]?win. 0 ) )
"""

    programs["programs/nonsink.amp"] = """\
# r must stay ready to receive even though it may already be done.
csm Maybe = ../nonsink_choice.csm.json
main = new s : Maybe in
  ( (+ s[p][q]!m1. s[p][r]!m1. 0
       s[p][q]!m2. 0 )
  | (& s[q][p]?m1. 0
       s[q][p]?m2. 0 )
  | s[r][p]?m1. 0 )
"""

    programs["programs/early_commit.amp"] = """\
# p commits a value to r before q and r finish negotiating.
csm Early = ../early_commit.csm.json
def Haggle(y: q_1) = (+ y[r]!ok. 0
                        y[r]!int. y[r]?int. Haggle(y) )
def Listen(z: r_0) = (& z[q]?ok. z[p]?int. 0
                        z[q]?int. z[q]!int. Listen(z) )
main = new s : Early in
  ( s[p][r]!int. s[p][q]!go. 0
  | s[q][p]?go. Haggle(s[q])
  | Listen(s[r]) )
"""

    return programs


def write_all() -> None:
    files = generate()
    for rel, contents in files.items():
        path = PROTOCOLS / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(contents)
    print(f"wrote {len(files)} files under {PROTOCOLS}")


if __name__ == "__main__":
    write_all()
