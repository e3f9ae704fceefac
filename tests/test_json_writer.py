"""The machine and CSM writers print what `json.dumps(doc, indent=2,
sort_keys=True)` prints for the machine's document, byte for byte: the
library's writers, which print straight from the machines, and the
reference writer of dict documents that they replaced."""

import json
import random
from pathlib import Path

from amp.core import (MalformedInput, StateMachine, dump_machine,
                      load_protocol, machine_from_json)
from amp.csm import Csm, dump_csm, load_csm

from .json_reference import (csm_to_json, machine_json_text, machine_to_json,
                             machines_json_text)

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

# Letters that json escapes or writes as \u sequences.
LETTERS = ["a", "q0", "_", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
           "\x7f", "é", "日本", "😀", " ", "\ud800"]


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 4)))


def _payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(10 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return _name(rng)
    if kind == 2:
        return {"state": _name(rng)}
    if kind == 3:
        return rng.choice([0, 1, -7, 2 ** 70, 1.0, 0.5, True, False])
    if kind == 4:
        return []
    if kind == 5:
        return {}
    if kind == 6:
        return [_payload(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if kind == 7:  # json prints a tuple as a list
        return tuple(_payload(rng, depth + 1)
                     for _ in range(rng.randint(1, 3)))
    return {_name(rng): _payload(rng, depth + 1)
            for _ in range(rng.randint(1, 3))}


def _event(rng: random.Random) -> dict:
    if rng.random() < 0.2:
        return {"kind": "eps"}
    return {"kind": rng.choice(["send", "recv"]), "sender": _name(rng),
            "receiver": _name(rng), "label": rng.choice(["m", _name(rng)]),
            "payload": rng.choice([None, None, "int", _payload(rng)])}


def _machine_doc(rng: random.Random) -> dict:
    states = [_name(rng) for _ in range(rng.randint(1, 5))]
    # Repeated events, so that printed events are reused.
    events = [_event(rng) for _ in range(rng.randint(1, 3))]
    return {
        "states": states,
        "initial": rng.choice(states),
        "finals": rng.sample(states, rng.randint(0, len(states))),
        "transitions": [{"from": rng.choice(states),
                         "event": dict(rng.choice(events)),
                         "to": rng.choice(states)}
                        for _ in range(rng.choice([0, 1, 4, 9]))],
    }


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(17)
    for _ in range(1000):
        doc = _machine_doc(rng)
        assert machine_json_text(doc) == _reference(doc)
        docs = {_name(rng): _machine_doc(rng)
                for _ in range(rng.randint(0, 3))}
        assert machines_json_text(docs) == _reference(docs)


def test_library_writer_matches_json_dumps_on_random_machines():
    """Every random document that loads as a machine, written straight
    from the machine, and as a CSM component where its events have one
    subject, next to a second component that shares its events."""
    rng = random.Random(18)
    loaded = csms = 0
    for _ in range(3000):
        try:
            machine = machine_from_json(_machine_doc(rng))
        except MalformedInput:
            continue
        loaded += 1
        assert dump_machine(machine) == \
            _reference(machine_to_json(machine)) + "\n"
        subjects = {ev.subject for ev in machine.alphabet()}
        if len(subjects) == 1:
            (name,) = subjects
            csm = Csm({name: machine, name + "'": StateMachine(
                {"a"}, "a", {"a"}, ())})
            assert dump_csm(csm) == _reference(csm_to_json(csm)) + "\n"
            csms += 1
    assert loaded > 100 and csms > 50
    assert dump_csm(Csm({})) == _reference({}) + "\n"


def test_writer_keeps_equal_payloads_of_different_types_apart():
    doc = {"states": ["a"], "initial": "a", "finals": [], "transitions": [
        {"from": "a", "to": "a", "event": {
            "kind": "send", "sender": "p", "receiver": "q", "label": "m",
            "payload": payload}} for payload in (1, 1.0, True, "1")]}
    assert machine_json_text(doc) == _reference(doc)


def test_writer_matches_json_dumps_on_shipped_documents():
    machines = sorted(PROTOCOLS.glob("*.psm.json"))
    csms = sorted(PROTOCOLS.glob("*.csm.json"))
    assert machines and csms
    for path in machines:
        machine = load_protocol(path.read_text()).source
        assert dump_machine(machine) == \
            _reference(machine_to_json(machine)) + "\n", path.name
    for path in csms:
        csm = load_csm(path.read_text())
        assert dump_csm(csm) == _reference(csm_to_json(csm)) + "\n", \
            path.name
