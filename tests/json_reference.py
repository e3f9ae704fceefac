"""The machine and CSM documents as dicts, and the writer that printed
them, as they stood before `core.dump_machine` and `csm.dump_csm` wrote
documents straight from the machines: `machine_to_json` and
`csm_to_json` build the document that `json.dumps(doc, indent=2,
sort_keys=True)` prints, and `machine_json_text` and
`machines_json_text` print such documents, each distinct event once.
Kept as a test-only reference, verbatim but for absolute imports;
`test_json_writer.py` requires the library's writers to print the same
bytes as `json.dumps` of these documents.
"""

from __future__ import annotations

import json

from amp.core import StateMachine, StateRef, expand_pairs
from amp.csm import Csm


def _payload_to_json(payload):
    if payload is None:
        return None
    if isinstance(payload, StateRef):
        return {"state": payload.state}
    return payload


def machine_to_json(m: StateMachine) -> dict:
    m = expand_pairs(m)
    transitions = []
    for src, ev, dst in m.transitions:
        if ev is None:
            event = {"kind": "eps"}
        else:
            event = {
                "kind": ev.kind,
                "sender": ev.sender,
                "receiver": ev.receiver,
                "label": ev.label,
                "payload": _payload_to_json(ev.payload),
            }
        transitions.append({"from": src, "event": event, "to": dst})
    return {
        "states": sorted(m.states),
        "initial": m.initial,
        "finals": sorted(m.finals),
        "transitions": transitions,
    }


_quote = json.encoder.encode_basestring_ascii


def _json_at(value, pad: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` prints it
    where it starts at indentation `pad`."""
    if value is None:
        return "null"
    if type(value) is str:
        return _quote(value)
    inner = pad + "  "
    if type(value) is list and value:
        items = (map(_quote, value) if all(type(v) is str for v in value)
                 else [_json_at(v, inner) for v in value])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(value) is dict and value \
            and all(type(key) is str for key in value):
        return (f"{{\n{inner}" + f",\n{inner}".join(
            [f"{_quote(key)}: {_json_at(item, inner)}"
             for key, item in sorted(value.items())]) + f"\n{pad}}}")
    # Numbers, empty containers and the like: json's own text, moved
    # to `pad`.
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + pad)


def _machine_at(doc: dict, pad: str, events: dict) -> str:
    """A `machine_to_json` document as `_json_at` prints it.  `events`
    maps an event object's items to its text at this indentation."""
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    transitions = []
    for t in doc["transitions"]:
        event = t["event"]
        key = tuple(event.items())
        try:
            text = events.get(key)
        except TypeError:  # a payload object, which cannot be a key
            text = None
        if text is None:
            text = _json_at(event, p3)
            # Only strings and null: 1, 1.0 and true are equal keys.
            if all(v is None or type(v) is str for v in event.values()):
                events[key] = text
        src, dst = t["from"], t["to"]
        src = _quote(src) if type(src) is str else _json_at(src, p3)
        dst = _quote(dst) if type(dst) is str else _json_at(dst, p3)
        transitions.append(f"{p2}{{\n{p3}\"event\": {text},\n"
                           f"{p3}\"from\": {src},\n{p3}\"to\": {dst}\n{p2}}}")
    return (f"{{\n{p1}\"finals\": {_json_at(doc['finals'], p1)},\n"
            f"{p1}\"initial\": {_json_at(doc['initial'], p1)},\n"
            f"{p1}\"states\": {_json_at(doc['states'], p1)},\n"
            f"{p1}\"transitions\": "
            + ("[\n" + ",\n".join(transitions) + f"\n{p1}]"
               if transitions else "[]")
            + f"\n{pad}}}")


def machine_json_text(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` for a `machine_to_json`
    document."""
    return _machine_at(doc, "", {})


def machines_json_text(docs: dict) -> str:
    """`json.dumps(docs, indent=2, sort_keys=True)` for a mapping of names
    to `machine_to_json` documents, such as a CSM's."""
    if not docs:
        return "{}"
    events: dict = {}
    return ("{\n" + ",\n".join(f"  {_quote(name)}: "
                               f"{_machine_at(docs[name], '  ', events)}"
                               for name in sorted(docs)) + "\n}")


def csm_to_json(csm: Csm) -> dict:
    return {p: machine_to_json(m) for p, m in csm.components.items()}
