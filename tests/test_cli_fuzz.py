"""Fuzzing the CSM loader and `check-csm` with random JSON documents.

Documents are shaped like CSMs, with wrong types, missing fields,
unknown states, foreign subjects, `pair` events and empty components
mixed in.  Whatever the document, the command must keep the exit-code
contract (0 ok, 1 negative, 2 usage, 3 resource cap), print no
traceback and print at most one `error:` line.
"""

import copy
import functools
import io
import json
import operator
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from amp import cli

# Names of the wrong type or empty are mixed in.
PEOPLE = ["p", "q", "r"]
NAMES = PEOPLE + ["", 0]
STATES = ["a", "b", "c", "a", "b", "c", 0]
LABELS = ["m", "n", "m", "n", 0]

# Any JSON value, small.
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(0, 2) | st.text(max_size=2)
    | st.sampled_from(NAMES + STATES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)


@st.composite
def events(draw, owner: str):
    """Usually an event of `owner`, sometimes a foreign one or a pair."""
    kind = draw(st.sampled_from(["eps", "send", "recv", "send", "recv",
                                 "pair"]))
    if kind == "eps":
        return {"kind": kind}
    peer = draw(st.sampled_from([p for p in PEOPLE if p != owner] * 3
                                + ["", 0]))
    sender, receiver = (owner, peer) if kind != "recv" else (peer, owner)
    if draw(st.sampled_from(range(10))) == 0:
        sender, receiver = receiver, sender
    event = {"kind": kind, "sender": sender, "receiver": receiver,
             "label": draw(st.sampled_from(LABELS))}
    if draw(st.booleans()):
        event["payload"] = draw(st.sampled_from(
            [None, "int", {"state": "a"}, {"state": "z"}]))
    return event


@st.composite
def machines(draw, owner: str):
    """A component of `owner`, its states drawn from a few names and
    its initial state sometimes not one of them."""
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=3,
                           unique=True))
    pick = st.sampled_from(states)
    return {"states": states,
            "initial": draw(st.sampled_from(states[:1] * 5 + ["z"])),
            "finals": draw(st.lists(pick, unique=True)),
            "transitions": [{"from": draw(pick), "event": draw(events(owner)),
                             "to": draw(pick)}
                            for _ in range(draw(st.integers(0, 6)))]}


def parts(value, path=()):
    """The path of every part of a JSON value, the value's own first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, part in (value.items() if isinstance(value, dict)
                          else enumerate(value)):
            yield from parts(part, path + (key,))


@st.composite
def corrupted(draw, document):
    """`document` with one part, at any depth, replaced by any JSON value
    or dropped from its object."""
    path = draw(st.sampled_from(list(parts(document))))
    if not path:
        return draw(ANY)
    document = copy.deepcopy(document)
    container = functools.reduce(operator.getitem, path[:-1], document)
    if isinstance(container, dict) and draw(st.sampled_from(range(4))) == 0:
        del container[path[-1]]
    else:
        container[path[-1]] = draw(ANY)
    return document


@st.composite
def csm_documents(draw):
    """A CSM document, sometimes with an empty component, then corrupted
    in up to two places."""
    names = draw(st.lists(st.sampled_from(PEOPLE * 3 + [""]), max_size=3,
                          unique=True))
    document = {name: draw(machines(name)) for name in names}
    if names and draw(st.sampled_from(range(5))) == 0:
        document[names[0]] = {"states": ["a"], "initial": "a", "finals": [],
                              "transitions": []}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        document = draw(corrupted(document))
    return document


@settings(max_examples=300, deadline=None)
@given(csm_documents())
def test_check_csm_keeps_the_exit_code_contract(document):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csm.json"
        path.write_text(json.dumps(document))
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["check-csm", str(path)])
    assert code in (0, 1, 2, 3)
    printed = out.getvalue() + err.getvalue()
    assert "Traceback" not in printed
    assert sum(line.startswith("error:")
               for line in printed.splitlines()) <= 1
