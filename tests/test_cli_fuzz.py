"""Fuzzing the CLI's loaders with random inputs.

CSM documents go through `check-csm`; protocol-machine documents through
`validate`, `bounds` and `project`; both are shaped like what the loader
expects, with wrong types, missing fields, unknown states, foreign
subjects, `pair` events and empty components mixed in.  Global-type
texts, near-grammatical or token soups, go through every command that
reads a `.gt` file.  Shipped `.amp` programs, edited in a few places,
go through `typecheck --harness`.  Whatever the input, each command
must keep the exit-code contract (0 ok, 1 negative, 2 usage, 3 resource
cap), print no traceback and print at most one `error:` line.
"""

import copy
import functools
import io
import json
import operator
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from amp import cli
from amp.program import _tokenize

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

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
def machines(draw, moves):
    """A machine whose events `moves` draws, its states drawn from a few
    names and its initial state sometimes not one of them."""
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=3,
                           unique=True))
    pick = st.sampled_from(states)
    return {"states": states,
            "initial": draw(st.sampled_from(states[:1] * 5 + ["z"])),
            "finals": draw(st.lists(pick, unique=True)),
            "transitions": [{"from": draw(pick), "event": draw(moves),
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
    document = {name: draw(machines(events(name))) for name in names}
    if names and draw(st.sampled_from(range(5))) == 0:
        document[names[0]] = {"states": ["a"], "initial": "a", "finals": [],
                              "transitions": []}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        document = draw(corrupted(document))
    return document


@st.composite
def protocol_documents(draw):
    """A protocol machine, its events by any participant, then corrupted
    in up to two places."""
    document = draw(machines(st.sampled_from(PEOPLE).flatmap(events)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        document = draw(corrupted(document))
    return document


GLOBAL_TOKENS = ["0", "rec", "X", "Y", ".", "(", ")", "+", "->", ":", "p",
                 "q", "r", "m", "<end>", "<@q0>", "<@>"]


def global_texts():
    """Global types of the grammar, some with unbound or unguarded
    variables or empty state payloads."""
    channel = st.permutations(PEOPLE).map(lambda people: people[:2])
    label = st.sampled_from(["m", "m", "m <end>", "m <@q0>", "m <@>"])

    def extend(children):
        message = st.builds(
            lambda ends, label, cont: f"{ends[0]} -> {ends[1]} : {label} "
                                      f". {cont}",
            channel, label, children)
        return (message
                | st.builds("rec {} . {}".format, st.sampled_from("XY"),
                            children)
                | st.lists(message, min_size=2, max_size=3).map(
                    lambda parts: "( " + " + ".join(parts) + " )"))

    return st.recursive(st.sampled_from(["0", "0", "0", "X", "Y"]), extend,
                        max_leaves=5)


@st.composite
def token_soups(draw):
    """A global type's tokens, edited in up to three places, or tokens
    drawn at random."""
    if draw(st.sampled_from(range(4))) == 0:
        return " ".join(draw(st.lists(st.sampled_from(GLOBAL_TOKENS),
                                      max_size=12)))
    tokens = draw(global_texts()).split()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "insert", "replace"]))
        if edit != "insert" and at < len(tokens):
            del tokens[at]
        if edit != "drop":
            tokens.insert(at, draw(st.sampled_from(GLOBAL_TOKENS)))
    return " ".join(tokens)


def assert_contract(argv: list, name: str, text: str,
                    beside: tuple = ()) -> None:
    """Write `text` to `name` in a temporary directory, with copies of
    the `beside` files at its top, and run one command on it."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.parent.mkdir(exist_ok=True)
        for source in beside:
            shutil.copy(source, tmp)
        path.write_text(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2, 3)
    printed = out.getvalue() + err.getvalue()
    assert "Traceback" not in printed
    assert sum(line.startswith("error:")
               for line in printed.splitlines()) <= 1


@settings(max_examples=300, deadline=None)
@given(csm_documents())
def test_check_csm_keeps_the_exit_code_contract(document):
    assert_contract(["check-csm"], "fuzz.csm.json", json.dumps(document))


@settings(max_examples=150, deadline=None)
@given(protocol_documents())
def test_protocol_commands_keep_the_exit_code_contract(document):
    for command in ("validate", "bounds", "project"):
        assert_contract([command], "fuzz.psm.json", json.dumps(document))


@settings(max_examples=150, deadline=None)
@given(token_soups())
def test_global_type_commands_keep_the_exit_code_contract(text):
    for argv in (["validate"], ["from-global"], ["to-global"],
                 ["to-local", "--participant", "p"], ["project"]):
        assert_contract(argv, "fuzz.gt", text)


# Each program's tokens; its machine paths resolve against the copies of
# the shipped machines that `assert_contract` puts beside it.
PROGRAMS = [_tokenize(path.read_text())
            for path in sorted((PROTOCOLS / "programs").glob("*.amp"))]
MACHINES = tuple(sorted(PROTOCOLS.glob("*.csm.json")))
PROGRAM_TOKENS = ["new", "in", "def", "main", "csm", "order", "=", "(",
                  ")", "[", "]", "!", "?", ".", "|", ":", "<", ",", "+",
                  "&", "0", "unit", "s", "p", "q", "x", "ping", "pong",
                  "P", "a0", "b1", "../ping.csm.json", "../no.csm.json"]


@st.composite
def program_texts(draw):
    """A shipped program's tokens, edited in up to three places."""
    tokens = list(draw(st.sampled_from(PROGRAMS)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "insert", "replace", "swap"]))
        if edit == "swap" and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
            continue
        if edit != "insert" and at < len(tokens):
            del tokens[at]
        if edit != "drop":
            tokens.insert(at, draw(st.sampled_from(PROGRAM_TOKENS)))
    return " ".join(tokens)


@settings(max_examples=200, deadline=None)
@given(program_texts())
def test_typecheck_keeps_the_exit_code_contract(text):
    assert_contract(["typecheck", "--harness", "--steps", "5", "--seeds",
                     "1"], "programs/fuzz.amp", text, MACHINES)
