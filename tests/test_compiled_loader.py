"""Protocols loaded straight into the compiled form, against the loader
they replaced (`loader_reference.py`).

`core.load_protocol` on a document, `transform.compile_global` on a
global type and `core.Compiled` on a machine must give the form that
the reference `Compiled` made of the reference machine, field for
field, and `source` must build the machine the reference loaded.  The
documents are the corpus, the generators of `conftest.py` and of the
benchmark dumped as `dump_machine` writes them, and the same machines
written with their states and transitions shuffled, some transitions
repeated and their pairs kept.  A malformed document raises the
reference's `MalformedInput` text, and the CLI exits 2 with it; a type
splits into the reference's tokens or raises its error.  Where
no loop needs listing, `validate`, `classify`, `bounds` and `project`
build no `StateMachine` before the components they write.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amp import cli, core, encoding, projection
from amp.core import (Compiled, MalformedInput, StateMachine, StateRef,
                      dump_machine, load_protocol, nodes_on_cycles, pair,
                      recv, send)
from amp.transform import (Choice, End, TypeSyntaxError, _Tokens,
                           compile_global, global_to_psm, parse_global_type,
                           parse_local_type)
from perfbench import generators as gen

from . import loader_reference as reference
from .cli_sweep import _branchy_loop
from .conftest import (random_looping_protocol, random_sender_driven_tree,
                       random_tame_psm)
from .test_cli_fuzz import global_texts, protocol_documents, token_soups
from .test_graph_analyses import random_machine
from .walker_reference import global_to_psm as reference_global_to_psm

PROTOCOLS = Path(__file__).resolve().parent.parent / "protocols"

FIELDS = ("names", "initial", "finals", "keep", "letters", "eps", "moves",
          "receive", "dense", "eps_cycle")


def assert_same_form(form: Compiled, machine: StateMachine) -> None:
    """`form` is the reference's compiled `machine`, field for field, down
    to the types of the rows (an empty epsilon row is a tuple)."""
    expected = reference.Compiled(machine)
    for field in FIELDS:
        got, want = getattr(form, field), getattr(expected, field)
        assert got == want, field
        assert type(got) is type(want), field
        if field in ("eps", "moves"):
            assert list(map(type, got)) == list(map(type, want)), field
    assert form.source == machine


def _event(ev) -> dict:
    if ev is None:
        return {"kind": "eps"}
    payload = ev.payload
    return {"kind": ev.kind, "sender": ev.sender, "receiver": ev.receiver,
            "label": ev.label, "payload": {"state": payload.state}
            if isinstance(payload, StateRef) else payload}


def shuffled(machine: StateMachine, rng: random.Random) -> str:
    """A document of `machine` with its pairs kept, its states and
    transitions in a random order and some transitions repeated."""
    states = sorted(machine.states)
    rng.shuffle(states)
    rows = [{"from": src, "event": _event(ev), "to": dst}
            for src, ev, dst in machine.transitions]
    rows += rng.sample(rows, min(len(rows), rng.randrange(3)))
    rng.shuffle(rows)
    return json.dumps({"states": states, "initial": machine.initial,
                       "finals": sorted(machine.finals),
                       "transitions": rows})


def machines():
    rng = random.Random(41)
    for _ in range(60):
        yield random_tame_psm(rng, max_states=rng.choice((6, 8, 12)))
        yield random_sender_driven_tree(rng, max_states=8)
        yield random_looping_protocol(rng)[0]
        yield random_machine(rng, rng.randrange(1, 10),
                             rng.choice((0.0, 0.3)))
    yield StateMachine({"a", "b", "c"}, "a", {"c"}, [
        ("a", send("p", "q", "l", StateRef("q0")), "b"),
        ("b", recv("p", "q", "l", StateRef("q0")), "c"),
        ("a", pair("p", "q", "l", "int"), "c"),
        ("a", pair("p", "q", "l"), "c"), ("b", None, "a")])


def documents():
    rng = random.Random(42)
    for path in sorted(PROTOCOLS.glob("*.psm.json")):
        yield path.read_text()
    for machine in machines():
        yield dump_machine(machine)
        yield shuffled(machine, rng)
    for n in (1, 7, 60):
        yield gen.dump(gen.linear_psm(gen.chain_messages(n, rng)))
    for d in (1, 3):
        yield gen.dump(gen.diamonds(d, rng))
    for b in (1, 5):
        yield gen.dump(gen.burst(b, rng))


def test_a_loaded_document_is_the_compiled_reference_machine():
    count = 0
    for text in documents():
        machine = reference.machine_from_json(json.loads(text))
        assert_same_form(load_protocol(text), machine)
        assert_same_form(Compiled(machine), machine)
        count += 1
    assert count == 493


def test_a_machine_compiles_as_the_reference_compiles_it():
    for machine in machines():
        assert_same_form(Compiled(machine), machine)


def global_types():
    for path in sorted(PROTOCOLS.glob("*.gt")):
        yield path.read_text()
    for n in (1, 40):
        yield gen.global_text(gen.chain_messages(n, random.Random(n)))
    leaves = iter(["X", "0", "p->q:end . X"] * 8)
    yield "rec X . " + _branchy_loop(3, 0, leaves)
    yield "rec X . ( p->q:a . rec X . q->p:b . X + p->q:c . X )"


def assert_same_global(text: str) -> None:
    g = parse_global_type(text)
    machine = reference_global_to_psm(g)
    assert global_to_psm(g) == machine
    assert_same_form(compile_global(g), machine)


@pytest.mark.parametrize("text", list(global_types()))
def test_a_global_type_compiles_as_its_reference_machine(text):
    assert_same_global(text)


@settings(max_examples=150, deadline=None)
@given(global_texts())
def test_generated_global_types_compile_as_their_reference_machines(text):
    try:
        parse_global_type(text)
    except TypeSyntaxError:
        return
    assert_same_global(text)


def test_a_type_deeper_than_the_recursion_limit_compiles():
    depth = 5000
    term = End()
    for i in range(depth):
        term = Choice(((pair("pq"[i % 2], "qp"[i % 2], "m"), term),))
    form = compile_global(term)
    assert len(form.names) == depth + 1 and len(form.moves) == 2 * depth + 1
    assert form.names[form.initial] == "g1"
    assert {form.names[q] for q in form.finals} == {f"g{depth + 1}"}


def tokens(tokenizer, text: str, operators: tuple):
    try:
        found = tokenizer(text, operators)
    except TypeSyntaxError as exc:
        return str(exc)
    return found.tokens, found.words


@settings(max_examples=300, deadline=None)
@given(token_soups() | global_texts() | st.text(
    alphabet=" \t\n\x1c()+.:<>-!?&@pqm0Xrec", max_size=30))
def test_types_split_into_the_reference_tokens(text):
    """Global and local texts (`parse_local_type` spaces out `!` and `?`
    and reads them and `&` as operators)."""
    for operators in ((), ("!", "?", "&")):
        assert tokens(_Tokens, text, operators) == tokens(
            reference.Tokens, text, operators)


@pytest.mark.parametrize("text,local", [
    ("", ""), ("p -> q : m .", "!q:m ."), ("rec X .", "rec X ."),
    ("( p->q:a . 0 +", "(+ !q:a . 0"), ("p ->", "?q:")])
def test_a_type_cut_short_ends_unexpectedly(text, local):
    with pytest.raises(TypeSyntaxError, match="^unexpected end of input$"):
        parse_global_type(text)
    with pytest.raises(TypeSyntaxError, match="^unexpected end of input$"):
        parse_local_type(local, "p")


def outcome(load, text: str):
    try:
        return load(text)
    except MalformedInput as exc:
        return type(exc), str(exc)


def assert_same_fault(text: str) -> None:
    """The loader raises what the reference raises, or compiles what it
    loads; on a fault the CLI exits 2 and prints it."""
    expected = outcome(
        lambda t: reference.machine_from_json(json.loads(t)), text)
    got = outcome(load_protocol, text)
    if isinstance(expected, StateMachine):
        assert_same_form(got, expected)
        return
    assert got == expected
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.psm.json"
        path.write_text(text)
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", str(path)]) == 2
    assert err.getvalue() == f"error: {expected[1]}\n"


def _doc(**changes) -> str:
    """A one-transition document, with `changes` to its fields."""
    doc = {"states": ["a", "b"], "initial": "a", "finals": ["b"],
           "transitions": [_move("a", "b")]}
    doc.update(changes)
    return json.dumps(doc)


def _move(src, dst, **event):
    return {"from": src, "to": dst, "event": {
        "kind": "send", "sender": "p", "receiver": "q", "label": "m",
        "payload": None, **event}}


MALFORMED = {
    "not an object": "[]",
    "no states": json.dumps({"initial": "a", "finals": [],
                             "transitions": []}),
    "initial not a state": _doc(initial="z"),
    "unhashable initial": _doc(initial=["a"]),
    "final not a state": _doc(finals=["b", "z"]),
    "unhashable final": _doc(finals=[["b"]]),
    "finals not a list": _doc(finals=3),
    "states not a list": _doc(states=3),
    "states a string": _doc(states="ab"),
    "transitions not a list": _doc(transitions=3),
    "endpoints not states": _doc(transitions=[
        _move("a", "y"), _move("x", "b"), _move("a", "b", label="a")]),
    "an endpoint and the initial state": _doc(
        initial="z", transitions=[_move("a", "y")]),
    "a transition not an object": _doc(transitions=[["a", "b"]]),
    "a transition without its event": _doc(transitions=[
        {"from": "a", "to": "b"}]),
    "an event without a kind": _doc(transitions=[
        {"from": "a", "to": "b", "event": {"label": "m"}}]),
    "a bad kind": _doc(transitions=[_move("a", "b", kind="sent")]),
    "a self channel": _doc(transitions=[_move("a", "b", receiver="p")]),
    "no label": _doc(transitions=[_move("a", "b", label=None)]),
    "a payload without its state": _doc(transitions=[
        _move("a", "b", payload={"name": "q0"})]),
    "a number as payload": _doc(transitions=[_move("a", "b", payload=3)]),
    "a number as state": _doc(states=["a", 1]),
    "a number as endpoint": _doc(transitions=[_move("a", 0)]),
    "a number as label after a string": _doc(transitions=[
        _move("a", "b", label="n"), _move("b", "a", label=2)]),
    "true and 1 as labels": _doc(transitions=[
        _move("a", "b", label=True), _move("a", "b", label=1)]),
    "1 and true as labels": _doc(transitions=[
        _move("a", "b", label=1), _move("a", "b", label=True)]),
    "a pair to an unknown state": _doc(transitions=[
        _move("a", "z", kind="pair")]),
}


@pytest.mark.parametrize("text", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_a_malformed_document_raises_the_reference_text(text):
    assert_same_fault(text)


@settings(max_examples=300, deadline=None)
@given(protocol_documents())
def test_fuzzed_documents_raise_the_reference_text(document):
    assert_same_fault(json.dumps(document))


def built_before_writing(monkeypatch, argv) -> list:
    """The machines a command builds before it writes the first
    component, or writes the fused protocol out to determinise it
    (`Fused.machine`; ROADMAP item 13)."""
    built: list = []
    init, write, fused = (core.StateMachine.__init__,
                          projection._machine_of, encoding.Fused.machine)

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    def stop(fn):
        def run(*args):
            built.append(None)
            return fn(*args)
        return run

    monkeypatch.setattr(core.StateMachine, "__init__", counted)
    monkeypatch.setattr(projection, "_machine_of", stop(write))
    monkeypatch.setattr(encoding.Fused, "machine", stop(fused))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    monkeypatch.undo()
    return built[:built.index(None)] if None in built else built


COMMANDS = ("validate", "classify", "bounds", "project")


def test_commands_build_no_machine_before_writing_on_the_corpus(monkeypatch):
    """Only early_commit, whose bounded channel p>r is sent on in a loop,
    builds its machine, to list the loops."""
    built = {}
    for path in sorted(PROTOCOLS.glob("*.psm.json")) + sorted(
            PROTOCOLS.glob("*.gt")):
        for command in COMMANDS:
            machines = built_before_writing(
                monkeypatch, [command, str(path), "--json"])
            if machines:
                built[path.name, command] = len(machines)
    assert built == {("early_commit.psm.json", command): 1
                     for command in COMMANDS}


def acyclic_draws():
    rng = random.Random(43)
    for _ in range(40):
        for machine in (random_tame_psm(rng, rng.choice((6, 8, 12))),
                        random_sender_driven_tree(rng, max_states=8),
                        random_machine(rng, rng.randrange(1, 8), 0.0)):
            yield dump_machine(machine)
    for d in (1, 2, 4):
        yield gen.dump(gen.diamonds(d, rng))
    for b in (2, 5, 16):
        yield gen.dump(gen.burst(b, rng))


def test_commands_build_no_machine_before_writing_on_acyclic_draws(
        monkeypatch, tmp_path):
    path = tmp_path / "draw.psm.json"
    checked = 0
    for text in acyclic_draws():
        form = load_protocol(text)
        if nodes_on_cycles(form.keep, lambda q: form.moves[q] + [
                (None, d) for d in form.eps[q]]):
            continue
        path.write_text(text)
        for command in COMMANDS:
            assert built_before_writing(
                monkeypatch, [command, str(path)]) == [], (command, text)
        checked += 1
    assert checked > 60
