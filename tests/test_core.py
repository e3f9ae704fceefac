"""Tests for events, machines, and bounded trace languages."""

import itertools
import json
import pickle
import random

import pytest

from amp.core import (MalformedInput, StateMachine, TraceFlags, dump_machine,
                      expand_pairs, load_machine, maximal_traces_upto, pair,
                      reachable, recv, send, walk)
from amp.csm import machine_to_dot

from .compiled_reference import is_dense
from .conftest import three_party_machine
from .semantics import (complete_traces, languages_equal_upto,
                        machine_isomorphic, rename)


def test_event_rejects_self_channel():
    with pytest.raises(ValueError):
        send("p", "p", "m")


def test_a_pairs_letters_are_built_once_and_stay_out_of_its_fields():
    exchange = pair("p", "q", "m", "int")
    letters = exchange.letters()
    assert letters == (send("p", "q", "m", "int"), recv("p", "q", "m", "int"))
    assert all(a is b for a, b in zip(exchange.letters(), letters))
    assert exchange == pair("p", "q", "m", "int")
    assert repr(exchange) == repr(pair("p", "q", "m", "int"))
    assert hash(exchange) == hash(pair("p", "q", "m", "int"))
    loaded = pickle.loads(pickle.dumps(exchange))
    assert loaded == exchange and not hasattr(loaded, "_letters")
    assert loaded.letters() == letters
    assert all(a is b for a, b in zip(loaded.letters(), loaded.letters()))
    single = send("p", "q", "m")
    assert single.letters() == (single,) and single.letters()[0] is single


def test_machine_validates_endpoints():
    with pytest.raises(ValueError):
        StateMachine({"a"}, "a", set(), [("a", send("p", "q", "m"), "ghost")])
    with pytest.raises(ValueError):
        StateMachine({"a"}, "b", set(), [])


def test_density_and_determinism():
    dense = StateMachine({"a", "b"}, "a", {"b"}, [("a", None, "b")])
    assert is_dense(dense)
    not_dense = StateMachine(
        {"a", "b"}, "a", {"b"},
        [("a", None, "b"), ("a", send("p", "q", "m"), "b")])
    assert not is_dense(not_dense)
    nondet = StateMachine(
        {"a", "b", "c"}, "a", set(),
        [("a", send("p", "q", "m"), "b"), ("a", send("p", "q", "m"), "c")])
    assert not nondet.is_deterministic()


def test_sink_final_predicate():
    machine = three_party_machine()
    assert machine.is_sink_final()
    non_sink = StateMachine({"a", "b"}, "a", {"a"},
                            [("a", send("p", "q", "m"), "b")])
    assert not non_sink.is_sink_final()


def test_traces_empty_machine():
    """A lone final initial state has only the complete empty trace."""
    machine = StateMachine({"a"}, "a", {"a"}, [])
    traces = maximal_traces_upto(machine, 3)
    assert traces == {(): TraceFlags(complete=True, extendable=False)}


def test_traces_three_party_at_two():
    """Hand enumeration: one send then its receive, never complete."""
    traces = maximal_traces_upto(three_party_machine(), 2)
    complete = complete_traces(traces)
    assert complete == frozenset()
    words = {w for w in traces if len(w) == 1}
    assert words == {(send("p", "q", "m1"),), (send("p", "q", "m2"),),
                     (send("p", "q", "m3"),)}
    for label in ("m1", "m2", "m3"):
        w = (send("p", "q", label), recv("p", "q", label))
        assert traces[w].extendable and not traces[w].complete


def test_traces_unrolls_eps_loop():
    """A two-state loop with an epsilon back edge repeats its letter."""
    machine = StateMachine(
        {"a", "b"}, "a", set(),
        [("a", send("p", "q", "m"), "b"), ("b", None, "a")])
    traces = maximal_traces_upto(machine, 2)
    m = send("p", "q", "m")
    assert traces[(m,)] == TraceFlags(complete=False, extendable=True)
    assert traces[(m, m)] == TraceFlags(complete=False, extendable=True)
    assert not complete_traces(traces)


def test_traces_monotone_in_bound():
    machine = three_party_machine()
    small = maximal_traces_upto(machine, 3)
    large = maximal_traces_upto(machine, 4)
    assert set(small) == {w for w in large if len(w) <= 3}


def test_language_equality_reflexive_and_eps_insensitive():
    machine = three_party_machine()
    assert languages_equal_upto(machine, machine, 6)
    # Insert a harmless epsilon state in front of a final state.
    padded = StateMachine(
        machine.states | {"pad"}, machine.initial, machine.finals,
        [(s, e, d) if (s, e, d)[2] != "a6" else (s, e, "pad")
         for (s, e, d) in machine.transitions] + [("pad", None, "a6")])
    assert languages_equal_upto(machine, padded, 10)


def test_language_equality_detects_relabel():
    machine = three_party_machine()
    relabeled = three_party_machine(m2="zz")
    assert not languages_equal_upto(machine, relabeled, 1)


def test_pair_expansion_counts_two_letters():
    machine = StateMachine({"a", "b"}, "a", {"b"},
                           [("a", pair("p", "q", "m"), "b")])
    traces = maximal_traces_upto(machine, 2)
    word = (send("p", "q", "m"), recv("p", "q", "m"))
    assert traces[word].complete
    assert not maximal_traces_upto(machine, 1)[(send("p", "q", "m"),)].complete


def test_isomorphism_up_to_renaming():
    machine = three_party_machine()
    renamed = rename(machine, {q: f"z{q}" for q in machine.states})
    assert machine_isomorphic(machine, renamed) is not None
    assert machine_isomorphic(machine, three_party_machine(m2="zz")) is None


def test_json_roundtrip_and_stability():
    machine = three_party_machine()
    text = dump_machine(machine)
    again = load_machine(text)
    assert again == expand_pairs(machine)
    assert dump_machine(again) == text


def test_json_payloads_roundtrip():
    from amp.core import StateRef
    machine = StateMachine(
        {"a", "b"}, "a", {"b"},
        [("a", send("p", "q", "l", StateRef("q0")), "b")])
    again = load_machine(dump_machine(machine))
    ev = [e for _, e, _ in again.transitions][0]
    assert ev.payload == StateRef("q0")


def test_loaded_events_are_shared_only_between_equal_string_objects():
    def document(*edges):
        return json.dumps({"states": ["a", "b", "c"], "initial": "a",
                           "finals": ["c"], "transitions": [
            {"from": "a", "to": dst, "event": {
                "kind": "send", "sender": "p", "receiver": "q",
                "label": label, "payload": None}} for dst, label in edges]})

    machine = load_machine(document(("b", "m"), ("c", "m")))
    first, second = (ev for _, ev, _ in machine.transitions)
    assert first is second
    # 1 and true are equal keys, but the event to b keeps its own label.
    with pytest.raises(MalformedInput, match="^malformed machine: True is "):
        load_machine(document(("c", 1), ("b", True)))
    with pytest.raises(MalformedInput, match="^malformed machine: 1 is "):
        load_machine(document(("c", True), ("b", 1)))


def test_eps_closure_idempotent_and_monotone():
    machine = three_party_machine()
    small = machine.eps_closure({"c6"})
    assert machine.eps_closure(small) == small
    larger = machine.eps_closure({"c6", "a1"})
    assert small <= larger


GRAPH = {"a": ["c", "b"], "b": ["d"], "c": ["d", "e"], "d": ["a"], "e": []}


def test_walk_is_breadth_first_in_listed_order():
    assert list(walk(["a"], GRAPH.__getitem__)) == ["a", "c", "b", "d", "e"]
    # the starts first, in order, then their successors
    assert list(walk(["b", "a"], GRAPH.__getitem__)) == ["b", "a", "d", "c",
                                                         "e"]


def test_walk_yields_each_node_once():
    nodes = list(walk(["d", "a", "d", "b", "a"], GRAPH.__getitem__))
    assert nodes == ["d", "a", "b", "c", "e"]
    assert list(walk([], GRAPH.__getitem__)) == []


def test_walk_stops_where_its_reader_stops():
    called = []

    def successors(n: int) -> list:
        called.append(n)
        return [2 * n + 1, 2 * n + 2]

    # an infinite binary tree: only nodes read before the last are expanded
    taken = list(itertools.islice(walk([0], successors), 5))
    assert taken == [0, 1, 2, 3, 4]
    assert called == [0, 1, 2, 3]
    called.clear()
    assert 6 in walk([0], successors)
    assert called == [0, 1, 2, 3, 4, 5]


def test_walk_agrees_with_level_by_level_reachability():
    rng = random.Random(19)
    for _ in range(200):
        size = rng.randint(1, 12)
        graph = {v: [rng.randrange(size) for _ in range(rng.randint(0, 3))]
                 for v in range(size)}
        starts = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
        depth = dict.fromkeys(starts, 0)
        level = set(starts)
        while level:
            level = {w for v in level for w in graph[v]} - depth.keys()
            d = max(depth.values()) + 1
            depth.update(dict.fromkeys(level, d))
        nodes = list(walk(starts, graph.__getitem__))
        assert len(nodes) == len(set(nodes))
        assert set(nodes) == depth.keys() == reachable(starts,
                                                       graph.__getitem__)
        assert [depth[v] for v in nodes] == sorted(depth[v] for v in nodes)


def test_dot_export_mentions_states():
    dot = machine_to_dot(three_party_machine())
    assert "digraph" in dot and "t0" in dot and "->" in dot


def test_dot_export_escapes_quotes_and_backslashes():
    machine = StateMachine(['s"1', "b\\2"], 's"1', ["b\\2"],
                           [('s"1', send("p", "q", 'a"b\\c'), "b\\2")])
    assert machine_to_dot(machine, name='n"x').splitlines() == [
        r'digraph "n\"x" {',
        "  rankdir=LR;",
        "  __start [shape=point];",
        r'  "b\\2" [shape=doublecircle];',
        r'  "s\"1" [shape=circle];',
        r'  __start -> "s\"1";',
        r'  "s\"1" -> "b\\2" [label="p>q!a\"b\\c"];',
        "}"]


def test_dot_start_marker_is_not_a_state():
    """DOT reads `__start` and `"__start"` as one node, so the marker
    takes the first of `__start`, `__start_`, ... that is no state."""
    machine = StateMachine(["__start", "__start_", "b"], "b", ["b"],
                           [("__start", send("p", "q", "m"), "b")])
    assert machine_to_dot(machine).splitlines() == [
        'digraph "machine" {',
        "  rankdir=LR;",
        "  __start__ [shape=point];",
        '  "__start" [shape=circle];',
        '  "__start_" [shape=circle];',
        '  "b" [shape=doublecircle];',
        '  __start__ -> "b";',
        '  "__start" -> "b" [label="p>q!m"];',
        "}"]
