"""Value semantics of amp's records (`core.Record`): equality, hashing,
printing, construction and pickling, checked against a dataclass with
the same name and fields where the two should agree."""

import dataclasses
import pickle

import pytest

from amp import fifo, projection, psm, transform, typecheck
from amp.core import Record, StateRef, TraceFlags, pair, recv, send
from amp.csm import Configuration, ProjectionVerdict
from amp.encoding import ChannelParticipant
from amp.typecheck import (Endpoint, NormalConfig, PCall, PEnd, PPar, PRecv,
                           PRes, PSend, RErr, RQueue, RecvBranch, SendBranch,
                           Unit)

T, TC = transform, typecheck

a, b = pair("p", "q", "a"), pair("q", "p", "b")


def term():
    return PRes("s", "Ping", PPar((
        PSend(Endpoint("s", "p"), (SendBranch("q", "m", Unit(), PEnd()),)),
        PRecv(TC.Var("x"), (RecvBranch("p", "m", "y",
                                       PCall("P", (TC.Var("y"),))),)))))


# Records built twice from equal (not identical) fields.
VALUES = [
    lambda: StateRef("q1"),
    lambda: send("p", "q", "m", StateRef("q1")),
    lambda: Configuration((("p", "a"), ("q", "b")), ((("p", "q"), ("m",)),)),
    lambda: TraceFlags(True, False),
    lambda: ProjectionVerdict(False, ("why",), True),
    lambda: ChannelParticipant("p", "q", 2),
    lambda: fifo.FifoReport("violation", 3),
    lambda: psm.TameReport(True, True, "directed", None),
    lambda: projection.StrongReport(False, (("p", "q1"),)),
    lambda: TC.Var("x"),
    lambda: Endpoint("s", "p"),
    lambda: Unit(),
    lambda: PEnd(),
    lambda: RErr(),
    lambda: RQueue("s", ((("p", "q"), (("m", None),)),)),
    term,
    lambda: NormalConfig((("s", "Ping"),), (("s", ()),), (RErr(), term())),
    lambda: TC.Definition(("x",), term()),
    lambda: TC.AnnotationReport(True, False),
    lambda: TC.SfReport(False, error="no"),
    lambda: T.End(),
    lambda: T.Var("X"),
    lambda: T.Rec("X", T.Choice(((a, T.Var("X")), (b, T.End())))),
    lambda: T.REmpty(),
    lambda: T.REps(),
    lambda: T.RStar(T.RAlt(T.RLetter(a), T.RCat(T.RLetter(a),
                                                T.RLetter(b)))),
]


def _copy(record):
    return pickle.loads(pickle.dumps(record))


def _all_records():
    found, work = [], [Record]
    while work:
        for cls in work.pop().__subclasses__():
            found.append(cls)
            work.append(cls)
    return [cls for cls in found if cls.__module__.startswith("amp.")]


@pytest.mark.parametrize("make", VALUES, ids=lambda make: type(make()).__name__)
def test_equal_fields_give_equal_records_with_equal_hashes(make):
    one, two = make(), make()
    assert one == two and not one != two
    assert hash(one) == hash(two) == hash(_copy(one))
    assert _copy(one) == one
    assert len({one, two, _copy(one)}) == 1


@pytest.mark.parametrize("make", VALUES, ids=lambda make: type(make()).__name__)
def test_a_record_prints_and_compares_as_the_dataclass_did(make):
    record = make()
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    values = [getattr(record, name) for name in cls._fields]
    assert repr(record) == repr(twin(*values))
    assert not hasattr(record, "__dict__")
    assert record != twin(*values) and record != tuple(values)


def test_records_of_two_classes_with_the_same_fields_differ():
    assert PSend(Endpoint("s", "p"), ()) != PRecv(Endpoint("s", "p"), ())
    assert TC.Var("x") != T.Var("x") and T.Var("x") != TC.Var("x")
    assert T.RAlt(T.REps(), T.REps()) != T.RCat(T.REps(), T.REps())
    assert T.REmpty() != T.REps() and PEnd() != RErr() != Unit()
    assert send("p", "q", "m") != recv("p", "q", "m")
    assert len({PEnd(), RErr(), Unit(), T.End(), T.REmpty(), T.REps()}) == 6


def test_records_build_from_keywords_and_keep_their_defaults():
    flags = TraceFlags(complete=True, extendable=False)
    assert flags == TraceFlags(True, False)
    assert repr(flags) == "TraceFlags(complete=True, extendable=False)"
    assert ProjectionVerdict(True, ()) == ProjectionVerdict(
        passed=True, reasons=(), bounded_only=False)
    assert fifo.FifoReport("ok").position is None
    assert TC.SfReport(False, error="no") == TC.SfReport(False, None, None,
                                                         "no")
    assert TC.HarnessReport(True, []).failure is None
    assert repr(send("p", "q", "m")) == (
        "Event(kind='send', sender='p', receiver='q', label='m', "
        "payload=None)")
    assert repr(PEnd()) == "PEnd()"


def test_mutable_records_get_fresh_defaults_and_leave_caches_out():
    one = TC.Program({}, [], {}, PEnd())
    two = TC.Program({}, [], {}, PEnd())
    assert one.theta == {} and one.theta is not two.theta
    assert one._checker is None and one == two
    assert "_checker" not in repr(one)
    registry = TC.StateRegistry({}, {})
    first, second = TC.Checker(registry, {}), TC.Checker(registry, {})
    assert first._facts == {} and first._facts is not second._facts
    assert "_facts" not in repr(first)


def test_a_pairs_letters_are_built_once_and_survive_pickling():
    exchange = pair("p", "q", "m", StateRef("q1"))
    letters = exchange.letters()
    assert exchange.letters() is letters
    loaded = pickle.loads(pickle.dumps(exchange))
    assert not hasattr(loaded, "_letters")
    assert loaded.letters() == letters and loaded.letters() is loaded.letters()
    assert loaded == exchange and hash(loaded) == hash(exchange)
    assert repr(loaded) == repr(exchange)


def test_every_record_declares_its_slots():
    records = _all_records()
    names = {cls.__name__ for cls in records}
    assert {"StateRef", "Event", "TraceFlags", "Configuration",
            "ProjectionVerdict", "DeadlockVerdict", "ChannelParticipant",
            "FifoReport", "TameReport", "Classes", "ProjectionResult",
            "StrongReport",
            "Program", "Checker", "NormalConfig", "RQueue", "_Node",
            "RLetter"} <= names
    assert len(records) == 45  # 44 records and the regex nodes' base
    for cls in records:
        assert "__slots__" in vars(cls), cls
        assert not cls._fields or cls.__init__ is not object.__init__, cls
