"""Tests for the program syntax and the shipped program corpus."""

from pathlib import Path

import pytest

from amp.cli import main
from amp.csm import dump_csm
from amp.program import ProgramSyntaxError, parse_program
from amp.typecheck import (PRecv, PRes, PSend, TypeCheckError, Unit,
                           subject_reduction_harness, typecheck_process)

from .test_typecheck import inner_csm, outer_csm, ping_program

PROGRAMS = Path(__file__).resolve().parent.parent / "protocols" / "programs"


def test_parse_basic_program():
    program = parse_program(
        """
        # a comment
        main = new s : Ping in
          ( s[p][q]!ping. s[p][q]?pong. 0
          | s[q][p]?ping. s[q][p]!pong. 0 )
        """,
        registry={"Ping": ping_program().csms["Ping"]})
    assert isinstance(program.main, PRes)
    parts = program.main.body.parts
    assert isinstance(parts[0], PSend) and isinstance(parts[1], PRecv)
    typecheck_process(program)


def test_parse_choices_defs_and_values():
    program = parse_program(
        """
        order Inner < Outer
        def Finish(x: q0) = x[q]!l(unit). 0
        main = new s1 : Inner in new s2 : Outer in
          ( (+ s2[p][r]!l1(s1[p]). 0
               s2[p][r]!l2(unit). Finish(s1[p]) )
          | s1[q][p]?l(x). 0
          | (& s2[r][p]?l1(x). x[q]!l(unit). 0
               s2[r][p]?l2(y). 0 ) )
        """,
        registry={"Inner": inner_csm(), "Outer": outer_csm()})
    assert program.theta == {"Finish": ("q0",)}
    send = program.defs["Finish"].body
    assert send.branches[0].payload == Unit()
    typecheck_process(program)


def test_parse_errors():
    with pytest.raises(ProgramSyntaxError):
        parse_program("main = ")
    with pytest.raises(ProgramSyntaxError):
        parse_program("def Q(x) = 0\nmain = 0")  # parameter without a type
    with pytest.raises(ProgramSyntaxError):
        parse_program("")


def test_delegation_order_enforced():
    with pytest.raises(TypeCheckError):
        parse_program(
            "main = new s2 : Outer in 0",
            registry={"Inner": inner_csm(), "Outer": outer_csm()})


def test_delegation_order_is_transitive():
    """C delegates A's states: declaring A < B and B < C allows it, in
    either order, and A < B alone does not."""
    registry = {"A": inner_csm(), "B": ping_program().csms["Ping"],
                "C": outer_csm()}
    for orders in (["A < B", "B < C"], ["B < C", "A < B"]):
        text = "".join(f"order {o}\n" for o in orders) + "main = 0"
        assert parse_program(text, registry=registry).order == [
            tuple(o.split(" < ")) for o in orders]
    with pytest.raises(TypeCheckError, match="delegates states of A, but "
                       "A < C is not declared"):
        parse_program("order A < B\nmain = 0", registry=registry)


def test_shared_states_rejected_whatever_the_order(tmp_path, capsys):
    """A and B share every state, and C delegates one of them: the
    verdict must not depend on which of A or B the order names."""
    for name, csm in (("A", inner_csm()), ("B", inner_csm()),
                      ("C", outer_csm())):
        (tmp_path / f"{name}.csm.json").write_text(dump_csm(csm))
    results = []
    for smaller in ("A", "B"):
        path = tmp_path / f"{smaller}.amp"
        path.write_text("csm A = A.csm.json\ncsm B = B.csm.json\n"
                        f"csm C = C.csm.json\norder {smaller} < C\n"
                        "main = 0\n")
        with pytest.raises(TypeCheckError, match="appears in both A and B; "
                           "states must be globally distinct") as exc:
            parse_program(path.read_text(), base_dir=tmp_path)
        code = main(["typecheck", str(path)])
        captured = capsys.readouterr()
        results.append((str(exc.value), code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][1] == 1 and results[0][3] == f"error: {results[0][0]}\n"


def test_shipped_programs_typecheck():
    for path in sorted(PROGRAMS.glob("*.amp")):
        program = parse_program(path.read_text(), base_dir=path.parent)
        typecheck_process(program)


def test_shipped_programs_survive_harness():
    for path in sorted(PROGRAMS.glob("*.amp")):
        program = parse_program(path.read_text(), base_dir=path.parent)
        report = subject_reduction_harness(program, steps=12, seed=1)
        assert report.ok, (path.name, report.failure)
