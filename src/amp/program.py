"""Textual syntax for session programs.

A program file declares the machines its sessions follow, an acyclic
delegation order between them, process definitions with typed
parameters, and a main process::

    csm A = a.csm.json
    order A < B
    def Loop(x: q0) = x[q]!ping. Loop(x)
    main = new s : A in ( s[p][q]!ping. 0 | s[q][p]?ping. 0 )

Actions are written `s[p][q]!l(v)` and `s[p][q]?l(x)`; multi-branch
choices as `(+ branch branch)` and `(& branch branch)`; payload values
are `unit`, an endpoint `s[p]`, or a variable.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, Optional

from .core import MalformedInput, StateRef, reachable
from .csm import Csm, csm_from_json
from .typecheck import (Definition, Endpoint, PCall, PEnd, PPar, PRecv, PRes,
                        PSend, Program, RecvBranch, SendBranch,
                        StateRegistry, Term, TypeCheckError, Unit, Var)


class ProgramSyntaxError(MalformedInput):
    pass


_TOKEN = re.compile(r"""
    (?P<comment>\#[^\n]*)
  | (?P<path>[A-Za-z0-9_./-]+\.json)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<number>[0-9][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]!?.|=:<,+&])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ProgramSyntaxError(f"bad input at {text[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        tokens.append(m.group())
    return tokens


class _Stream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Optional[str]:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ProgramSyntaxError("unexpected end of program")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ProgramSyntaxError(f"expected {token!r}, got {got!r}")


def parse_program(text: str, *, base_dir: Optional[Path] = None,
                  registry: Optional[Mapping[str, Csm]] = None) -> Program:
    """Parse a program; machine files resolve against `base_dir`, and a
    pre-loaded `registry` can supply machines by name instead."""
    stream = _Stream(_tokenize(text))
    csms: dict[str, Csm] = dict(registry or {})
    order: list[tuple[str, str]] = []
    defs: dict[str, Definition] = {}
    theta: dict[str, tuple] = {}
    main: Optional[Term] = None
    while stream.peek() is not None:
        keyword = stream.next()
        if keyword == "csm":
            name = stream.next()
            stream.expect("=")
            path = stream.next()
            resolved = (base_dir or Path(".")) / path
            csms[name] = csm_from_json(json.loads(resolved.read_text()))
        elif keyword == "order":
            smaller = stream.next()
            stream.expect("<")
            order.append((smaller, stream.next()))
        elif keyword == "def":
            name = stream.next()
            params, types = _parse_params(stream)
            stream.expect("=")
            defs[name] = Definition(params, _parse_process(stream))
            theta[name] = types
        elif keyword == "main":
            stream.expect("=")
            main = _parse_process(stream)
        else:
            raise ProgramSyntaxError(f"unknown declaration {keyword!r}")
    if main is None:
        raise ProgramSyntaxError("program has no main process")
    program = Program(csms, order, defs, main, theta)
    _check_delegation_order(program)
    return program


def _parse_params(stream: _Stream) -> tuple[tuple, tuple]:
    stream.expect("(")
    params: list[str] = []
    types: list = []
    if stream.peek() == ")":
        stream.next()
        return tuple(params), tuple(types)
    while True:
        params.append(stream.next())
        stream.expect(":")
        types.append(stream.next())
        token = stream.next()
        if token == ")":
            return tuple(params), tuple(types)
        if token != ",":
            raise ProgramSyntaxError(f"expected ',' or ')', got {token!r}")


def _parse_process(stream: _Stream) -> Term:
    token = stream.peek()
    if token == "0":
        stream.next()
        return PEnd()
    if token == "new":
        stream.next()
        session = stream.next()
        stream.expect(":")
        csm_name = stream.next()
        stream.expect("in")
        return PRes(session, csm_name, _parse_process(stream))
    if token == "(":
        stream.next()
        nxt = stream.peek()
        if nxt in ("+", "&"):
            stream.next()
            return _parse_choice(stream, internal=(nxt == "+"))
        parts = [_parse_process(stream)]
        while stream.peek() == "|":
            stream.next()
            parts.append(_parse_process(stream))
        stream.expect(")")
        return parts[0] if len(parts) == 1 else PPar(tuple(parts))
    # call or single action
    if stream.peek(1) == "(" :
        name = stream.next()
        stream.next()
        args: list = []
        if stream.peek() != ")":
            while True:
                args.append(_parse_value(stream))
                token = stream.next()
                if token == ")":
                    break
                if token != ",":
                    raise ProgramSyntaxError(f"expected ',' or ')' in call")
            return PCall(name, tuple(args))
        stream.next()
        return PCall(name, tuple(args))
    return _parse_action_process(stream)


def _parse_choice(stream: _Stream, internal: bool) -> Term:
    branches = []
    subject = None
    while stream.peek() != ")":
        term = _parse_action_process(stream)
        if internal != isinstance(term, PSend) or len(term.branches) != 1:
            raise ProgramSyntaxError("choice branches must be single actions")
        if subject is None:
            subject = term.subject
        elif subject != term.subject:
            raise ProgramSyntaxError("choice branches must share a subject")
        branches.append(term.branches[0])
    stream.next()
    if not branches:
        raise ProgramSyntaxError("empty choice")
    return (PSend if internal else PRecv)(subject, tuple(branches))


def _parse_subject(stream: _Stream):
    name = stream.next()
    stream.expect("[")
    first = stream.next()
    stream.expect("]")
    if stream.peek() == "[":
        stream.next()
        peer = stream.next()
        stream.expect("]")
        return Endpoint(name, first), peer
    return Var(name), first


def _parse_action_process(stream: _Stream) -> Term:
    subject, peer = _parse_subject(stream)
    op = stream.next()
    if op not in ("!", "?"):
        raise ProgramSyntaxError(f"expected '!' or '?', got {op!r}")
    label = stream.next()
    payload = None
    binder = None
    if stream.peek() == "(":
        stream.next()
        if op == "!":
            payload = _parse_value(stream)
        else:
            binder = stream.next()
        stream.expect(")")
    stream.expect(".")
    cont = _parse_process(stream)
    if op == "!":
        return PSend(subject, (SendBranch(peer, label, payload, cont),))
    return PRecv(subject, (RecvBranch(peer, label, binder, cont),))


def _parse_value(stream: _Stream):
    token = stream.next()
    if token == "unit":
        return Unit()
    if stream.peek() == "[":
        stream.next()
        participant = stream.next()
        stream.expect("]")
        return Endpoint(token, participant)
    return Var(token)


def _check_delegation_order(program: Program) -> None:
    """Payload states must come from a machine strictly below the owner
    in the declared delegation order."""
    declared: dict[str, list[str]] = {}
    for smaller, larger in program.order:
        if larger in program.csms:
            declared.setdefault(larger, []).append(smaller)
    below = {name: reachable(declared.get(name, ()),
                             lambda other: declared.get(other, ()))
             for name in program.csms}
    # Rejects a state that two machines share, whatever their order.
    owner_of_state = {q: name for q, (name, _)
                      in StateRegistry.build(program.csms).owner.items()}
    for name, csm in program.csms.items():
        for machine in csm.components.values():
            for _, ev, _ in machine.transitions:
                if ev is None or not isinstance(ev.payload, StateRef):
                    continue
                owner = owner_of_state.get(ev.payload.state)
                if owner is None:
                    raise TypeCheckError(
                        f"machine {name} mentions unknown state "
                        f"{ev.payload.state}")
                if owner not in below.get(name, set()):
                    raise TypeCheckError(
                        f"machine {name} delegates states of {owner}, but "
                        f"{owner} < {name} is not declared")
