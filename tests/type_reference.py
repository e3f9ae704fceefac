"""Global and local types as they stood before `amp.transform` held one
session-type representation, kept as a test-only reference: the eight
classes, the checker, both builders with their shared walker, the
pruner, both readers, both parsers and both printers, verbatim but for
absolute imports.  The lexer, the regex workflow, `_recursion_vars`,
`TypeSyntaxError` and `MixedChoiceState` are the library's, so that
exceptions compare equal.

`test_session_types.py` runs these next to the library and requires
equal printed types, machines and exceptions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Union

from amp.core import (Event, PAIR, RECV, SEND, StateMachine, pair,
                      payload_suffix, recv, send)
from amp.transform import (MixedChoiceState, TypeSyntaxError, _Tokens,
                           _parse_payload, _recursion_vars, psm_to_regex,
                           regex_to_psm)


@dataclass(frozen=True)
class GEnd:
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class GVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GRec:
    var: str
    body: "GlobalType"

    def __str__(self) -> str:
        return f"rec {self.var} . {self.body}"


@dataclass(frozen=True)
class GChoice:
    branches: tuple  # tuple[(Event(pair), GlobalType), ...]

    def __str__(self) -> str:
        parts = [f"{ev} . {cont}" for ev, cont in self.branches]
        if len(parts) == 1:
            return parts[0]
        return "( " + " + ".join(parts) + " )"


GlobalType = Union[GEnd, GVar, GRec, GChoice]


@dataclass(frozen=True)
class LEnd:
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class LVar:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LRec:
    var: str
    body: "LocalType"

    def __str__(self) -> str:
        return f"rec {self.var} . {self.body}"


@dataclass(frozen=True)
class LChoice:
    kind: str      # send or recv
    branches: tuple  # tuple[(peer, label, payload, LocalType), ...]

    def __str__(self) -> str:
        mark = "!" if self.kind == SEND else "?"
        parts = []
        for peer, label, payload, cont in self.branches:
            parts.append(
                f"{mark}{peer}:{label}{payload_suffix(payload)} . {cont}")
        if len(parts) == 1:
            return parts[0]
        op = "+" if self.kind == SEND else "&"
        return f"({op} " + " ".join(parts) + " )"


LocalType = Union[LEnd, LVar, LRec, LChoice]


def _check_global(g: GlobalType, bound: frozenset = frozenset(),
                  guarded: bool = True) -> None:
    if isinstance(g, GEnd):
        return
    if isinstance(g, GVar):
        if g.name not in bound:
            raise TypeSyntaxError(f"unbound recursion variable {g.name}")
        if not guarded:
            raise TypeSyntaxError(f"unguarded recursion variable {g.name}")
        return
    if isinstance(g, GRec):
        _check_global(g.body, bound | {g.var}, guarded=False)
        return
    if not g.branches:
        raise TypeSyntaxError("empty choice")
    for ev, cont in g.branches:
        _check_global(cont, bound, guarded=True)


def global_to_psm(g: GlobalType) -> StateMachine:
    """The state-machine reading of a global type.

    States are the indexed syntactic subterms; message branches become
    paired-event transitions, recursion binders and variables become
    epsilon transitions; the end subterms are final.
    """
    _check_global(g)
    return _type_to_machine(g, "g", lambda choice: choice.branches)


def local_to_fsm(l: LocalType, participant: str) -> StateMachine:
    """The state-machine reading of a local type for one participant."""
    def branches(choice: LChoice) -> list:
        return [(send(participant, peer, label, payload)
                 if choice.kind == SEND
                 else recv(peer, participant, label, payload), cont)
                for peer, label, payload, cont in choice.branches]

    return _type_to_machine(l, "l", branches)


def _type_to_machine(term, prefix: str, branches) -> StateMachine:
    """The machine of a global or local type: states `prefix`1, 2, ...
    name the subterms in preorder, and `branches(choice)` lists a
    choice's (event, continuation) pairs."""
    counter = itertools.count(1)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []
    binders: dict[str, str] = {}

    def visit(term) -> str:
        sid = f"{prefix}{next(counter)}"
        states.append(sid)
        if isinstance(term, (GEnd, LEnd)):
            finals.add(sid)
        elif isinstance(term, (GVar, LVar)):
            transitions.append((sid, None, binders[term.name]))
        elif isinstance(term, (GRec, LRec)):
            binders[term.var] = sid
            transitions.append((sid, None, visit(term.body)))
        else:
            for ev, cont in branches(term):
                transitions.append((sid, ev, visit(cont)))
        return sid

    initial = visit(term)
    return StateMachine(states, initial, finals, transitions)


# -- machine to global and local types ----------------------------------------


def _prune_unused_recs(t):
    """Drop the recursion binders of a global or local type whose
    variable is unused; a choice's continuation ends every branch."""
    if isinstance(t, (GRec, LRec)):
        body = _prune_unused_recs(t.body)
        return replace(t, body=body) if _uses_var(body, t.var) else body
    if isinstance(t, (GChoice, LChoice)):
        return replace(t, branches=tuple(
            b[:-1] + (_prune_unused_recs(b[-1]),) for b in t.branches))
    return t


def _uses_var(t, var: str) -> bool:
    if isinstance(t, (GVar, LVar)):
        return t.name == var
    if isinstance(t, (GRec, LRec)):
        return t.var != var and _uses_var(t.body, var)
    if isinstance(t, (GChoice, LChoice)):
        return any(_uses_var(b[-1], var) for b in t.branches)
    return False


def psm_to_global_type(machine: StateMachine) -> GlobalType:
    """Read a global type off a tree-shaped paired-event machine.

    Finals become end; an epsilon edge to a state on the current path
    becomes its recursion variable, while an epsilon edge forward is
    followed transparently; branches become sums.  States targeted by
    epsilon edges bind a recursion variable, pruned again if unused.
    """
    machine = machine.trim()
    var_names = _recursion_vars(machine)

    def traverse(q: str, seen: frozenset) -> GlobalType:
        if q in machine.finals:
            return GEnd()
        seen = seen | {q}
        outs = machine.out(q)
        if len(outs) == 1 and outs[0][0] is None:
            dst = outs[0][1]
            body: GlobalType = (GVar(var_names[dst]) if dst in seen
                                else traverse(dst, seen))
        else:
            branches = []
            for ev, dst in outs:
                if ev is None:
                    raise ValueError("epsilon edge on a branching state")
                if ev.kind != PAIR:
                    raise ValueError("global types need paired events; merge first")
                branches.append((ev, traverse(dst, seen)))
            if not branches:
                raise ValueError(f"non-final sink state {q!r}")
            body = GChoice(tuple(branches))
        if q in var_names:
            return GRec(var_names[q], body)
        return body

    return _prune_unused_recs(traverse(machine.initial, frozenset()))


def fsm_to_local_type(machine: StateMachine, participant: str) -> LocalType:
    """A local type with the machine's language, via the tree workflow.

    Requires a sink-final machine without mixed-choice states; the
    offending state is reported otherwise.
    """
    machine = machine.trim()
    for ev in sorted(machine.alphabet(), key=Event.sort_key):
        if ev.kind == PAIR or ev.subject != participant:
            raise ValueError(
                f"event {ev} is not an action of {participant}; project "
                f"the protocol onto the participant first")
    for q in sorted(machine.states):
        kinds = {ev.kind for ev, _ in machine.out(q) if ev is not None}
        if len(kinds) > 1:
            raise MixedChoiceState(q)
    if not machine.is_sink_final():
        raise ValueError("fsm_to_local_type requires a sink-final machine")
    if machine.initial in machine.finals:
        return LEnd()
    regex = psm_to_regex(machine)
    tree = regex_to_psm(regex)
    var_names = _recursion_vars(tree)

    def traverse(q: str, seen: frozenset) -> LocalType:
        if q in tree.finals and tree.is_sink(q):
            return LEnd()
        seen = seen | {q}
        outs = tree.out(q)
        if len(outs) == 1 and outs[0][0] is None:
            dst = outs[0][1]
            body: LocalType = (LVar(var_names[dst]) if dst in seen
                               else traverse(dst, seen))
        else:
            branches = []
            kinds = set()
            for ev, dst in outs:
                if ev is None:
                    raise ValueError("epsilon edge on a branching state")
                kinds.add(ev.kind)
                peer = ev.receiver if ev.kind == SEND else ev.sender
                branches.append((peer, ev.label, ev.payload, traverse(dst, seen)))
            if len(kinds) != 1:
                raise MixedChoiceState(q)
            body = LChoice(kinds.pop(), tuple(branches))
        if q in var_names:
            return LRec(var_names[q], body)
        return body

    return _prune_unused_recs(traverse(tree.initial, frozenset()))


# -- text formats --------------------------------------------------------------


def parse_global_type(text: str) -> GlobalType:
    """Parse the textual syntax: `0`, `p->q:m . G`, `( G + G )`,
    `rec X . G`, and `X`; payloads as `m<t>` or `m<@state>`."""
    tokens = _Tokens(text)
    term = _parse_global(tokens)
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    _check_global(term)
    return term


def _parse_global(tokens: _Tokens) -> GlobalType:
    token = tokens.next()
    if token == "0":
        return GEnd()
    if token == "rec":
        var = tokens.next()
        tokens.expect(".")
        return GRec(var, _parse_global(tokens))
    if token == "(":
        branches: list = []
        while True:
            term = _parse_global(tokens)
            branches.append(term)
            token = tokens.next()
            if token == ")":
                break
            if token != "+":
                raise TypeSyntaxError(f"expected '+' or ')', got {token!r}")
        flat = []
        for term in branches:
            if isinstance(term, GChoice):
                flat.extend(term.branches)
            else:
                raise TypeSyntaxError("choice branches must start with a message")
        return GChoice(tuple(flat))
    if tokens.peek() != "->":
        return GVar(token)
    # message prefix: p -> q : m . G
    sender = token
    tokens.expect("->")
    receiver = tokens.next()
    tokens.expect(":")
    label = tokens.next()
    payload = None
    if tokens.peek() is not None and tokens.peek().startswith("<"):
        payload = _parse_payload(tokens)
    tokens.expect(".")
    cont = _parse_global(tokens)
    return GChoice(((pair(sender, receiver, label, payload), cont),))


def format_global_type(g: GlobalType) -> str:
    return str(g)


def parse_local_type(text: str, participant: str) -> LocalType:
    """Parse the local syntax: `0`, `!q:m . L`, `?q:m . L`,
    `(+ L L )`, `(& L L )`, `rec X . L`, and `X`."""
    tokens = _Tokens(text.replace("!", " ! ").replace("?", " ? "))
    term = _parse_local(tokens)
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    return term


def _parse_local(tokens: _Tokens) -> LocalType:
    token = tokens.next()
    if token == "0":
        return LEnd()
    if token == "rec":
        var = tokens.next()
        tokens.expect(".")
        return LRec(var, _parse_local(tokens))
    if token in ("!", "?"):
        kind = SEND if token == "!" else RECV
        peer = tokens.next()
        tokens.expect(":")
        label = tokens.next()
        payload = None
        if tokens.peek() is not None and tokens.peek().startswith("<"):
            payload = _parse_payload(tokens)
        tokens.expect(".")
        return LChoice(kind, ((peer, label, payload, _parse_local(tokens)),))
    if token == "(":
        op = tokens.next()
        if op not in ("+", "&"):
            raise TypeSyntaxError(f"expected '+' or '&', got {op!r}")
        kind = SEND if op == "+" else RECV
        branches: list = []
        while tokens.peek() != ")":
            term = _parse_local(tokens)
            if not isinstance(term, LChoice) or term.kind != kind \
                    or len(term.branches) != 1:
                raise TypeSyntaxError("choice branches must be single actions")
            branches.append(term.branches[0])
        tokens.next()
        if not branches:
            raise TypeSyntaxError("empty choice")
        return LChoice(kind, tuple(branches))
    return LVar(token)


def format_local_type(l: LocalType) -> str:
    return str(l)
