"""Global types, local types, regular expressions, and the round-trip
transformations between them and protocol machines.

The machine-to-global-type direction goes through a regular expression
for the initial state (a swapped reading of Arden's rule, sound for
sink-final machines) and rebuilds a tree-shaped machine using
derivatives so that no nondeterminism is introduced along the way.
The library builds tree-shaped machines but never tests for the shape:
the predicates that define it (ancestor-recursive, non-merging, free of
intermediate recursion), the machine derivative and the choice classes
of marked expressions are test-only checks in `tests/semantics.py`.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Optional, Union

from .core import (Compiled, Event, MalformedInput, PAIR, RECV, Record,
                   SEND, StateMachine, StateRef, backward_closure, pair,
                   payload_suffix, recv, send)

# -- session types ------------------------------------------------------------
#
# One representation serves global and local types.  A choice pairs each
# event with its continuation: paired events in a global type, one
# participant's sends or receives in a local type.


class End(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "0"


class Var(Record):
    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class Rec(Record):
    __slots__ = ("var", "body")
    def __init__(self, var: str, body: "SessionType"):
        self.var, self.body = var, body

    def __str__(self) -> str:
        return _format(self)


class Choice(Record):
    __slots__ = ("branches",)
    def __init__(self, branches: tuple):
        self.branches = branches  # ((Event, SessionType), ...)

    def __str__(self) -> str:
        return _format(self)


SessionType = Union[End, Var, Rec, Choice]


def _format(term: SessionType) -> str:
    """The text of a type: `rec X . body`, one branch as `action . cont`,
    several as `( a . G + b . G )` in a global type and `(+ !a . L !b . L )`
    or `(& ...)` in a local one.  An explicit stack of pending pieces, so
    the depth of the type is not bounded by Python's recursion limit."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Rec):
            stack.append(item.body)
            stack.append(f"rec {item.var} . ")
        elif isinstance(item, Choice):
            kind = item.branches[0][0].kind
            several = len(item.branches) > 1
            pieces: list = []
            if several:
                pieces.append("( " if kind == PAIR
                              else "(+ " if kind == SEND else "(& ")
            for i, (ev, cont) in enumerate(item.branches):
                if i:
                    pieces.append(" + " if kind == PAIR else " ")
                pieces += [f"{_action(ev)} . ", cont]
            if several:
                pieces.append(" )")
            stack.extend(reversed(pieces))
        else:
            out.append(str(item))
    return "".join(out)


def _action(ev: Event) -> str:
    """An event as a type prints it: `p->q:m` in a global type, and in a
    local one `!q:m` or `?p:m`, without the participant itself."""
    if ev.kind == SEND:
        return f"!{ev.receiver}:{ev.label}{payload_suffix(ev.payload)}"
    if ev.kind == RECV:
        return f"?{ev.sender}:{ev.label}{payload_suffix(ev.payload)}"
    return str(ev)


class TypeSyntaxError(MalformedInput):
    pass


def _check_global(g: SessionType, bound: frozenset = frozenset(),
                  guarded: bool = True) -> None:
    if isinstance(g, End):
        return
    if isinstance(g, Var):
        if g.name not in bound:
            raise TypeSyntaxError(f"unbound recursion variable {g.name}")
        if not guarded:
            raise TypeSyntaxError(f"unguarded recursion variable {g.name}")
        return
    if isinstance(g, Rec):
        _check_global(g.body, bound | {g.var}, guarded=False)
        return
    if not g.branches:
        raise TypeSyntaxError("empty choice")
    for ev, cont in g.branches:
        _check_global(cont, bound, guarded=True)


def global_to_psm(g: SessionType) -> StateMachine:
    """The state-machine reading of a global type.

    States are the indexed syntactic subterms; message branches become
    paired-event transitions, recursion binders and variables become
    epsilon transitions; the end subterms are final.
    """
    _check_global(g)
    return StateMachine(*_type_parts(g, "g"))


def compile_global(g: SessionType) -> Compiled:
    """The compiled form of `global_to_psm(g)`, for a type that
    `parse_global_type` has checked, built with no machine."""
    return Compiled.load(*_type_parts(g, "g"))


def local_to_fsm(l: SessionType) -> StateMachine:
    """The state-machine reading of a local type."""
    return StateMachine(*_type_parts(l, "l"))


def _type_parts(term: SessionType, prefix: str) -> tuple:
    """The states, initial state, finals and transitions of the machine
    of a global or local type: states `prefix`1, 2, ... name the
    subterms in preorder.  An explicit stack of (subterm, the state
    before it, the event between), so the depth of the type is not
    bounded by Python's recursion limit."""
    states: list[str] = []
    finals: list[str] = []
    transitions: list = []
    binders: dict[str, str] = {}
    stack: list = [(term, None, None)]
    while stack:
        term, src, ev = stack.pop()
        sid = f"{prefix}{len(states) + 1}"
        states.append(sid)
        if src is not None:
            transitions.append((src, ev, sid))
        if isinstance(term, End):
            finals.append(sid)
        elif isinstance(term, Var):
            transitions.append((sid, None, binders[term.name]))
        elif isinstance(term, Rec):
            binders[term.var] = sid
            stack.append((term.body, sid, None))
        else:
            stack += [(cont, sid, ev) for ev, cont in reversed(term.branches)]
    return states, states[0], finals, transitions


# -- regular expressions ------------------------------------------------------


class _Node(Record):
    """A regex node hashes in O(1): it computes its hash once, when it is
    built, from its children's cached hashes.  Equality tries identity,
    then the hashes, and only then the children, each of them again
    identity first, with an explicit stack, so deep terms compare
    without recursion."""

    __slots__ = ("_key",)
    def __init__(self, *fields):
        for name, value in zip(self._fields, fields):
            setattr(self, name, value)
        self._key = fields
        self._hash = hash((type(self), fields))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._key, b._key):
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


class REmpty(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return "∅"


class REps(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return "ε"


class RLetter(_Node):
    __slots__ = ("event",)

    def __str__(self) -> str:
        return str(self.event)


class RAlt(_Node):
    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return _regex_text(self)


class RCat(_Node):
    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return _regex_text(self)


class RStar(_Node):
    __slots__ = ("inner",)

    def __str__(self) -> str:
        return _regex_text(self)


Regex = Union[REmpty, REps, RLetter, RAlt, RCat, RStar]


def _regex_text(r: Regex) -> str:
    """The text of an expression: `(a + b)`, `a·b`, `(a)*`.  An explicit
    stack of pending pieces, so deep expressions print without
    recursion (`canon` orders alternatives by their text)."""
    out: list[str] = []
    stack: list = [r]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, RAlt):
            stack += (")", item.right, " + ", item.left, "(")
        elif isinstance(item, RCat):
            stack += (item.right, "·", item.left)
        elif isinstance(item, RStar):
            stack += (")*", item.inner, "(")
        else:
            out.append(str(item))
    return "".join(out)


def ralt(a: Regex, b: Regex) -> Regex:
    if isinstance(a, REmpty):
        return b
    if isinstance(b, REmpty):
        return a
    return RAlt(a, b)


def rcat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, REmpty) or isinstance(b, REmpty):
        return REmpty()
    if isinstance(a, REps):
        return b
    if isinstance(b, REps):
        return a
    return RCat(a, b)


def rstar(a: Regex) -> Regex:
    if isinstance(a, (REmpty, REps)):
        return REps()
    return RStar(a)


def rsum(items: Iterable[Regex]) -> Regex:
    result: Regex = REmpty()
    for item in items:
        result = ralt(result, item)
    return result


def nullable(r: Regex) -> bool:
    if isinstance(r, REps):
        return True
    if isinstance(r, (REmpty, RLetter)):
        return False
    if isinstance(r, RAlt):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, RCat):
        return nullable(r.left) and nullable(r.right)
    return True  # star


def regex_contains_eps(r: Regex) -> bool:
    if isinstance(r, REps):
        return True
    if isinstance(r, (REmpty, RLetter)):
        return False
    if isinstance(r, RStar):
        return regex_contains_eps(r.inner)
    return regex_contains_eps(r.left) or regex_contains_eps(r.right)


def first_letters(r: Regex) -> frozenset[Event]:
    if isinstance(r, (REmpty, REps)):
        return frozenset()
    if isinstance(r, RLetter):
        return frozenset({r.event})
    if isinstance(r, RAlt):
        return first_letters(r.left) | first_letters(r.right)
    if isinstance(r, RCat):
        firsts = first_letters(r.left)
        if nullable(r.left):
            firsts |= first_letters(r.right)
        return firsts
    return first_letters(r.inner)


# -- sink-finalisation and the machine-to-regex direction --------------------


def make_sink_final(machine: StateMachine) -> StateMachine:
    """Duplicate every transition into a final state towards one fresh
    final sink, then demote the old finals.

    Rejects machines accepting the empty word, which have no transition
    to duplicate.  May introduce nondeterminism.
    """
    machine = machine.trim()
    if machine.eps_closure({machine.initial}) & machine.finals:
        raise ValueError("cannot sink-finalise a machine accepting ε")
    sink = "qf"
    while sink in machine.states:
        sink += "'"
    transitions = list(machine.transitions)
    for src, ev, dst in machine.transitions:
        if dst in machine.finals:
            transitions.append((src, ev, sink))
    return StateMachine(machine.states | {sink}, machine.initial, {sink},
                        transitions).trim()


def psm_to_regex(machine: StateMachine) -> Regex:
    """Solve the transition equations of a sink-final machine for the
    initial state.

    Each state's language is a guarded sum over its transitions (final
    sinks contribute ε); states are eliminated deepest-first, applying
    the swapped rule r = s + t·r  =>  r = t*·s at self-references, and
    substituting each solution only into the equations that mention the
    eliminated state.
    """
    machine = machine.trim()
    if not machine.is_sink_final():
        raise ValueError("psm_to_regex requires a sink-final machine")
    reaches_final = backward_closure(machine.states, machine.out,
                                     machine.finals)
    if machine.states - reaches_final:
        # An expression's infinite words are limits of its finite ones,
        # so a branch that can never complete has no flat representation.
        raise ValueError("machine has states with no path to a final state")

    # Equations: state -> list of (coefficient regex, successor or None).
    # A `None` successor holds a constant term.
    equations: dict[str, list[tuple[Regex, Optional[str]]]] = {}
    for q in machine.states:
        if q in machine.finals:
            equations[q] = [(REps(), None)]
            continue
        terms = []
        for ev, dst in machine.out(q):
            coeff: Regex = REps() if ev is None else RLetter(ev)
            terms.append((coeff, dst))
        equations[q] = terms
    # users[q]: the states whose equations mention q; a state eliminated
    # since then stays listed, and _substitute skips it
    users: dict[str, dict[str, None]] = {q: {} for q in equations}
    for state, terms in equations.items():
        for _, dst in terms:
            if dst is not None:
                users[dst][state] = None

    for q in _elimination_order(machine):
        if q == machine.initial:
            continue
        _solve_state(equations, q)
        _substitute(equations, users, q)
    _solve_state(equations, machine.initial)
    constants = [c for c, dst in equations[machine.initial] if dst is None]
    if any(dst is not None for _, dst in equations[machine.initial]):
        raise AssertionError("elimination left an unresolved state")
    return rsum(constants)


def _elimination_order(machine: StateMachine) -> list[str]:
    """Deepest-first DFS postorder from the initial state."""
    order: list[str] = []
    seen: set[str] = set()

    def visit(q: str) -> None:
        seen.add(q)
        for ev, dst in machine.out(q):
            if dst not in seen:
                visit(dst)
        order.append(q)

    visit(machine.initial)
    return order


def _solve_state(equations: dict, q: str) -> None:
    """Apply the swapped rule to remove q's self-reference, if any."""
    self_coeffs = [c for c, dst in equations[q] if dst == q]
    others = [(c, dst) for c, dst in equations[q] if dst != q]
    if self_coeffs:
        loop = rstar(rsum(self_coeffs))
        others = [(rcat(loop, c), dst) for c, dst in others]
    equations[q] = others


def _substitute(equations: dict, users: dict, q: str) -> None:
    """Replace q by its solved equation wherever it is mentioned, keeping
    each equation's term order, and drop q's equation: no state
    mentions q any more."""
    solved = equations.pop(q)
    for state in users.pop(q):
        terms = equations.get(state)
        if terms is None:  # q itself, or a state eliminated before q
            continue
        new_terms = []
        for coeff, dst in terms:
            if dst == q:
                new_terms.extend((rcat(coeff, c), d) for c, d in solved)
            else:
                new_terms.append((coeff, dst))
        equations[state] = new_terms
        for _, dst in solved:
            if dst is not None:
                users[dst][state] = None


# -- derivatives ---------------------------------------------------------------


def brz_deriv(a: Event, r: Regex) -> Optional[Regex]:
    """The Brzozowski derivative; None when `a` is not a first letter."""
    if isinstance(r, RLetter):
        return REps() if r.event == a else None
    if isinstance(r, RAlt):
        left = brz_deriv(a, r.left)
        right = brz_deriv(a, r.right)
        if left is None:
            return right
        if right is None:
            return left
        return ralt(left, right)
    if isinstance(r, RCat):
        left = brz_deriv(a, r.left)
        head = None if left is None else rcat(left, r.right)
        if not nullable(r.left):
            return head
        tail = brz_deriv(a, r.right)
        if head is None:
            return tail
        if tail is None:
            return head
        return ralt(head, tail)
    if isinstance(r, RStar):
        inner = brz_deriv(a, r.inner)
        return None if inner is None else rcat(inner, r)
    return None


def canon(r: Regex, memo: dict) -> Regex:
    """Normalise modulo associativity, commutativity, and idempotence of
    union, and associativity of concatenation.

    Derivatives of an expression are finite modulo exactly these laws,
    so canonical forms let the machine construction detect its loops.
    `memo` remembers the canonical form of every term met, for as long
    as the caller keeps it (`{}` for one term).  Every right suffix of a
    concatenation built from parts that are their own canonical forms
    is its own canonical form too, so it is remembered as such: the
    derivative of a long concatenation is such a suffix, and looking it
    up takes one hash.
    """
    known = memo.get(r)
    if known is not None:
        return known
    if isinstance(r, RAlt):
        members: dict[Regex, None] = {}  # an ordered set
        stack = [r.right, r.left]
        while stack:
            term = stack.pop()
            if isinstance(term, RAlt):
                stack += (term.right, term.left)
            else:
                term = canon(term, memo)
                if not isinstance(term, REmpty):
                    members.setdefault(term, None)
        result = rsum(sorted(members, key=str))
    elif isinstance(r, RCat):
        parts: list[Regex] = []
        stack = [r.right, r.left]
        while stack:
            term = stack.pop()
            if isinstance(term, RCat):
                stack += (term.right, term.left)
            else:
                parts.append(canon(term, memo))
        result = REps()
        fixed = True  # whether `result` is its own canonical form
        for part in reversed(parts):
            fixed = (fixed and not isinstance(part, RCat)
                     and canon(part, memo) == part)
            result = rcat(part, result)
            if fixed:
                memo.setdefault(result, result)
    elif isinstance(r, RStar):
        inner = canon(r.inner, memo)
        if isinstance(inner, RStar):
            inner = inner.inner
        result = rstar(inner)
    else:
        result = r
    memo[r] = result
    return result


def remove_eps(r: Regex) -> Regex:
    """The expression for L(r) without the empty word."""
    if isinstance(r, (REmpty, REps)):
        return REmpty()
    if isinstance(r, RLetter):
        return r
    if isinstance(r, RAlt):
        return ralt(remove_eps(r.left), remove_eps(r.right))
    if isinstance(r, RCat):
        head = rcat(remove_eps(r.left), r.right)
        if nullable(r.left):
            return ralt(head, remove_eps(r.right))
        return head
    return rcat(remove_eps(r.inner), r)  # star


def regex_to_psm(r: Regex) -> StateMachine:
    """Build a tree-shaped machine for an ε-free expression.

    Expands the expression by derivatives, one branch per first letter;
    a derivative already seen on the current path becomes an epsilon
    back edge, closing the loop exactly where a recursion binder
    belongs.  A derivative that is nullable but can continue splits
    into a final sink and its ε-free residue, duplicating the letter:
    the nondeterminism such expressions carried stays visible instead
    of surfacing as a final state with outgoing transitions.
    """
    if regex_contains_eps(r):
        raise ValueError("regex_to_psm requires an ε-free expression")
    memo: dict = {}  # canonical forms, for this call only
    counter = itertools.count(0)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []

    def fresh() -> str:
        name = f"r{next(counter)}"
        states.append(name)
        return name

    ancestors: dict = {}  # term on the current path -> its state

    def attach(sid: str, a: Event, term: Regex) -> None:
        ancestor = ancestors.get(term)
        if ancestor is not None:
            hook = fresh()
            transitions.append((sid, a, hook))
            transitions.append((hook, None, ancestor))
        else:
            transitions.append((sid, a, expand(term)))

    def expand(term: Regex) -> str:
        sid = fresh()
        if nullable(term):
            finals.add(sid)
        ancestors[term] = sid
        for a in sorted(first_letters(term), key=Event.sort_key):
            derived = brz_deriv(a, term)
            assert derived is not None
            derived = canon(derived, memo)
            if derived in ancestors:
                attach(sid, a, derived)
            elif nullable(derived) and first_letters(derived):
                stop = fresh()
                finals.add(stop)
                transitions.append((sid, a, stop))
                attach(sid, a, canon(remove_eps(derived), memo))
            else:
                attach(sid, a, derived)
        del ancestors[term]
        return sid

    root = expand(canon(r, memo))
    return StateMachine(states, root, finals, transitions)


# -- machine to global and local types ----------------------------------------


class MixedChoiceState(ValueError):
    def __init__(self, state: str):
        super().__init__(f"state {state!r} mixes send and receive branches")
        self.state = state


def _recursion_vars(machine: StateMachine) -> dict[str, str]:
    """Variables X1, X2, ... for the targets of epsilon (back) edges."""
    targets = sorted({dst for _, ev, dst in machine.transitions if ev is None})
    return {q: f"X{i + 1}" for i, q in enumerate(targets)}


def _read_tree(tree: StateMachine, check) -> SessionType:
    """Read a type off a tree-shaped machine.

    Finals become end; an epsilon edge to a state on the current path
    becomes its recursion variable, while an epsilon edge forward is
    followed transparently; branches become choices, once
    `check(state, events)` accepts their events.  A state binds its
    variable, named over all epsilon targets, only when an epsilon
    edge read below it went back to it, so no binder goes unused.
    """
    var_names = _recursion_vars(tree)
    path: set[str] = set()  # the states on the current path
    looped: set[str] = set()  # the states of `path` an edge went back to

    def traverse(q: str) -> SessionType:
        if q in tree.finals:
            return End()
        path.add(q)
        outs = tree.out(q)
        if len(outs) == 1 and outs[0][0] is None:
            dst = outs[0][1]
            if dst in path:
                looped.add(dst)
                body: SessionType = Var(var_names[dst])
            else:
                body = traverse(dst)
        else:
            branches = []
            for ev, dst in outs:
                if ev is None:
                    raise ValueError("epsilon edge on a branching state")
                branches.append((ev, traverse(dst)))
            if not branches:
                raise ValueError(f"non-final sink state {q!r}")
            check(q, [ev for ev, _ in branches])
            body = Choice(tuple(branches))
        path.discard(q)
        if q in looped:
            looped.discard(q)
            return Rec(var_names[q], body)
        return body

    return traverse(tree.initial)


def tree_of(machine: StateMachine) -> StateMachine:
    """A tree-shaped machine with the language of a sink-final machine,
    rebuilt from its expression by derivatives, its finals all sinks.
    When the only word is ε, which no ε-free expression spells, it is a
    lone final state: the type end."""
    machine = machine.trim()
    if machine.eps_closure({machine.initial}) & machine.finals:
        if machine.alphabet():
            raise ValueError("the machine accepts ε and longer words; "
                             "no type ends and goes on at once")
        return StateMachine({machine.initial}, machine.initial,
                            {machine.initial}, ())
    return regex_to_psm(psm_to_regex(machine))


def psm_to_global_type(machine: StateMachine) -> SessionType:
    """Read a global type off a tree-shaped paired-event machine, whose
    final states end the type."""
    machine = machine.trim()

    def check(q: str, events: list) -> None:
        if any(ev.kind != PAIR for ev in events):
            raise ValueError("global types need paired events; merge first")

    return _read_tree(machine, check)


def fsm_to_local_type(machine: StateMachine, participant: str) -> SessionType:
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
    tree = tree_of(machine)

    def check(q: str, events: list) -> None:
        if len({ev.kind for ev in events}) != 1:
            raise MixedChoiceState(q)

    return _read_tree(tree, check)


# -- text formats --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(\s*(?:(?P<arrow>->)|(?P<sym>[().+:]|rec\b)|(?P<word>[^\s().+:<>-]+)"
    r"|(?P<payload><[^>]*>)))")


class _Tokens:
    def __init__(self, text: str, operators: tuple = ()):
        # Each match is (its text, arrow, sym, word, payload), one of the
        # last four the token.
        found = _TOKEN_RE.findall(text)
        self.tokens = [a or s or w or p for _, a, s, w, p in found]
        # whether each token can be a name
        self.words = [bool(w) and w not in operators
                      for _, _, _, w, _ in found]
        self.pos = 0
        # A token ends on a character that is not white space, so the
        # matches leave none out exactly when they span the text but its
        # trailing white space.
        if len("".join([match[0] for match in found])) != len(text.rstrip()):
            pos = 0
            for m in _TOKEN_RE.finditer(text):
                if m.start() != pos:
                    break
                pos = m.end()
            raise TypeSyntaxError(f"stray input at {text[pos:pos+20]!r}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        pos = self.pos
        if pos >= len(self.tokens):
            raise TypeSyntaxError("unexpected end of input")
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise TypeSyntaxError(f"expected {token!r}, got {got!r}")

    def word(self) -> str:
        """Consume a name: a participant, a label or a variable."""
        token = self.next()
        if not self.words[self.pos - 1]:
            raise TypeSyntaxError(f"expected a name, got {token!r}")
        return token


def _parse_payload(tokens: _Tokens):
    """Consume a `<...>` payload token: `<t>` base type, `<@q>` state."""
    inner = tokens.next()[1:-1]
    if inner.startswith("@"):
        return StateRef(inner[1:])
    return inner or None


def parse_global_type(text: str) -> SessionType:
    """Parse the textual syntax: `0`, `p->q:m . G`, `( G + G )`,
    `rec X . G`, and `X`; payloads as `m<t>` or `m<@state>`."""
    tokens = _Tokens(text)
    term = _parse_global(tokens, functools.cache(pair))
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    _check_global(term)
    return term


def _parse_global(tokens: _Tokens, exchange) -> SessionType:
    """One term, its events built by `exchange`: `pair`, cached per parse."""
    token = tokens.next()
    if token == "0":
        return End()
    if token == "rec":
        var = tokens.word()
        tokens.expect(".")
        return Rec(var, _parse_global(tokens, exchange))
    if token == "(":
        branches: list = []
        while True:
            term = _parse_global(tokens, exchange)
            branches.append(term)
            token = tokens.next()
            if token == ")":
                break
            if token != "+":
                raise TypeSyntaxError(f"expected '+' or ')', got {token!r}")
        flat = []
        for term in branches:
            if isinstance(term, Choice):
                flat.extend(term.branches)
            else:
                raise TypeSyntaxError("choice branches must start with a message")
        return Choice(tuple(flat))
    tokens.pos -= 1  # read the token again, as a name
    sender = tokens.word()
    if tokens.peek() != "->":
        return Var(sender)
    # message prefix: p -> q : m . G
    tokens.expect("->")
    receiver = tokens.word()
    tokens.expect(":")
    label = tokens.word()
    payload = None
    if tokens.peek() is not None and tokens.peek().startswith("<"):
        payload = _parse_payload(tokens)
    tokens.expect(".")
    cont = _parse_global(tokens, exchange)
    return Choice(((exchange(sender, receiver, label, payload), cont),))


def parse_local_type(text: str, participant: str) -> SessionType:
    """Parse the local syntax of `participant`: `0`, `!q:m . L`,
    `?q:m . L`, `(+ L L )`, `(& L L )`, `rec X . L`, and `X`."""
    tokens = _Tokens(text.replace("!", " ! ").replace("?", " ? "),
                     operators=("!", "?", "&"))
    term = _parse_local(tokens, participant)
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    return term


def _parse_local(tokens: _Tokens, participant: str) -> SessionType:
    token = tokens.next()
    if token == "0":
        return End()
    if token == "rec":
        var = tokens.word()
        tokens.expect(".")
        return Rec(var, _parse_local(tokens, participant))
    if token in ("!", "?"):
        peer = tokens.word()
        tokens.expect(":")
        label = tokens.word()
        payload = None
        if tokens.peek() is not None and tokens.peek().startswith("<"):
            payload = _parse_payload(tokens)
        tokens.expect(".")
        ev = (send(participant, peer, label, payload) if token == "!"
              else recv(peer, participant, label, payload))
        return Choice(((ev, _parse_local(tokens, participant)),))
    if token == "(":
        op = tokens.next()
        if op not in ("+", "&"):
            raise TypeSyntaxError(f"expected '+' or '&', got {op!r}")
        kind = SEND if op == "+" else RECV
        branches: list = []
        while tokens.peek() != ")":
            term = _parse_local(tokens, participant)
            if not isinstance(term, Choice) or len(term.branches) != 1 \
                    or term.branches[0][0].kind != kind:
                raise TypeSyntaxError("choice branches must be single actions")
            branches.append(term.branches[0])
        tokens.next()
        if not branches:
            raise TypeSyntaxError("empty choice")
        return Choice(tuple(branches))
    tokens.pos -= 1  # read the token again, as a name
    return Var(tokens.word())
