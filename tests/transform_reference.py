"""The tree workflow as it stood before regex nodes hashed in constant
time, kept as a test-only reference: the session-type classes with their
recursive printers, the regex classes with their recursive printers and
structural hashing, their constructors, `nullable`,
`regex_contains_eps`, `first_letters`, `psm_to_regex` with its
elimination order and its substitution into every equation, `canon`
without a memo, `brz_deriv`, `remove_eps`, `regex_to_psm`, the tree
reader, `tree_of`, `psm_to_global_type` and `fsm_to_local_type`,
verbatim but for absolute imports.  `MixedChoiceState` is the library's,
so that exceptions compare equal.

`test_transform_reference.py` runs these next to `amp.transform` and
requires equal printed expressions, machines and types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from amp.core import (Event, PAIR, RECV, SEND, StateMachine,
                      backward_closure, payload_suffix)
from amp.transform import MixedChoiceState


@dataclass(frozen=True)
class End:
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Rec:
    var: str
    body: "SessionType"

    def __str__(self) -> str:
        return f"rec {self.var} . {self.body}"


@dataclass(frozen=True)
class Choice:
    branches: tuple  # tuple[(Event, SessionType), ...]

    def __str__(self) -> str:
        parts = [f"{_action(ev)} . {cont}" for ev, cont in self.branches]
        if len(parts) == 1:
            return parts[0]
        kind = self.branches[0][0].kind
        if kind == PAIR:
            return "( " + " + ".join(parts) + " )"
        op = "+" if kind == SEND else "&"
        return f"({op} " + " ".join(parts) + " )"


SessionType = Union[End, Var, Rec, Choice]


def _action(ev: Event) -> str:
    """An event as a type prints it: `p->q:m` in a global type, and in a
    local one `!q:m` or `?p:m`, without the participant itself."""
    if ev.kind == SEND:
        return f"!{ev.receiver}:{ev.label}{payload_suffix(ev.payload)}"
    if ev.kind == RECV:
        return f"?{ev.sender}:{ev.label}{payload_suffix(ev.payload)}"
    return str(ev)


@dataclass(frozen=True)
class REmpty:
    def __str__(self) -> str:
        return "∅"


@dataclass(frozen=True)
class REps:
    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class RLetter:
    event: Event

    def __str__(self) -> str:
        return str(self.event)


@dataclass(frozen=True)
class RAlt:
    left: "Regex"
    right: "Regex"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class RCat:
    left: "Regex"
    right: "Regex"

    def __str__(self) -> str:
        return f"{self.left}·{self.right}"


@dataclass(frozen=True)
class RStar:
    inner: "Regex"

    def __str__(self) -> str:
        return f"({self.inner})*"


Regex = Union[REmpty, REps, RLetter, RAlt, RCat, RStar]


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


def psm_to_regex(machine: StateMachine) -> Regex:
    """Solve the transition equations of a sink-final machine for the
    initial state.

    Each state's language is a guarded sum over its transitions (final
    sinks contribute ε); states are eliminated deepest-first, applying
    the swapped rule r = s + t·r  =>  r = t*·s at self-references.
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

    order = _elimination_order(machine)
    for q in order:
        if q == machine.initial:
            continue
        _solve_state(equations, q)
        _substitute(equations, q)
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


def _substitute(equations: dict, q: str) -> None:
    solved = equations[q]
    for state, terms in equations.items():
        if state == q:
            continue
        new_terms = []
        for coeff, dst in terms:
            if dst == q:
                new_terms.extend((rcat(coeff, c), d) for c, d in solved)
            else:
                new_terms.append((coeff, dst))
        equations[state] = new_terms


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


def canon(r: Regex) -> Regex:
    """Normalise modulo associativity, commutativity, and idempotence of
    union, and associativity of concatenation.

    Derivatives of an expression are finite modulo exactly these laws,
    so canonical forms let the machine construction detect its loops.
    """
    if isinstance(r, RAlt):
        members: list[Regex] = []

        def collect(term: Regex) -> None:
            if isinstance(term, RAlt):
                collect(term.left)
                collect(term.right)
            else:
                term = canon(term)
                if not isinstance(term, REmpty) and term not in members:
                    members.append(term)

        collect(r.left)
        collect(r.right)
        members.sort(key=str)
        return rsum(members)
    if isinstance(r, RCat):
        parts: list[Regex] = []

        def walk(term: Regex) -> None:
            if isinstance(term, RCat):
                walk(term.left)
                walk(term.right)
            else:
                parts.append(canon(term))

        walk(r.left)
        walk(r.right)
        result: Regex = REps()
        for part in reversed(parts):
            result = rcat(part, result)
        return result
    if isinstance(r, RStar):
        inner = canon(r.inner)
        if isinstance(inner, RStar):
            inner = inner.inner
        return rstar(inner)
    return r


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
            derived = canon(derived)
            if derived in ancestors:
                attach(sid, a, derived)
            elif nullable(derived) and first_letters(derived):
                stop = fresh()
                finals.add(stop)
                transitions.append((sid, a, stop))
                attach(sid, a, canon(remove_eps(derived)))
            else:
                attach(sid, a, derived)
        del ancestors[term]
        return sid

    root = expand(canon(r))
    return StateMachine(states, root, finals, transitions)


def _recursion_vars(machine: StateMachine) -> dict[str, str]:
    """Variables X1, X2, ... for the targets of epsilon (back) edges."""
    targets = sorted({dst for _, ev, dst in machine.transitions if ev is None})
    return {q: f"X{i + 1}" for i, q in enumerate(targets)}


def _prune_unused_recs(t: SessionType) -> SessionType:
    """Drop the recursion binders whose variable is unused."""
    if isinstance(t, Rec):
        body = _prune_unused_recs(t.body)
        return Rec(t.var, body) if _uses_var(body, t.var) else body
    if isinstance(t, Choice):
        return Choice(tuple((ev, _prune_unused_recs(cont))
                            for ev, cont in t.branches))
    return t


def _uses_var(t: SessionType, var: str) -> bool:
    if isinstance(t, Var):
        return t.name == var
    if isinstance(t, Rec):
        return t.var != var and _uses_var(t.body, var)
    if isinstance(t, Choice):
        return any(_uses_var(cont, var) for _, cont in t.branches)
    return False


def _read_tree(tree: StateMachine, check) -> SessionType:
    """Read a type off a tree-shaped machine.

    Finals become end; an epsilon edge to a state on the current path
    becomes its recursion variable, while an epsilon edge forward is
    followed transparently; branches become choices, once
    `check(state, events)` accepts their events.  States targeted by
    epsilon edges bind a recursion variable, pruned again if unused.
    """
    var_names = _recursion_vars(tree)

    def traverse(q: str, seen: frozenset) -> SessionType:
        if q in tree.finals:
            return End()
        seen = seen | {q}
        outs = tree.out(q)
        if len(outs) == 1 and outs[0][0] is None:
            dst = outs[0][1]
            body: SessionType = (Var(var_names[dst]) if dst in seen
                                 else traverse(dst, seen))
        else:
            branches = []
            for ev, dst in outs:
                if ev is None:
                    raise ValueError("epsilon edge on a branching state")
                branches.append((ev, traverse(dst, seen)))
            if not branches:
                raise ValueError(f"non-final sink state {q!r}")
            check(q, [ev for ev, _ in branches])
            body = Choice(tuple(branches))
        if q in var_names:
            return Rec(var_names[q], body)
        return body

    return _prune_unused_recs(traverse(tree.initial, frozenset()))


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
