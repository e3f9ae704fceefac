"""Global types, local types, regular expressions, and the round-trip
transformations between them and protocol machines.

The machine-to-global-type direction goes through a regular expression
for the initial state (a swapped reading of Arden's rule, sound for
sink-final machines) and rebuilds a tree-shaped machine using
derivatives so that no nondeterminism is introduced along the way.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import (Event, PAIR, RECV, SEND, StateMachine, StateRef, Word,
                   backward_closure, pair, payload_suffix, reachable, recv,
                   send)

# -- session types ------------------------------------------------------------
#
# One representation serves global and local types.  A choice pairs each
# event with its continuation: paired events in a global type, one
# participant's sends or receives in a local type.


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


class TypeSyntaxError(ValueError):
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
    return _type_to_machine(g, "g")


def local_to_fsm(l: SessionType) -> StateMachine:
    """The state-machine reading of a local type."""
    return _type_to_machine(l, "l")


def _type_to_machine(term: SessionType, prefix: str) -> StateMachine:
    """The machine of a global or local type: states `prefix`1, 2, ...
    name the subterms in preorder."""
    counter = itertools.count(1)
    states: list[str] = []
    finals: set[str] = set()
    transitions: list = []
    binders: dict[str, str] = {}

    def visit(term: SessionType) -> str:
        sid = f"{prefix}{next(counter)}"
        states.append(sid)
        if isinstance(term, End):
            finals.add(sid)
        elif isinstance(term, Var):
            transitions.append((sid, None, binders[term.name]))
        elif isinstance(term, Rec):
            binders[term.var] = sid
            transitions.append((sid, None, visit(term.body)))
        else:
            for ev, cont in term.branches:
                transitions.append((sid, ev, visit(cont)))
        return sid

    initial = visit(term)
    return StateMachine(states, initial, finals, transitions)


# -- regular expressions ------------------------------------------------------


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


def regex_lang_upto(r: Regex, k: int) -> frozenset[Word]:
    """All finite words of the expression's language with <= k letters.

    Direct structural enumeration, independent of the derivative and
    machine constructions it serves as an oracle for.
    """
    def lang(r: Regex) -> frozenset[Word]:
        if isinstance(r, REmpty):
            return frozenset()
        if isinstance(r, REps):
            return frozenset({()})
        if isinstance(r, RLetter):
            return frozenset({tuple(r.event.letters())}) \
                if len(r.event.letters()) <= k else frozenset()
        if isinstance(r, RAlt):
            return lang(r.left) | lang(r.right)
        if isinstance(r, RCat):
            left, right = lang(r.left), lang(r.right)
            return frozenset(u + v for u in left for v in right
                             if len(u) + len(v) <= k)
        inner = lang(r.inner)
        words = {()}
        frontier = {()}
        while frontier:
            nxt = set()
            for u in frontier:
                for v in inner:
                    w = u + v
                    if v and len(w) <= k and w not in words:
                        words.add(w)
                        nxt.add(w)
            frontier = nxt
        return frozenset(words)

    return frozenset(w for w in lang(r) if len(w) <= k)


# -- marked expressions and choice classes ------------------------------------


def _positions(r: Regex, counter) -> "Regex":
    """Subscript every letter with a distinct index (Glushkov marking)."""
    if isinstance(r, RLetter):
        return RLetter(Event(r.event.kind, r.event.sender, r.event.receiver,
                             f"{r.event.label}#{next(counter)}", r.event.payload))
    if isinstance(r, RAlt):
        return RAlt(_positions(r.left, counter), _positions(r.right, counter))
    if isinstance(r, RCat):
        return RCat(_positions(r.left, counter), _positions(r.right, counter))
    if isinstance(r, RStar):
        return RStar(_positions(r.inner, counter))
    return r


def mark(r: Regex) -> Regex:
    return _positions(r, itertools.count(1))


def unmark(ev: Event) -> Event:
    label = ev.label.split("#")[0]
    return Event(ev.kind, ev.sender, ev.receiver, label, ev.payload)


def _last_letters(r: Regex) -> frozenset[Event]:
    if isinstance(r, (REmpty, REps)):
        return frozenset()
    if isinstance(r, RLetter):
        return frozenset({r.event})
    if isinstance(r, RAlt):
        return _last_letters(r.left) | _last_letters(r.right)
    if isinstance(r, RCat):
        lasts = _last_letters(r.right)
        if nullable(r.right):
            lasts |= _last_letters(r.left)
        return lasts
    return _last_letters(r.inner)


def _follow_sets(r: Regex) -> dict[Event, frozenset[Event]]:
    """Glushkov follow sets of a marked expression."""
    follow: dict[Event, set[Event]] = {}

    def visit(r: Regex) -> None:
        if isinstance(r, RAlt):
            visit(r.left)
            visit(r.right)
        elif isinstance(r, RCat):
            visit(r.left)
            visit(r.right)
            for a in _last_letters(r.left):
                follow.setdefault(a, set()).update(first_letters(r.right))
        elif isinstance(r, RStar):
            visit(r.inner)
            for a in _last_letters(r.inner):
                follow.setdefault(a, set()).update(first_letters(r.inner))

    visit(r)
    return {a: frozenset(s) for a, s in follow.items()}


def regex_choice_class(r: Regex) -> str:
    """Classify a marked expression's branching via first/follow sets.

    At every decision point (the first letters, and each letter's follow
    set) distinct marked letters must stay distinct after unmarking; for
    sender-driven choice the alternatives must further be sends by one
    participant, and for directed choice share the receiver too.
    """
    marked = mark(r)
    decision_points = [first_letters(marked)]
    decision_points.extend(_follow_sets(marked).values())
    return _classify_decision_points(decision_points)


def _classify_decision_points(decision_points: Iterable) -> str:
    """The choice class of a marked expression's decision points: sets
    of marked letters that may come next at one point of a run."""
    from .psm import DIRECTED, MIXED, NON_DETERMINISTIC, SENDER_DRIVEN
    directed = True
    sender_driven = True
    for letters in decision_points:
        if len(letters) <= 1:
            continue
        unmarked = [unmark(a) for a in sorted(letters, key=Event.sort_key)]
        if len(set(unmarked)) != len(unmarked):
            return NON_DETERMINISTIC
        if any(ev.kind == RECV for ev in unmarked) \
                or len({ev.sender for ev in unmarked}) != 1:
            sender_driven = directed = False
        elif len({ev.receiver for ev in unmarked}) != 1:
            directed = False
    if directed:
        return DIRECTED
    if sender_driven:
        return SENDER_DRIVEN
    return MIXED


def is_sender_driven_regex(r: Regex) -> bool:
    from .psm import DIRECTED, SENDER_DRIVEN
    return regex_choice_class(r) in (SENDER_DRIVEN, DIRECTED)


def regex_choice_class_bounded(r: Regex, k: int) -> str:
    """The prefix-based classification, bounded to words of length <= k.

    Enumerates prefixes of the marked language and inspects which marked
    letters can follow each prefix; agrees with the first/follow
    characterisation on star-free-enough samples.
    """
    marked = mark(r)
    words = regex_lang_upto(marked, k)
    prefixes: dict[Word, set[Event]] = {}
    for w in words:
        for i in range(len(w)):
            prefixes.setdefault(w[:i], set()).add(w[i])
    return _classify_decision_points(prefixes.values())


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


def psm_deriv(a: Event, machine: StateMachine) -> StateMachine:
    """The machine derivative for tree-shaped sink-final machines.

    The a-successor of the root becomes the new root with its subtree;
    every kept back edge to the removed root is replaced by a fresh copy
    of the whole machine, unrolling the loop once.
    """
    machine = machine.trim()
    root = machine.initial
    targets = [dst for ev, dst in machine.out(root) if ev == a]
    if not targets:
        raise ValueError(f"{a} is not a first letter of the machine")
    if len(targets) > 1:
        parts = [psm_deriv_rooted(machine, t) for t in targets]
        return _union_at_root(parts)
    return psm_deriv_rooted(machine, targets[0])


def psm_deriv_rooted(machine: StateMachine, new_root: str) -> StateMachine:
    root = machine.initial
    # Descendants of the new root along forward (labelled) edges;
    # epsilon transitions are the back edges.
    keep = reachable((new_root,), lambda q: [
        dst for ev, dst in machine.out(q) if ev is not None])

    copies = itertools.count(1)
    states = set(keep)
    finals = set(machine.finals & keep)
    transitions: list = []
    for s, e, d in machine.transitions:
        if s not in keep:
            continue
        if e is None and d == root:
            # Back edge to the removed root: splice in a copy of the machine.
            suffix = f"^{next(copies)}"
            renamed = machine.rename({q: q + suffix for q in machine.states})
            states |= renamed.states
            finals |= renamed.finals
            transitions.extend(renamed.transitions)
            transitions.append((s, None, renamed.initial))
        elif d in keep:
            transitions.append((s, e, d))
    if new_root == root:  # the a-edge looped straight back
        suffix = f"^{next(copies)}"
        renamed = machine.rename({q: q + suffix for q in machine.states})
        return renamed
    return StateMachine(states, new_root, finals, transitions).trim()


def _union_at_root(machines: list[StateMachine]) -> StateMachine:
    root = "u0"
    states = {root}
    finals: set[str] = set()
    transitions: list = []
    is_final = False
    for i, m in enumerate(machines):
        renamed = m.rename({q: f"{q}@{i}" for q in m.states})
        states |= renamed.states
        finals |= set(renamed.finals)
        transitions.extend(renamed.transitions)
        for ev, dst in renamed.out(renamed.initial):
            transitions.append((root, ev, dst))
        if renamed.initial in renamed.finals:
            is_final = True
    if is_final:
        finals.add(root)
    return StateMachine(states, root, finals, transitions).trim()


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


# -- structural predicates for tree-shaped machines ---------------------------


def _forward_levels(machine: StateMachine) -> Optional[dict]:
    """A level function decreasing along labelled transitions, if any."""
    levels: dict[str, int] = {}
    order: list[str] = []
    visiting: set[str] = set()

    def visit(q: str) -> bool:
        visiting.add(q)
        for ev, dst in machine.out(q):
            if ev is None:
                continue
            if dst in visiting:
                return False  # a labelled cycle admits no level function
            if dst not in levels:
                if not visit(dst):
                    return False
        visiting.discard(q)
        levels[q] = len(order)
        order.append(q)
        return True

    for q in sorted(machine.states):
        if q not in levels and not visit(q):
            return None
    return levels


def is_ancestor_recursive(machine: StateMachine) -> bool:
    """Labelled transitions descend a level function; epsilon transitions
    climb back to a state that can reach their source again."""
    machine = machine.trim()
    levels = _forward_levels(machine)
    if levels is None:
        return False
    for src, ev, dst in machine.transitions:
        if ev is not None:
            continue
        # dst must be an ancestor: reachable from the initial state
        # without src, and able to reach src again.
        if src not in reachable((dst,), lambda q: [
                d for _, d in machine.out(q)]):
            return False
    return True


def is_non_merging(machine: StateMachine) -> bool:
    """Every state has at most one incoming labelled transition."""
    machine = machine.trim()
    incoming: dict[str, int] = {}
    for _, ev, dst in machine.transitions:
        if ev is not None:
            incoming[dst] = incoming.get(dst, 0) + 1
    return all(count <= 1 for count in incoming.values())


def is_intermediate_recursion_free(machine: StateMachine) -> bool:
    """Branching states have labelled transitions only; epsilon back
    edges sit on their own single-exit states."""
    machine = machine.trim()
    for q in machine.states:
        outs = machine.out(q)
        if len(outs) > 1 and any(ev is None for ev, _ in outs):
            return False
    return True


def is_tree_shaped(machine: StateMachine) -> bool:
    return (machine.trim().is_dense() and is_ancestor_recursive(machine)
            and is_non_merging(machine)
            and is_intermediate_recursion_free(machine))


# -- machine to global and local types ----------------------------------------


class MixedChoiceState(ValueError):
    def __init__(self, state: str):
        super().__init__(f"state {state!r} mixes send and receive branches")
        self.state = state


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


# -- text formats --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<sym>[().+:]|rec\b)|(?P<word>[^\s().+:<>-]+)"
    r"|(?P<payload><[^>]*>))")


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise TypeSyntaxError(f"stray input at {text[pos:pos+20]!r}")
                break
            self.tokens.append(m.group().strip())
            pos = m.end()
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise TypeSyntaxError("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise TypeSyntaxError(f"expected {token!r}, got {got!r}")


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
    term = _parse_global(tokens)
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    _check_global(term)
    return term


def _parse_global(tokens: _Tokens) -> SessionType:
    token = tokens.next()
    if token == "0":
        return End()
    if token == "rec":
        var = tokens.next()
        tokens.expect(".")
        return Rec(var, _parse_global(tokens))
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
            if isinstance(term, Choice):
                flat.extend(term.branches)
            else:
                raise TypeSyntaxError("choice branches must start with a message")
        return Choice(tuple(flat))
    if tokens.peek() != "->":
        return Var(token)
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
    return Choice(((pair(sender, receiver, label, payload), cont),))


def parse_local_type(text: str, participant: str) -> SessionType:
    """Parse the local syntax of `participant`: `0`, `!q:m . L`,
    `?q:m . L`, `(+ L L )`, `(& L L )`, `rec X . L`, and `X`."""
    tokens = _Tokens(text.replace("!", " ! ").replace("?", " ? "))
    term = _parse_local(tokens, participant)
    if tokens.peek() is not None:
        raise TypeSyntaxError(f"trailing input {tokens.peek()!r}")
    return term


def _parse_local(tokens: _Tokens, participant: str) -> SessionType:
    token = tokens.next()
    if token == "0":
        return End()
    if token == "rec":
        var = tokens.next()
        tokens.expect(".")
        return Rec(var, _parse_local(tokens, participant))
    if token in ("!", "?"):
        peer = tokens.next()
        tokens.expect(":")
        label = tokens.next()
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
    return Var(token)
