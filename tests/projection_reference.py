"""`minimize`, `_simple_cycles`, `infer_channel_bounds` and
`regex_to_psm` as they stood before minimisation became Hopcroft's
refinement, channel bounds were read off the configuration graph, the
cycle search was confined to strongly connected components and the
derivative expansion found its ancestors through a dict.  Kept as a
test-only reference, verbatim but for absolute imports and the memo
that the library's `canon` takes, here a fresh one per call.

These are the Moore refinement with one round per state on a chain, the
recursive simple-path and simple-cycle searches, which are exponential
in the number of branches, and the ancestor scans with structural
equality.  `test_projection_layers.py` runs them next to the library
and requires equal machines, bounds, exceptions and witnesses.
"""

from __future__ import annotations

import itertools

from amp.core import SEND, Event, StateMachine, expand_pairs
from amp.projection import canonical_names
from amp.psm import (Psm, UnboundedLoop, _has_return_chain,
                     detected_channels)
from amp.transform import (Regex, brz_deriv, canon, first_letters, nullable,
                           regex_contains_eps, remove_eps)


# -- amp.projection -----------------------------------------------------------


def minimize(machine: StateMachine) -> StateMachine:
    """Merge language-equivalent states of a deterministic machine.

    Partition refinement with an implicit dead state; class names are
    derived from their members so the result is canonical.
    """
    machine = machine.trim()
    partition: dict[str, int] = {
        q: (1 if q in machine.finals else 0) for q in machine.states}
    while True:
        signature = {}
        for q in machine.states:
            moves = tuple(sorted((ev.sort_key() if ev is not None else (),
                                  partition[dst]) for ev, dst in machine.out(q)))
            signature[q] = (partition[q], moves)
        classes = {}
        for q in sorted(machine.states):
            classes.setdefault(signature[q], []).append(q)
        new_partition = {}
        for i, (_, members) in enumerate(sorted(classes.items(),
                                                key=lambda kv: kv[1][0])):
            for q in members:
                new_partition[q] = i
        if new_partition == partition:
            break
        partition = new_partition
    rename = {q: f"c{partition[q]}" for q in machine.states}
    transitions = {(rename[s], ev, rename[d]) for s, ev, d in machine.transitions}
    merged = StateMachine(set(rename.values()), rename[machine.initial],
                          {rename[q] for q in machine.finals}, transitions)
    return canonical_names(merged)


# -- amp.psm ------------------------------------------------------------------


def _simple_cycles(machine: StateMachine):
    """Yield simple cycles as lists of (src, event, dst) transitions."""
    order = sorted(machine.states)
    for root in order:
        # Only cycles whose smallest state is `root`, to avoid duplicates.
        path: list = []
        on_path = {root}

        def walk(q: str):
            for ev, dst in machine.out(q):
                if dst == root:
                    yield path + [(q, ev, dst)]
                elif dst > root and dst not in on_path:
                    on_path.add(dst)
                    path.append((q, ev, dst))
                    yield from walk(dst)
                    path.pop()
                    on_path.discard(dst)

        yield from walk(root)


def infer_channel_bounds(psm: Psm) -> dict:
    """Infer per-channel buffer bounds in three phases.

    Detect channels needing a bound; reject loops that send on a detected
    channel without a completed message chain from the receiver back to
    the sender; then bound each detected channel by its maximum backlog
    over loop-free paths from the initial state.
    """
    machine = expand_pairs(psm.machine).trim()
    detected = detected_channels(machine)
    if not detected:
        return {}

    cycles = list(_simple_cycles(machine))
    for p, q in sorted(detected):
        for cycle in cycles:
            events = [ev for _, ev, _ in cycle if ev is not None]
            if not any(ev.kind == SEND and ev.channel == (p, q) for ev in events):
                continue
            rotations = [events[i:] + events[:i] for i in range(len(events))]
            if not any(_has_return_chain(rot, q, p) for rot in rotations):
                witness = tuple(events)
                raise UnboundedLoop(
                    f"loop sends on channel {(p, q)} with no message chain "
                    f"from {q} back to {p}", witness)

    bounds = {ch: 0 for ch in detected}
    counts = {ch: 0 for ch in detected}

    def dfs(q: str, on_path: set[str]) -> None:
        for ev, dst in machine.out(q):
            if dst in on_path:
                continue
            delta = 0
            if ev is not None and ev.channel in detected:
                delta = 1 if ev.kind == SEND else -1
                counts[ev.channel] += delta
                bounds[ev.channel] = max(bounds[ev.channel], counts[ev.channel])
            on_path.add(dst)
            dfs(dst, on_path)
            on_path.discard(dst)
            if delta:
                counts[ev.channel] -= delta

    dfs(machine.initial, {machine.initial})
    return dict(sorted(bounds.items()))


# -- amp.transform ------------------------------------------------------------


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

    def attach(sid: str, a: Event, term: Regex, here: tuple) -> None:
        ancestor = next((anc for anc_term, anc in here if anc_term == term),
                        None)
        if ancestor is not None:
            hook = fresh()
            transitions.append((sid, a, hook))
            transitions.append((hook, None, ancestor))
        else:
            transitions.append((sid, a, expand(term, here)))

    def expand(term: Regex, path: tuple) -> str:
        sid = fresh()
        if nullable(term):
            finals.add(sid)
        here = path + ((term, sid),)
        for a in sorted(first_letters(term), key=Event.sort_key):
            derived = brz_deriv(a, term)
            assert derived is not None
            derived = canon(derived, {})
            if derived in [anc_term for anc_term, _ in here]:
                attach(sid, a, derived, here)
            elif nullable(derived) and first_letters(derived):
                stop = fresh()
                finals.add(stop)
                transitions.append((sid, a, stop))
                attach(sid, a, canon(remove_eps(derived), {}), here)
            else:
                attach(sid, a, derived, here)
        return sid

    root = expand(canon(r, {}), ())
    return StateMachine(states, root, finals, transitions)
