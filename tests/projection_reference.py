"""`minimize`, `_simple_cycles`, `infer_channel_bounds` and
`regex_to_psm` as they stood before minimisation became Hopcroft's
refinement, channel bounds were read off the configuration graph, the
cycle search was confined to strongly connected components and the
derivative expansion found its ancestors through a dict; `is_amicable`
and `project_tame` as they stood before projection was decided by the
subset projection conditions.  Kept as a test-only reference, verbatim
but for absolute imports, the memo that the library's `canon` takes,
here a fresh one per call, the names of the library functions that
`project_tame` calls, and the fields of the `ProjectionResult` it
returns, which no longer carries the validity report and the verdict.

These are the Moore refinement with one round per state on a chain, the
recursive simple-path and simple-cycle searches, which are exponential
in the number of branches, the ancestor scans with structural equality,
the amicability check over sender traces of bounded length and the
projection that accepts a candidate only after the bounded oracle
`csm.check_projection`.  `test_projection_layers.py` and
`test_projection_conditions.py` run them next to the library and
require equal machines, bounds, verdicts, exceptions and witnesses.
"""

from __future__ import annotations

import itertools

from amp.core import (SEND, Event, StateMachine, Word, expand_pairs,
                      payload_from_key, recv, send)
from amp.csm import Csm, check_projection
from amp.encoding import (channel_participants, decode_fsm, encode_psm,
                          machine_is_forwarding, parse_channel_participant)
from amp.projection import (NotProjectable, NotTame, ProjectionResult,
                            canonical_names, check_validity,
                            subset_construction)
from amp.projection import minimize as library_minimize
from amp.psm import (Psm, UnboundedLoop, _has_return_chain,
                     detected_channels, single_sender_branching, validate)
from amp.psm import infer_channel_bounds as library_infer_channel_bounds
from amp.transform import (Regex, brz_deriv, canon, first_letters, nullable,
                           regex_contains_eps, remove_eps)

from .semantics import is_channel_ordered


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


# -- amp.encoding -------------------------------------------------------------


def is_amicable(components: dict[str, StateMachine], bounds: dict,
                k: int = 8) -> bool:
    """Bounded sanity check that each forwarder can serve its sender.

    Requires forwarder machines to be structurally forwarding, sender
    languages to be channel-ordered, and every bounded trace's message
    sequence to be accepted by the forwarder's alternation.
    """
    from amp.core import maximal_traces_upto
    words: dict = {}  # sender -> its bounded traces, all channel-ordered
    for name, machine in components.items():
        cp = parse_channel_participant(name)
        if cp is None:
            continue
        if not machine_is_forwarding(machine, cp):
            return False
        sender_machine = components.get(cp.source)
        if sender_machine is None:
            continue
        traces = words.get(cp.source)
        if traces is None:
            traces = words[cp.source] = maximal_traces_upto(sender_machine, k)
            if not all(is_channel_ordered(word, bounds) for word in traces):
                return False
        for word in traces:
            msgs = [ev.message() for ev in word
                    if ev.kind == SEND and ev.receiver == name]
            run = []
            for label, payload in msgs:
                run.append(recv(cp.source, name, label, payload_from_key(payload)))
                run.append(send(name, cp.target, label, payload_from_key(payload)))
            if not _machine_accepts_prefix(machine, tuple(run)):
                return False
    return True


def _machine_accepts_prefix(machine: StateMachine, word: Word) -> bool:
    current = machine.eps_closure({machine.initial})
    for ev in word:
        nxt = {dst for q in current for e, dst in machine.out(q) if e == ev}
        if not nxt:
            return False
        current = machine.eps_closure(nxt)
    return True


# -- amp.projection -----------------------------------------------------------


def project_tame(source, *, k: int = 6) -> ProjectionResult:
    """Project a tame protocol machine to a deadlock-free CSM.

    Encodes bounded channels through forwarder participants, runs the
    subset construction for every participant, minimises, checks
    validity, decodes, and finally replays the bounded oracle against
    the source.  Raises NotTame when the structural gate fails
    (multi-sender branching, non-sink-final, no inferable bounds) and
    NotProjectable with a report when a candidate exists but is wrong.

    `check_validity` is a fast structural pre-filter over the subset
    machines; the bounded semantic oracle always runs afterwards and is
    what acceptance rests on.
    """
    psm = source if isinstance(source, Psm) else validate(source)
    machine = psm.machine.trim()

    if not machine.is_sink_final():
        raise NotTame("machine is not sink-final")
    ok, state = single_sender_branching(machine)
    if not ok:
        raise NotTame(f"state {state!r} branches on mixed or multi-sender actions")
    try:
        bounds = library_infer_channel_bounds(psm)
    except UnboundedLoop as exc:
        raise NotTame(f"no channel bounds: {exc}") from exc

    encoded = encode_psm(machine, bounds)
    participants = set(machine.participants())
    cps = channel_participants(bounds)

    projections = {p: library_minimize(subset_construction(encoded, p))
                   for p in sorted(participants)}
    cp_machines = {cp.name: library_minimize(subset_construction(encoded, cp.name))
                   for cp in cps}

    validity = check_validity({**projections, **cp_machines})
    if not validity.ok:
        participant, state, event = validity.violations[0]
        raise NotProjectable(f"check check_validity: state {state} of "
                             f"{participant} rejects {event}")

    if cps and not is_amicable({**projections, **cp_machines}, bounds, k=k + 2):
        raise NotProjectable("forwarder components are not amicable")

    # Distinct state names across components, so the CSM can type sessions.
    csm = Csm({p: canonical_names(decode_fsm(m), prefix=f"{p}_")
               for p, m in projections.items()})
    verdict = check_projection(psm, csm, k)
    if not verdict.passed:
        raise NotProjectable("; ".join(verdict.reasons))
    return ProjectionResult(csm, bounds, encoded)
