"""The session calculus's walkers, reduction, runtime typing and
harnesses as they stood before each job got one implementation, kept as
a test-only reference: verbatim but for absolute imports.

`test_typecheck_walkers.py` runs these next to `amp.typecheck` and
requires equal free names, terms, successor lists, typing reports and
harness reports.  The `theta`, `gamma` and `explore_cap` options are
kept here as they were, and so are `r2c` and `_session_terms`, which
the library no longer has.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Optional

from amp.core import queue_get, queue_set
from amp.csm import Configuration, explore, step
from amp.typecheck import (Checker, Definition, Endpoint, HarnessReport,
                           NormalConfig, PCall, PEnd, PPar, PRecv, PRes,
                           PSend, Program, RErr, RQueue, RecvBranch,
                           RuntimeTypingReport, SendBranch, SfReport,
                           StateRegistry, StuckCall, Term, TypeCheckError,
                           Unit, Var, _check_with_configs,
                           _contains_restriction, _queues_compatible,
                           check_well_annotated)


def r2c(term: Term) -> Term:
    """Insert an empty queue term beside every active restriction."""
    if isinstance(term, PPar):
        return PPar(tuple(r2c(p) for p in term.parts))
    if isinstance(term, PRes):
        return PRes(term.session, term.csm_name,
                    PPar((r2c(term.body), RQueue(term.session, ()))))
    return term


def _session_terms(config: NormalConfig, replace: Optional[dict] = None,
                   drop_queue: Optional[str] = None,
                   drop_session: Optional[str] = None) -> tuple:
    """Rebuild the restriction and queue terms for re-normalisation."""
    replace = replace or {}
    terms: list[Term] = []
    for name, csm_name in config.sessions:
        if name == drop_session:
            continue
        contents = replace.get(name)
        if contents is None:
            contents = config.queue_of(name) or ()
        inner: list[Term] = []
        if name != drop_queue:
            inner.append(RQueue(name, contents))
        terms.append(PRes(name, csm_name, PPar(tuple(inner))
                          if len(inner) != 1 else inner[0]))
    return tuple(terms)


def free_sessions(term: Term) -> frozenset[str]:
    if isinstance(term, Endpoint):
        return frozenset({term.session})
    if isinstance(term, (PEnd, RErr, Var, Unit)) or term is None:
        return frozenset()
    if isinstance(term, PSend):
        out = free_sessions(term.subject)
        for b in term.branches:
            out |= free_sessions(b.payload) | free_sessions(b.cont)
        return out
    if isinstance(term, PRecv):
        out = free_sessions(term.subject)
        for b in term.branches:
            out |= free_sessions(b.cont)
        return out
    if isinstance(term, PPar):
        return frozenset().union(*(free_sessions(p) for p in term.parts))
    if isinstance(term, PRes):
        return free_sessions(term.body) - {term.session}
    if isinstance(term, PCall):
        return frozenset().union(*(free_sessions(a) for a in term.args)) \
            if term.args else frozenset()
    if isinstance(term, RQueue):
        out = {term.session}
        for _, msgs in term.contents:
            for _, value in msgs:
                if isinstance(value, Endpoint):
                    out.add(value.session)
        return frozenset(out)
    raise AssertionError(term)


def free_refs(term: Term) -> frozenset:
    """Free channel references (variables and endpoints) of a term."""
    if isinstance(term, (Var, Endpoint)):
        return frozenset({term})
    if isinstance(term, (PEnd, RErr, Unit)) or term is None:
        return frozenset()
    if isinstance(term, PSend):
        out = free_refs(term.subject)
        for b in term.branches:
            out |= free_refs(b.payload) | free_refs(b.cont)
        return out
    if isinstance(term, PRecv):
        out = free_refs(term.subject)
        for b in term.branches:
            inner = free_refs(b.cont)
            if b.binder is not None:
                inner = inner - {Var(b.binder)}
            out |= inner
        return out
    if isinstance(term, PPar):
        return frozenset().union(*(free_refs(p) for p in term.parts))
    if isinstance(term, PRes):
        return frozenset(r for r in free_refs(term.body)
                         if not (isinstance(r, Endpoint)
                                 and r.session == term.session))
    if isinstance(term, PCall):
        out: frozenset = frozenset()
        for a in term.args:
            out |= free_refs(a)
        return out
    if isinstance(term, RQueue):
        out = set()
        for _, msgs in term.contents:
            for _, value in msgs:
                if isinstance(value, Endpoint):
                    out.add(value)
        return frozenset(out)
    raise AssertionError(term)


def substitute(term: Term, var: str, value) -> Term:
    """Replace the free variable `var` by a closed value."""
    def sub_ref(ref):
        if isinstance(ref, Var) and ref.name == var:
            return value
        return ref

    if isinstance(term, (PEnd, RErr, RQueue)):
        return term
    if isinstance(term, PSend):
        return PSend(sub_ref(term.subject), tuple(
            SendBranch(b.receiver, b.label,
                       sub_ref(b.payload) if isinstance(b.payload, Var)
                       else b.payload,
                       substitute(b.cont, var, value))
            for b in term.branches))
    if isinstance(term, PRecv):
        return PRecv(sub_ref(term.subject), tuple(
            RecvBranch(b.sender, b.label, b.binder,
                       b.cont if b.binder == var
                       else substitute(b.cont, var, value))
            for b in term.branches))
    if isinstance(term, PPar):
        return PPar(tuple(substitute(p, var, value) for p in term.parts))
    if isinstance(term, PRes):
        return PRes(term.session, term.csm_name,
                    substitute(term.body, var, value))
    if isinstance(term, PCall):
        return PCall(term.name, tuple(sub_ref(a) for a in term.args))
    raise AssertionError(term)


def _freshen(term: Term, suffix: str) -> Term:
    """Rename bound sessions and binders so unfoldings never collide."""
    def walk(term: Term, bound_sessions: dict, bound_vars: dict) -> Term:
        def ref(r):
            if isinstance(r, Var) and r.name in bound_vars:
                return Var(bound_vars[r.name])
            if isinstance(r, Endpoint) and r.session in bound_sessions:
                return Endpoint(bound_sessions[r.session], r.participant)
            return r

        if isinstance(term, (PEnd, RErr, RQueue)):
            return term
        if isinstance(term, PSend):
            return PSend(ref(term.subject), tuple(
                SendBranch(b.receiver, b.label,
                           ref(b.payload) if isinstance(b.payload, (Var, Endpoint))
                           else b.payload,
                           walk(b.cont, bound_sessions, bound_vars))
                for b in term.branches))
        if isinstance(term, PRecv):
            branches = []
            for b in term.branches:
                if b.binder is None:
                    branches.append(RecvBranch(
                        b.sender, b.label, None,
                        walk(b.cont, bound_sessions, bound_vars)))
                else:
                    fresh = b.binder + suffix
                    branches.append(RecvBranch(
                        b.sender, b.label, fresh,
                        walk(b.cont, bound_sessions,
                             {**bound_vars, b.binder: fresh})))
            return PRecv(ref(term.subject), tuple(branches))
        if isinstance(term, PPar):
            return PPar(tuple(walk(p, bound_sessions, bound_vars)
                              for p in term.parts))
        if isinstance(term, PRes):
            fresh = term.session + suffix
            return PRes(fresh, term.csm_name,
                        walk(term.body, {**bound_sessions, term.session: fresh},
                             bound_vars))
        if isinstance(term, PCall):
            return PCall(term.name, tuple(ref(a) for a in term.args))
        raise AssertionError(term)

    return walk(term, {}, {})


def normalize(term: Term) -> NormalConfig:
    """Apply the structural rules to a canonical form.

    Parallel composition is flattened and sorted, terminated threads
    vanish, active restrictions are hoisted (scope extrusion), and a
    restriction whose session has an empty queue and no users is
    dropped.
    """
    sessions: dict[str, str] = {}
    queues: dict[str, tuple] = {}
    threads: list[Term] = []

    def collect(term: Term) -> None:
        if isinstance(term, PEnd):
            return
        if isinstance(term, PPar):
            for p in term.parts:
                collect(p)
            return
        if isinstance(term, PRes):
            if term.session in sessions:
                raise ValueError(f"duplicate session binder {term.session}")
            sessions[term.session] = term.csm_name
            collect(term.body)
            return
        if isinstance(term, RQueue):
            contents = tuple(sorted((ch, msgs) for ch, msgs in term.contents
                                    if msgs))
            if term.session in queues:
                raise ValueError(f"duplicate queue for session {term.session}")
            queues[term.session] = contents
            return
        threads.append(term)

    collect(term)
    used = set()
    for t in threads:
        used |= free_sessions(t)
    for contents in queues.values():
        for _, msgs in contents:
            for _, value in msgs:
                if isinstance(value, Endpoint):
                    used.add(value.session)
    for name in list(sessions):
        if name not in used and not queues.get(name, ()):
            del sessions[name]
            queues.pop(name, None)
    return NormalConfig(
        tuple(sorted(sessions.items())),
        tuple(sorted((name, queues.get(name, ())) for name in sessions)),
        tuple(sorted(threads, key=str)),
    )


def reduce_config(config: NormalConfig, defs: Mapping[str, Definition],
                  unfold_depth: int = 0) -> list[tuple[str, NormalConfig]]:
    """All one-step successors, each with a short description.

    Outputs append to queues, inputs pop matching heads, process calls
    unfold and then must step, and the two error rules produce `err`:
    a receiver facing only mismatched queue heads, and a finished
    session with messages left behind.
    """
    successors: list[tuple[str, NormalConfig]] = []
    threads = list(config.threads)
    for i, thread in enumerate(threads):
        rest = threads[:i] + threads[i + 1:]
        if isinstance(thread, PCall):
            if thread.name not in defs:
                raise StuckCall(f"undefined process {thread.name}")
            if unfold_depth > 64:
                raise StuckCall(f"unguarded recursion through {thread.name}")
            d = defs[thread.name]
            if len(d.params) != len(thread.args):
                raise StuckCall(f"arity mismatch calling {thread.name}")
            unfolded = _freshen(d.body, f"~{unfold_depth + 1}")
            for param, arg in zip(d.params, thread.args):
                unfolded = substitute(unfolded, param, arg)
            inner = normalize(PPar(tuple(rest) + (unfolded,)
                                   + _session_terms(config)))
            for desc, succ in reduce_config(inner, defs, unfold_depth + 1):
                successors.append((desc, succ))
            continue
        if isinstance(thread, PSend) and isinstance(thread.subject, Endpoint):
            session = thread.subject.session
            sender = thread.subject.participant
            contents = config.queue_of(session)
            if contents is None:
                continue
            for b in thread.branches:
                channel = (sender, b.receiver)
                queue = queue_get(contents, channel)
                new_contents = queue_set(contents, channel,
                                          queue + ((b.label, b.payload),))
                succ = normalize(PPar(
                    tuple(rest) + (r2c(b.cont),)
                    + _session_terms(config, {session: new_contents})))
                successors.append(
                    (f"{thread.subject}!{b.label} to {b.receiver}", succ))
        if isinstance(thread, PRecv) and isinstance(thread.subject, Endpoint):
            session = thread.subject.session
            receiver = thread.subject.participant
            contents = config.queue_of(session)
            if contents is None:
                continue
            candidates = []
            mismatch_everywhere = True
            for b in thread.branches:
                channel = (b.sender, receiver)
                queue = queue_get(contents, channel)
                if not queue:
                    mismatch_everywhere = False
                    continue
                label, value = queue[0]
                if label == b.label:
                    mismatch_everywhere = False
                    candidates.append((b, channel, queue, value))
            for b, channel, queue, value in candidates:
                new_contents = queue_set(contents, channel, queue[1:])
                cont = b.cont if b.binder is None else substitute(
                    b.cont, b.binder, value)
                succ = normalize(PPar(
                    tuple(rest) + (r2c(cont),)
                    + _session_terms(config, {session: new_contents})))
                successors.append(
                    (f"{thread.subject}?{b.label} from {b.sender}", succ))
            if mismatch_everywhere and thread.branches:
                succ = normalize(PPar(
                    tuple(rest) + (RErr(),)
                    + _session_terms(config, drop_queue=session)))
                successors.append((f"{thread.subject} stuck: label mismatch",
                                   succ))
    for session, contents in config.queues:
        in_flight = any(isinstance(value, Endpoint) and value.session == session
                        for other, msgs_by_ch in config.queues if other != session
                        for _, msgs in msgs_by_ch for _, value in msgs)
        if contents and not in_flight and not any(
                session in free_sessions(t) for t in config.threads):
            succ = normalize(PPar(
                config.threads + (RErr(),)
                + _session_terms(config, drop_queue=session,
                                 drop_session=session)))
            successors.append((f"orphan messages in {session}", succ))
    unique: dict[NormalConfig, str] = {}
    for desc, succ in successors:
        unique.setdefault(succ, desc)
    return sorted(((desc, succ) for succ, desc in unique.items()),
                  key=lambda pair: str(pair[1]))


def typecheck_defs(program: Program,
                   theta: Optional[Mapping] = None) -> Checker:
    if theta is None:
        theta = program.theta
    registry = StateRegistry.build(program.csms)
    checker = Checker(registry, dict(theta))
    checker.check_defs(program.defs)
    return checker


def typecheck_process(program: Program, theta: Optional[Mapping] = None,
                      gamma: Optional[dict] = None) -> Checker:
    checker = typecheck_defs(program, theta)
    checker.check_process(dict(gamma or {}), program.main)
    return checker


def typecheck_runtime(program: Program, config_or_term,
                      theta: Optional[Mapping] = None,
                      explore_cap: int = 50_000) -> RuntimeTypingReport:
    """Type a runtime configuration with empty outer contexts.

    For every active session the checker picks a reachable machine
    configuration whose queue types match the concrete queue contents
    (labels pin them down), seeds the contexts from it, and then types
    queues and threads under the usual linear discipline, backtracking
    over the candidate configurations.
    """
    checker = typecheck_defs(program, theta)
    registry = checker.registry
    config = (config_or_term if isinstance(config_or_term, NormalConfig)
              else normalize(config_or_term))
    if any(isinstance(t, RErr) for t in config.threads):
        return RuntimeTypingReport(False, {}, "configuration contains err")

    candidates: list[list[tuple[str, Configuration]]] = []
    for name, csm_name in config.sessions:
        csm = registry.machines.get(csm_name)
        if csm is None:
            return RuntimeTypingReport(False, {}, f"unknown machine {csm_name}")
        concrete = config.queue_of(name) or ()
        max_len = max((len(m) for _, m in concrete), default=0)
        report = explore(csm, queue_cap=max(2, max_len + 1),
                         config_cap=explore_cap)
        matching = [c for c in report.configs
                    if _queues_compatible(registry, concrete, c)]
        if not matching:
            return RuntimeTypingReport(
                False, {}, f"no reachable configuration of {csm_name} matches "
                           f"the queues of session {name}")
        candidates.append([(name, c) for c in matching])

    last_error = "untypable"
    for choice in itertools.product(*candidates) if candidates else [()]:
        chosen = dict(choice)
        try:
            _check_with_configs(checker, config, chosen)
            return RuntimeTypingReport(True, chosen)
        except TypeCheckError as exc:
            last_error = str(exc)
    return RuntimeTypingReport(False, {}, last_error)


def subject_reduction_harness(program: Program, steps: int = 30,
                              seed: int = 0,
                              theta: Optional[Mapping] = None) -> HarnessReport:
    """Random reduction walk checking typability at every configuration.

    The starting process must typecheck with empty contexts; every
    reached configuration must typecheck as a runtime configuration and
    never contain `err`.
    """
    typecheck_process(program, theta)
    for name, csm in program.csms.items():
        annotation = check_well_annotated(csm)
        if not (annotation.deadlock_free and annotation.fer):
            return HarnessReport(False, [], f"machine {name} is not "
                                            f"deadlock-free with reception")
    rng = random.Random(seed)
    config = normalize(r2c(program.main))
    walk: list[str] = []
    for _ in range(steps):
        report = typecheck_runtime(program, config, theta)
        if not report.ok:
            return HarnessReport(False, walk,
                                 f"untypable after {walk}: {report.error}")
        if any(isinstance(t, RErr) for t in config.threads):
            return HarnessReport(False, walk, f"reached err after {walk}")
        successors = reduce_config(config, program.defs)
        if not successors:
            break
        desc, config = successors[rng.randrange(len(successors))]
        walk.append(desc)
    report = typecheck_runtime(program, config, theta)
    if not report.ok:
        return HarnessReport(False, walk,
                             f"untypable after {walk}: {report.error}")
    return HarnessReport(True, walk)


def sf_typecheck(program: Program, config_or_term,
                 theta: Optional[Mapping] = None) -> SfReport:
    """The restricted judgement: one session, one thread per participant.

    Each participant's thread is typed against its component of the one
    annotated machine, seeded from a reachable configuration matching
    the queues; threads may not open further sessions.
    """
    checker = typecheck_defs(program, theta)
    registry = checker.registry
    config = (config_or_term if isinstance(config_or_term, NormalConfig)
              else normalize(config_or_term))
    if len(config.sessions) != 1:
        return SfReport(False, error="exactly one session is required")
    (session, csm_name), = config.sessions
    csm = registry.machines[csm_name]
    if any(_contains_restriction(t) for t in config.threads):
        return SfReport(False, error="threads may not open new sessions")

    by_participant: dict[str, Term] = {}
    for thread in config.threads:
        owners = {ref.participant for ref in free_refs(thread)
                  if isinstance(ref, Endpoint) and ref.session == session}
        if len(owners) != 1:
            return SfReport(False, error=f"thread {thread} does not act for "
                                         f"exactly one participant")
        owner = owners.pop()
        if owner in by_participant:
            return SfReport(False, error=f"two threads for participant {owner}")
        by_participant[owner] = thread

    concrete = config.queue_of(session) or ()
    max_len = max((len(m) for _, m in concrete), default=0)
    report = explore(csm, queue_cap=max(2, max_len + 1))
    for machine_config in report.configs:
        if not _queues_compatible(registry, concrete, machine_config):
            continue
        states = dict(machine_config.states)
        try:
            for participant in csm.participants:
                state = states[participant]
                thread = by_participant.get(participant)
                if thread is None:
                    # A terminated participant's 0 thread was absorbed.
                    if not registry.end_state(state):
                        raise TypeCheckError(
                            f"{participant} has no thread but state {state} "
                            f"is not done")
                    continue
                gamma = {Endpoint(session, participant): state}
                checker.check_process(gamma, thread)
        except TypeCheckError:
            continue
        return SfReport(True, session, machine_config)
    return SfReport(False, error="no reachable configuration types the threads")


def progress_harness(program: Program, max_steps: int = 100,
                     theta: Optional[Mapping] = None) -> HarnessReport:
    """Whenever the seeded machine configuration can step, the process
    must step too, staying typable under the restricted judgement."""
    registry = StateRegistry.build(program.csms)
    config = normalize(r2c(program.main))
    # Peel the single restriction into the flat form sf_typecheck expects.
    walk: list[str] = []
    for _ in range(max_steps):
        if not config.sessions and not config.threads:
            break  # the session ran to completion and was absorbed
        report = sf_typecheck(program, config, theta)
        if not report.ok:
            return HarnessReport(False, walk, report.error)
        csm = registry.machines[dict(config.sessions)[report.session]]
        machine_moves = step(csm, report.config)
        successors = reduce_config(config, program.defs)
        if machine_moves and not successors:
            return HarnessReport(False, walk,
                                 "machine can step but the process is stuck")
        if not successors:
            break
        desc, config = successors[0]
        walk.append(desc)
    return HarnessReport(True, walk)
