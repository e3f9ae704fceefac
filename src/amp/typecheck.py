"""The session pi-calculus: terms, reduction, and the CSM-based type
system for processes and runtime configurations.

Sessions are annotated with communicating state machines; the states of
those machines are the types of channel capabilities, so delegation is
just sending a capability whose type is a machine state.  The checker is
algorithmic: capability bindings are linear, discharged late (a final
state with no receive left can always be dropped), and the runtime rule
for restrictions searches the machine's reachable configurations,
pinned down by the concrete queue contents.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Optional, Union

from .core import (RECV, Record, SEND, StateMachine, StateRef,
                   fer_violation, payload_from_key, queue_get, queue_set)
from .csm import (Configuration, Csm, explore, is_final_config, step)

# The configuration cap of every exploration the type checker makes, and
# the queue cap under which a machine's well-annotation is checked.
CONFIG_CAP = 50_000
ANNOTATION_QUEUE_CAP = 4

# -- terms ---------------------------------------------------------------


class Var(Record):
    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class Endpoint(Record):
    __slots__ = ("session", "participant")
    def __init__(self, session: str, participant: str):
        self.session, self.participant = session, participant

    def __str__(self) -> str:
        return f"{self.session}[{self.participant}]"


ChanRef = Union[Var, Endpoint]


class Unit(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "unit"


Value = Union[Unit, Endpoint]


class PEnd(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "0"


class SendBranch(Record):
    __slots__ = ("receiver", "label", "payload", "cont")
    def __init__(self, receiver: str, label: str, payload, cont: "Term"):
        self.receiver, self.label = receiver, label
        self.payload, self.cont = payload, cont  # payload: ChanRef | Unit


class RecvBranch(Record):
    __slots__ = ("sender", "label", "binder", "cont")
    def __init__(self, sender: str, label: str, binder, cont: "Term"):
        self.sender, self.label = sender, label
        self.binder, self.cont = binder, cont  # binder: a name or None


class PSend(Record):
    __slots__ = ("subject", "branches", "_free")
    def __init__(self, subject: ChanRef, branches: tuple):
        self.subject, self.branches = subject, branches  # SendBranch, ...

    def __str__(self) -> str:
        parts = []
        for b in self.branches:
            arg = "" if b.payload is None else f"({b.payload})"
            parts.append(f"{self.subject}[{b.receiver}]!{b.label}{arg}. {b.cont}")
        return parts[0] if len(parts) == 1 else "(+ " + "  ".join(parts) + " )"


class PRecv(Record):
    __slots__ = ("subject", "branches", "_free")
    def __init__(self, subject: ChanRef, branches: tuple):
        self.subject, self.branches = subject, branches  # RecvBranch, ...

    def __str__(self) -> str:
        parts = []
        for b in self.branches:
            arg = "" if b.binder is None else f"({b.binder})"
            parts.append(f"{self.subject}[{b.sender}]?{b.label}{arg}. {b.cont}")
        return parts[0] if len(parts) == 1 else "(& " + "  ".join(parts) + " )"


class PPar(Record):
    __slots__ = ("parts", "_free")
    def __init__(self, parts: tuple):
        self.parts = parts

    def __str__(self) -> str:
        return "( " + " | ".join(str(p) for p in self.parts) + " )"


class PRes(Record):
    __slots__ = ("session", "csm_name", "body", "_free")
    def __init__(self, session: str, csm_name: str, body: "Term"):
        self.session, self.csm_name, self.body = session, csm_name, body

    def __str__(self) -> str:
        return f"new {self.session} : {self.csm_name} in {self.body}"


class PCall(Record):
    __slots__ = ("name", "args", "_free")
    def __init__(self, name: str, args: tuple):
        self.name, self.args = name, args  # args: ChanRef | Unit, ...

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


Msg = tuple  # (label, Value | None)


class RQueue(Record):
    __slots__ = ("session", "contents", "_free")
    def __init__(self, session: str, contents: tuple):
        # contents: (((p, q), (Msg, ...)), ...), non-empty, sorted
        self.session, self.contents = session, contents

    def queue(self, channel) -> tuple:
        return queue_get(self.contents, channel)

    def __str__(self) -> str:
        if not self.contents:
            return f"{self.session}<>"
        cells = "; ".join(
            f"{p}>{q}: " + ",".join(m[0] for m in msgs)
            for (p, q), msgs in self.contents)
        return f"{self.session}<{cells}>"


class RErr(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "err"


Term = Union[PEnd, PSend, PRecv, PPar, PRes, PCall, RQueue, RErr]


class Definition(Record):
    __slots__ = ("params", "body")
    def __init__(self, params: tuple, body: Term):
        self.params, self.body = params, body  # params: str, ...


class Program(Record):
    __slots__ = ("csms", "order", "defs", "main", "theta", "_checker")
    def __init__(self, csms: dict, order: list, defs: dict, main: Term,
                 theta: Optional[dict] = None):
        self.csms = csms    # name -> Csm
        self.order = order  # [(smaller, larger)] pairs of csm names
        self.defs, self.main = defs, main  # defs: name -> Definition
        self.theta = {} if theta is None else theta  # name -> parameter types
        # The program's checker, built on first use by `typecheck_defs`; a
        # program is not changed once it has been checked.
        self._checker: Optional[Checker] = None


# -- free names, substitution, renaming ------------------------------------


def _queued_endpoints(contents: tuple):
    """The endpoints carried as payloads by queued messages."""
    for _, msgs in contents:
        for _, value in msgs:
            if isinstance(value, Endpoint):
                yield value


def free_refs(term: Term) -> frozenset:
    """Free channel references (variables and endpoints) of a term,
    kept in a compound term's `_free` slot once computed."""
    if isinstance(term, (Var, Endpoint)):
        return frozenset({term})
    if isinstance(term, (PEnd, RErr, Unit)) or term is None:
        return frozenset()
    out = getattr(term, "_free", None)
    if out is not None:
        return out
    if isinstance(term, PSend):
        out = free_refs(term.subject)
        for b in term.branches:
            out |= free_refs(b.payload) | free_refs(b.cont)
    elif isinstance(term, PRecv):
        out = free_refs(term.subject)
        for b in term.branches:
            inner = free_refs(b.cont)
            if b.binder is not None:
                inner = inner - {Var(b.binder)}
            out |= inner
    elif isinstance(term, PPar):
        out = frozenset().union(*(free_refs(p) for p in term.parts))
    elif isinstance(term, PRes):
        out = frozenset(r for r in free_refs(term.body)
                        if not (isinstance(r, Endpoint)
                                and r.session == term.session))
    elif isinstance(term, PCall):
        out = frozenset().union(*(free_refs(a) for a in term.args))
    elif isinstance(term, RQueue):
        out = frozenset(_queued_endpoints(term.contents))
    else:
        raise AssertionError(term)
    term._free = out
    return out


def free_sessions(term: Term) -> frozenset[str]:
    """Sessions of the free endpoints, and a queue's own session."""
    sessions = frozenset(ref.session for ref in free_refs(term)
                         if isinstance(ref, Endpoint))
    return sessions | {term.session} if isinstance(term, RQueue) else sessions


def _rename(term: Term, refs: Mapping, sessions: Mapping,
            suffix: Optional[str]) -> Term:
    """Rename the free references of a term.

    A variable named in `refs` becomes its value there, and an endpoint
    of a session named in `sessions` moves to the new session name.
    Under a `suffix`, every binder and restricted session is renamed
    with it; otherwise they keep their names and shadow.
    """
    if suffix is None and not refs and not sessions:
        return term

    def ref(r):
        if isinstance(r, Var):
            return refs.get(r.name, r)
        if isinstance(r, Endpoint) and r.session in sessions:
            return Endpoint(sessions[r.session], r.participant)
        return r

    if isinstance(term, (PEnd, RErr, RQueue)):
        return term
    if isinstance(term, PSend):
        return PSend(ref(term.subject), tuple(
            SendBranch(b.receiver, b.label, ref(b.payload),
                       _rename(b.cont, refs, sessions, suffix))
            for b in term.branches))
    if isinstance(term, PRecv):
        branches = []
        for b in term.branches:
            binder, inner = b.binder, refs
            if binder is not None:
                binder, inner = _bind(refs, binder, suffix, Var)
            branches.append(RecvBranch(b.sender, b.label, binder,
                                       _rename(b.cont, inner, sessions,
                                               suffix)))
        return PRecv(ref(term.subject), tuple(branches))
    if isinstance(term, PPar):
        return PPar(tuple(_rename(p, refs, sessions, suffix)
                          for p in term.parts))
    if isinstance(term, PRes):
        session, inner = _bind(sessions, term.session, suffix, str)
        return PRes(session, term.csm_name,
                    _rename(term.body, refs, inner, suffix))
    if isinstance(term, PCall):
        return PCall(term.name, tuple(ref(a) for a in term.args))
    raise AssertionError(term)


def _bind(renaming: Mapping, name: str, suffix: Optional[str], wrap):
    """A binder's new name, and the renaming that holds under it."""
    if suffix is None:
        return name, {k: v for k, v in renaming.items() if k != name}
    fresh = name + suffix
    return fresh, {**renaming, name: wrap(fresh)}


def substitute(term: Term, var: str, value) -> Term:
    """Replace the free variable `var` by a closed value."""
    return _rename(term, {var: value}, {}, None)


def _freshen(term: Term, suffix: str) -> Term:
    """Rename bound sessions and binders so unfoldings never collide."""
    return _rename(term, {}, {}, suffix)


# -- runtime configurations -------------------------------------------------


class NormalConfig(Record):
    """Canonical multiset form of a runtime configuration: all active
    restrictions hoisted to the top, queues indexed by session."""

    __slots__ = ("sessions", "queues", "threads")
    def __init__(self, sessions: tuple, queues: tuple, threads: tuple):
        self.sessions = sessions  # ((name, csm_name), ...) sorted
        self.queues = queues      # ((name, contents), ...) sorted
        self.threads = threads    # sorted by display string

    def queue_of(self, session: str) -> Optional[tuple]:
        for name, contents in self.queues:
            if name == session:
                return contents
        return None

    def to_term(self) -> Term:
        parts = [RQueue(name, contents) for name, contents in self.queues]
        parts.extend(self.threads)
        if not parts:
            body: Term = PEnd()
        elif len(parts) == 1:
            body = parts[0]
        else:
            body = PPar(tuple(parts))
        for name, csm_name in reversed(self.sessions):
            body = PRes(name, csm_name, body)
        return body

    def __str__(self) -> str:
        return str(self.to_term())


def normalize(term: Term) -> NormalConfig:
    """Apply the structural rules to a canonical form.

    Parallel composition is flattened and sorted, terminated threads
    vanish, active restrictions are hoisted (scope extrusion), a
    restriction without a queue term has the empty queue, and a
    restriction whose session has an empty queue and no users is
    dropped.
    """
    return _configuration(term, (), {}, ())


def _configuration(term: Term, sessions: tuple, queues: Mapping,
                   threads: tuple) -> NormalConfig:
    """The normal form of `term` beside a normal form's restrictions
    `sessions`, their queues (by session) and its threads."""
    new_sessions: dict[str, str] = {}
    new_queues: dict[str, tuple] = {}
    new_threads: list[Term] = list(threads)

    def collect(term: Term) -> None:
        if isinstance(term, PPar):
            for p in term.parts:
                collect(p)
        elif isinstance(term, PRes):
            _add(new_sessions, "session binder", term.session, term.csm_name)
            collect(term.body)
        elif isinstance(term, RQueue):
            _add(new_queues, "queue for session", term.session, tuple(sorted(
                (ch, msgs) for ch, msgs in term.contents if msgs)))
        elif not isinstance(term, PEnd):
            new_threads.append(term)

    # The new term first, so that a binder clashing with the given
    # sessions names the first of them in sorted order.
    collect(term)
    for name, csm_name in sessions:
        _add(new_sessions, "session binder", name, csm_name)
        _add(new_queues, "queue for session", name, queues[name])
    idle = [name for name in new_sessions if not new_queues.get(name, ())]
    if idle:
        used = _named_sessions(new_threads, new_queues.items())
        for name in idle:
            if name not in used:
                del new_sessions[name]
                new_queues.pop(name, None)
    return NormalConfig(
        tuple(sorted(new_sessions.items())),
        tuple(sorted((name, new_queues.get(name, ()))
                     for name in new_sessions)),
        tuple(sorted(new_threads, key=str)),
    )


def _add(table: dict, what: str, name: str, value) -> None:
    if name in table:
        raise ValueError(f"duplicate {what} {name}")
    table[name] = value


def _named_sessions(threads, queues) -> set:
    """The sessions the threads name, and those whose endpoints wait in
    another session's queue ((session, contents) pairs)."""
    used = set()
    for t in threads:
        used |= free_sessions(t)
    for name, contents in queues:
        used.update(ref.session for ref in _queued_endpoints(contents)
                    if ref.session != name)
    return used


class StuckCall(ValueError):
    pass


def reduce_config(config: NormalConfig, defs: Mapping[str, Definition],
                  unfold_depth: int = 0) -> list[tuple[str, NormalConfig]]:
    """All one-step successors, each with a short description.

    Outputs append to queues, inputs pop matching heads, process calls
    unfold and then must step, and the two error rules produce `err`:
    a receiver facing only mismatched queue heads, and a finished
    session with messages left behind.  Each successor is the
    configuration's other threads, its sessions and its queues (one of
    them changed) around the one new term.
    """
    successors: list[tuple[str, NormalConfig]] = []
    queues = dict(config.queues)
    threads = config.threads
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
            inner = _configuration(unfolded, config.sessions, queues, rest)
            successors.extend(reduce_config(inner, defs, unfold_depth + 1))
            continue
        if not isinstance(thread, (PSend, PRecv)) \
                or not isinstance(thread.subject, Endpoint):
            continue
        session, me = thread.subject.session, thread.subject.participant
        contents = queues.get(session)
        if contents is None:
            continue

        def moved(cont: Term, new_contents: tuple) -> NormalConfig:
            return _configuration(cont, config.sessions,
                                  {**queues, session: new_contents}, rest)

        if isinstance(thread, PSend):
            for b in thread.branches:
                channel = (me, b.receiver)
                queue = queue_get(contents, channel) + ((b.label, b.payload),)
                desc = f"{thread.subject}!{b.label} to {b.receiver}"
                successors.append((desc, moved(
                    b.cont, queue_set(contents, channel, queue))))
        else:
            mismatch_everywhere = bool(thread.branches)
            for b in thread.branches:
                channel = (b.sender, me)
                queue = queue_get(contents, channel)
                if queue and queue[0][0] != b.label:
                    continue
                mismatch_everywhere = False
                if queue:
                    cont = b.cont if b.binder is None else substitute(
                        b.cont, b.binder, queue[0][1])
                    desc = f"{thread.subject}?{b.label} from {b.sender}"
                    successors.append((desc, moved(
                        cont, queue_set(contents, channel, queue[1:]))))
            if mismatch_everywhere:
                successors.append((f"{thread.subject} stuck: label mismatch",
                                   moved(RErr(), ())))
    used = _named_sessions(threads, config.queues)
    for session, contents in config.queues:
        if contents and session not in used:
            succ = _configuration(
                RErr(), tuple(s for s in config.sessions if s[0] != session),
                {name: c for name, c in config.queues if name != session},
                threads)
            successors.append((f"orphan messages in {session}", succ))
    unique: dict[NormalConfig, str] = {}
    for desc, succ in successors:
        unique.setdefault(succ, desc)
    return sorted(((desc, succ) for succ, desc in unique.items()),
                  key=lambda pair: str(pair[1]))


# -- the type system ----------------------------------------------------------


class TypeCheckError(Exception):
    pass


Type = Union[str, None]  # a machine state id, or a base-type name


class StateRegistry(Record):
    """All states of a program's annotated machines, with their owners."""

    __slots__ = ("owner", "machines")
    def __init__(self, owner: dict, machines: dict):
        self.owner = owner        # state -> (csm name, participant)
        self.machines = machines  # csm name -> Csm

    @classmethod
    def build(cls, csms: Mapping[str, Csm]) -> "StateRegistry":
        owner: dict = {}
        for name, csm in sorted(csms.items()):
            for participant, machine in csm.components.items():
                for q in sorted(machine.states):
                    if q in owner:
                        raise TypeCheckError(
                            f"state {q!r} appears in both {owner[q][0]} "
                            f"and {name}; states must be globally distinct")
                    owner[q] = (name, participant)
        return cls(owner, dict(csms))

    def is_state(self, t: Type) -> bool:
        return t in self.owner

    def machine_of(self, state: str) -> StateMachine:
        name, participant = self.owner[state]
        return self.machines[name].components[participant]

    def participant_of(self, state: str) -> str:
        return self.owner[state][1]

    def transitions(self, state: str):
        return self.machine_of(state).out(state)

    def end_state(self, t: Type) -> bool:
        """Final with no outgoing receive; base types are always done."""
        if t is None or not self.is_state(t):
            return True
        machine = self.machine_of(t)
        return t in machine.finals and not any(
            ev is not None and ev.kind == RECV for ev, _ in machine.out(t))

    def payload_matches(self, payload_type, value) -> bool:
        if payload_type is None:
            return value is None
        if isinstance(payload_type, StateRef):
            return isinstance(value, Endpoint)
        return isinstance(value, Unit)


_MISSING = object()


class Checker(Record):
    __slots__ = ("registry", "theta", "_facts")
    def __init__(self, registry: StateRegistry, theta: dict):
        self.registry = registry
        self.theta = theta  # process name -> tuple of types
        # Facts about the program, each computed once, on first use: ()
        # for the main process, a machine's name for its well-annotation,
        # (machine name, queue cap) for its exploration, and ("successors",
        # c) and ("typed", c) for the successors and the runtime typing of
        # a configuration c.  A fact whose computation raises is not kept.
        self._facts: dict = {}

    def _once(self, key, compute):
        # one lookup per hit; the main process's fact is None, so a
        # sentinel marks a missing one
        fact = self._facts.get(key, _MISSING)
        if fact is _MISSING:
            fact = self._facts[key] = compute()
        return fact

    def _explored(self, csm_name: str, queue_cap: int):
        machine = self.registry.machines[csm_name]
        return self._once((csm_name, queue_cap), lambda: explore(
            machine, queue_cap=queue_cap, config_cap=CONFIG_CAP))

    def annotation(self, csm_name: str) -> "AnnotationReport":
        """What `check_well_annotated` says of one of the program's
        machines, read off the checker's exploration of it."""
        return self._once(csm_name, lambda: AnnotationReport.of(
            self.registry.machines[csm_name],
            self._explored(csm_name, ANNOTATION_QUEUE_CAP)))

    def matching_configs(self, csm_name: str, concrete: Optional[tuple]):
        """The reachable configurations of a machine whose queue types
        match the concrete queue contents of a session, in exploration
        order: all of them when the well-annotation exploration is
        exact, else those with queues at most one message longer than
        the longest concrete queue (and at least two)."""
        concrete = concrete or ()
        report = self._explored(csm_name, ANNOTATION_QUEUE_CAP)
        if report.truncated:
            max_len = max((len(m) for _, m in concrete), default=0)
            report = self._explored(csm_name, max(2, max_len + 1))
        return (c for c in report.configs
                if _queues_compatible(self.registry, concrete, c))

    def check_defs(self, defs: Mapping[str, Definition]) -> None:
        for name, d in sorted(defs.items()):
            if name not in self.theta:
                raise TypeCheckError(f"no signature for process {name}")
            sig = self.theta[name]
            if len(sig) != len(d.params):
                raise TypeCheckError(f"signature arity mismatch for {name}")
            if not isinstance(d.body, (PSend, PRecv)):
                raise TypeCheckError(f"definition {name} must be guarded")
            gamma = {Var(p): t for p, t in zip(d.params, sig)}
            self.check_process(gamma, d.body)

    # -- processes ------------------------------------------------------

    def check_process(self, gamma: dict, term: Term) -> None:
        """Check a process against a linear context of capability types."""
        if isinstance(term, PEnd):
            self._discharge(gamma, term)
        elif isinstance(term, PPar):
            self._split_parallel(gamma, term.parts)
        elif isinstance(term, PRes):
            self._enter_restriction(gamma, term)
        elif isinstance(term, PCall):
            self._check_call(gamma, term)
        elif isinstance(term, PSend):
            self._check_send(gamma, term)
        elif isinstance(term, PRecv):
            self._check_recv(gamma, term)
        elif isinstance(term, (RQueue, RErr)):
            raise TypeCheckError(f"runtime term {term} in a process position")
        else:
            raise AssertionError(term)

    def _discharge(self, gamma: dict, term: Term) -> None:
        for ref, t in sorted(gamma.items(), key=lambda kv: str(kv[0])):
            if not self.registry.end_state(t):
                raise TypeCheckError(
                    f"capability {ref}:{t} left unused at {term}")

    def _split_parallel(self, gamma: dict, parts) -> None:
        remaining = dict(gamma)
        claimed: dict = {}
        for part in parts:
            for ref in free_refs(part):
                if ref in claimed:
                    raise TypeCheckError(
                        f"capability {ref} shared between parallel branches")
                if ref in remaining:
                    claimed[ref] = part
        for part in parts:
            share = {ref: remaining.pop(ref) for ref in list(remaining)
                     if claimed.get(ref) is part}
            self.check_process(share, part)
        self._discharge(remaining, PPar(tuple(parts)))

    def _enter_restriction(self, gamma: dict, term: PRes) -> None:
        csm = self.registry.machines.get(term.csm_name)
        if csm is None:
            raise TypeCheckError(f"unknown machine {term.csm_name}")
        gamma = dict(gamma)
        for participant, machine in csm.components.items():
            ref = Endpoint(term.session, participant)
            if ref in gamma:
                raise TypeCheckError(f"shadowed endpoint {ref}")
            gamma[ref] = machine.initial
        self.check_process(gamma, term.body)

    def _check_call(self, gamma: dict, term: PCall) -> None:
        if term.name not in self.theta:
            raise TypeCheckError(f"unknown process {term.name}")
        sig = self.theta[term.name]
        if len(sig) != len(term.args):
            raise TypeCheckError(f"arity mismatch calling {term.name}")
        gamma = dict(gamma)
        for arg, expected in zip(term.args, sig):
            if isinstance(arg, Unit):
                if self.registry.is_state(expected):
                    raise TypeCheckError(
                        f"{term.name} expects capability of type {expected}, "
                        f"got unit")
                continue
            actual = gamma.pop(arg, None)
            if actual != expected:
                raise TypeCheckError(
                    f"argument {arg} has type {actual}, {term.name} "
                    f"expects {expected}")
        self._discharge(gamma, term)

    def _capability(self, gamma: dict, term: Union[PSend, PRecv],
                    action: str) -> tuple[str, str]:
        """The machine state typing the subject of a prefix, and its owner."""
        q = gamma.get(term.subject)
        if q is None:
            raise TypeCheckError(f"no capability for {term.subject} at {term}")
        if not self.registry.is_state(q):
            raise TypeCheckError(f"{term.subject}:{q} cannot {action}")
        return q, self.registry.participant_of(q)

    def _check_send(self, gamma: dict, term: PSend) -> None:
        q, sender = self._capability(gamma, term, "send")
        outs = {(ev.receiver, ev.label): (ev, dst)
                for ev, dst in self.registry.transitions(q)
                if ev is not None and ev.kind == SEND}
        payload_types: dict = {}
        for b in term.branches:
            hit = outs.get((b.receiver, b.label))
            if hit is None:
                raise TypeCheckError(
                    f"state {q} of {sender} does not allow sending "
                    f"{b.label} to {b.receiver}")
            ev, _ = hit
            if not self.registry.payload_matches(ev.payload, b.payload):
                raise TypeCheckError(
                    f"payload of {b.label} must have type {ev.payload}")
            if isinstance(b.payload, (Var, Endpoint)):
                expected = ev.payload.state
                actual = gamma.get(b.payload)
                if actual != expected:
                    raise TypeCheckError(
                        f"payload {b.payload} has type {actual}, message "
                        f"{b.label} carries {expected}")
                if b.payload in payload_types and \
                        payload_types[b.payload] != expected:
                    raise TypeCheckError(
                        f"payload {b.payload} used at two types")
                payload_types[b.payload] = expected
        base = {ref: t for ref, t in gamma.items()
                if ref != term.subject and ref not in payload_types}
        for b in term.branches:
            _, target = outs[(b.receiver, b.label)]
            ctx = dict(base)
            ctx[term.subject] = target
            for ref, t in payload_types.items():
                if ref != b.payload:
                    ctx[ref] = t
            self.check_process(ctx, b.cont)

    def _check_recv(self, gamma: dict, term: PRecv) -> None:
        q, receiver = self._capability(gamma, term, "receive")
        expected = {}
        for ev, dst in self.registry.transitions(q):
            if ev is None or ev.kind != RECV:
                raise TypeCheckError(
                    f"state {q} of {receiver} is not an external choice")
            expected[(ev.sender, ev.label)] = (ev, dst)
        offered = {(b.sender, b.label) for b in term.branches}
        if offered != set(expected):
            raise TypeCheckError(
                f"receive on {term.subject}:{q} offers {sorted(offered)} "
                f"but the machine requires {sorted(expected)}")
        base = {ref: t for ref, t in gamma.items() if ref != term.subject}
        for b in term.branches:
            ev, target = expected[(b.sender, b.label)]
            ctx = dict(base)
            ctx[term.subject] = target
            if ev.payload is None:
                if b.binder is not None:
                    raise TypeCheckError(
                        f"message {b.label} carries no payload to bind")
            else:
                if b.binder is None:
                    raise TypeCheckError(
                        f"message {b.label} carries a payload; bind it")
                ctx[Var(b.binder)] = (ev.payload.state
                                      if isinstance(ev.payload, StateRef)
                                      else ev.payload)
            self.check_process(ctx, b.cont)


def typecheck_defs(program: Program) -> Checker:
    """The program's checker, its definitions checked on first use."""
    if program._checker is None:
        checker = Checker(StateRegistry.build(program.csms),
                          dict(program.theta))
        checker.check_defs(program.defs)
        program._checker = checker
    return program._checker


def typecheck_process(program: Program) -> Checker:
    """The program's checker, its main process checked on first use."""
    checker = typecheck_defs(program)
    checker._once((), lambda: checker.check_process({}, program.main))
    return checker


# -- runtime typing ------------------------------------------------------------


class RuntimeTypingReport(Record):
    __slots__ = ("ok", "chosen", "error")
    def __init__(self, ok: bool, chosen: dict, error: Optional[str] = None):
        self.ok, self.error = ok, error
        self.chosen = chosen  # session -> Configuration


def typecheck_runtime(program: Program,
                      config: NormalConfig) -> RuntimeTypingReport:
    """Type a runtime configuration with empty outer contexts.

    For every active session the checker picks a reachable machine
    configuration whose queue types match the concrete queue contents
    (labels pin them down), seeds the contexts from it, and then types
    queues and threads under the usual linear discipline, backtracking
    over the candidate configurations.
    """
    checker = typecheck_defs(program)
    if any(isinstance(t, RErr) for t in config.threads):
        return RuntimeTypingReport(False, {}, "configuration contains err")

    candidates: list[list[tuple[str, Configuration]]] = []
    for name, csm_name in config.sessions:
        if csm_name not in checker.registry.machines:
            return RuntimeTypingReport(False, {}, f"unknown machine {csm_name}")
        matching = [(name, c) for c in checker.matching_configs(
            csm_name, config.queue_of(name))]
        if not matching:
            return RuntimeTypingReport(
                False, {}, f"no reachable configuration of {csm_name} matches "
                           f"the queues of session {name}")
        candidates.append(matching)

    last_error = "untypable"
    for choice in itertools.product(*candidates):
        chosen = dict(choice)
        try:
            _check_with_configs(checker, config, chosen)
            return RuntimeTypingReport(True, chosen)
        except TypeCheckError as exc:
            last_error = str(exc)
    return RuntimeTypingReport(False, {}, last_error)


def _queues_compatible(registry: StateRegistry, concrete: tuple,
                       machine_config: Configuration) -> bool:
    channels = {ch for ch, _ in concrete} | {ch for ch, _ in
                                             machine_config.channels}
    for channel in channels:
        actual = queue_get(concrete, channel)
        typed = machine_config.queue(channel)
        if len(actual) != len(typed):
            return False
        for (label, value), (tl, tp) in zip(actual, typed):
            if label != tl or not registry.payload_matches(
                    payload_from_key(tp), value):
                return False
    return True


def _check_with_configs(checker: Checker, config: NormalConfig,
                        chosen: Mapping[str, Configuration]) -> None:
    gamma = {Endpoint(name, participant): state
             for name, _ in config.sessions
             for participant, state in chosen[name].states}

    # Queue values consume capability bindings head-first.
    for name, _ in config.sessions:
        concrete = config.queue_of(name) or ()
        machine_config = chosen[name]
        for channel, msgs in concrete:
            typed = machine_config.queue(channel)
            for (label, value), (tl, tp) in zip(msgs, typed):
                payload = payload_from_key(tp)
                if isinstance(payload, StateRef):
                    actual = gamma.pop(value, None)
                    if actual != payload.state:
                        raise TypeCheckError(
                            f"queued capability {value} has type {actual}, "
                            f"queue type says {payload.state}")

    checker._split_parallel(gamma, config.threads)


# -- well-annotation ----------------------------------------------------------


class AnnotationReport(Record):
    __slots__ = ("deadlock_free", "fer")
    def __init__(self, deadlock_free: bool, fer: bool):
        self.deadlock_free, self.fer = deadlock_free, fer

    @classmethod
    def of(cls, csm: Csm, report) -> "AnnotationReport":
        """The verdicts on one exploration of `csm`."""
        return cls(not report.deadlocks, _csm_fer(csm, report))


def check_well_annotated(csm: Csm, *, queue_cap: int = ANNOTATION_QUEUE_CAP,
                         config_cap: int = CONFIG_CAP) -> AnnotationReport:
    """Deadlock freedom and feasible eventual reception for an annotated
    machine, on its exploration up to the caps."""
    return AnnotationReport.of(csm, explore(csm, queue_cap=queue_cap,
                                            config_cap=config_cap))


def _csm_fer(csm: Csm, report) -> bool:
    # Successors beyond the config cap are dropped.
    nodes = range(len(report))
    edges = [[(ev.channel if ev is not None and ev.kind == RECV else None, j)
              for ev, j in report.out(i) if j in nodes] for i in nodes]
    configs = report.configs
    finals = [i for i in nodes if is_final_config(csm, configs[i])]
    pending = ((i, ch, len(content)) for i in nodes
               for ch, content in configs[i].channels)
    return fer_violation(pending, edges.__getitem__, nodes, finals) is None


# -- harnesses ------------------------------------------------------------------


def _successors(program: Program, config: NormalConfig) -> list:
    """`reduce_config(config, program.defs)`, once per configuration."""
    return typecheck_defs(program)._once(
        ("successors", config), lambda: reduce_config(config, program.defs))


class HarnessReport(Record):
    __slots__ = ("ok", "steps", "failure")
    def __init__(self, ok: bool, steps: list, failure: Optional[str] = None):
        self.ok, self.steps, self.failure = ok, steps, failure


def subject_reduction_harness(program: Program, steps: int = 30,
                              seed: int = 0) -> HarnessReport:
    """Random reduction walk checking typability at every configuration.

    The starting process must typecheck with empty contexts; every
    reached configuration must typecheck as a runtime configuration and
    never contain `err`.  The program's checker keeps each
    configuration's typing and successors, so walks that meet again
    (other seeds included) do that work once.
    """
    checker = typecheck_process(program)
    for name in program.csms:
        annotation = checker.annotation(name)
        if not (annotation.deadlock_free and annotation.fer):
            return HarnessReport(False, [], f"machine {name} is not "
                                            f"deadlock-free with reception")
    rng = random.Random(seed)
    config = normalize(program.main)
    walk: list[str] = []
    while True:
        # Runtime typing rejects every configuration that contains err.
        report = checker._once(("typed", config),
                               lambda: typecheck_runtime(program, config))
        if not report.ok:
            return HarnessReport(False, walk,
                                 f"untypable after {walk}: {report.error}")
        if len(walk) >= steps:
            break
        successors = _successors(program, config)
        if not successors:
            break
        desc, config = successors[rng.randrange(len(successors))]
        walk.append(desc)
    return HarnessReport(True, walk)


# -- session fidelity and progress ------------------------------------------


class SfReport(Record):
    __slots__ = ("ok", "session", "config", "error")
    def __init__(self, ok: bool, session: Optional[str] = None,
                 config: Optional[Configuration] = None, error=None):
        self.ok, self.session = ok, session
        self.config, self.error = config, error


def _contains_restriction(term: Term) -> bool:
    if isinstance(term, PRes):
        return True
    if isinstance(term, (PSend, PRecv)):
        return any(_contains_restriction(b.cont) for b in term.branches)
    if isinstance(term, PPar):
        return any(_contains_restriction(p) for p in term.parts)
    return False


def sf_typecheck(program: Program, config: NormalConfig) -> SfReport:
    """The restricted judgement: one session, one thread per participant.

    Threads may not open further sessions.  Under those preconditions
    each reachable configuration of the one annotated machine that
    matches the queues is tried with the runtime judgement's own check,
    `_check_with_configs`: it types each thread against its
    participant's state, and a participant with no thread must be done.
    """
    checker = typecheck_defs(program)
    if len(config.sessions) != 1:
        return SfReport(False, error="exactly one session is required")
    (session, csm_name), = config.sessions
    if any(_contains_restriction(t) for t in config.threads):
        return SfReport(False, error="threads may not open new sessions")

    acting: set = set()
    for thread in config.threads:
        owners = {ref.participant for ref in free_refs(thread)
                  if isinstance(ref, Endpoint) and ref.session == session}
        if len(owners) != 1:
            return SfReport(False, error=f"thread {thread} does not act for "
                                         f"exactly one participant")
        owner = owners.pop()
        if owner in acting:
            return SfReport(False, error=f"two threads for participant {owner}")
        acting.add(owner)

    for machine_config in checker.matching_configs(
            csm_name, config.queue_of(session)):
        try:
            _check_with_configs(checker, config, {session: machine_config})
        except TypeCheckError:
            continue
        return SfReport(True, session, machine_config)
    return SfReport(False, error="no reachable configuration types the threads")


def progress_harness(program: Program, max_steps: int = 100) -> HarnessReport:
    """Whenever the seeded machine configuration can step, the process
    must step too, staying typable under the restricted judgement."""
    config = normalize(program.main)
    walk: list[str] = []
    for _ in range(max_steps):
        if not config.sessions and not config.threads:
            break  # the session ran to completion and was absorbed
        report = sf_typecheck(program, config)
        if not report.ok:
            return HarnessReport(False, walk, report.error)
        csm = program.csms[dict(config.sessions)[report.session]]
        machine_moves = step(csm, report.config)
        successors = _successors(program, config)
        if machine_moves and not successors:
            return HarnessReport(False, walk,
                                 "machine can step but the process is stuck")
        if not successors:
            break
        desc, config = successors[0]
        walk.append(desc)
    return HarnessReport(True, walk)
