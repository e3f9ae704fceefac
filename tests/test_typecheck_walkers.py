"""Differential tests: the session calculus's shared walkers and the
runtime typing built on them against the copies they replaced.

`typecheck_reference` keeps the old free-name walkers, substitution,
renaming, normalisation, reduction, runtime typing and harnesses.  Free
names, terms, configurations, exceptions, successor lists and typing
and harness reports must be equal on random terms (binders that shadow
the substituted variable, nested restrictions, calls and endpoint
payloads in queues), on every configuration reachable within a few
steps in the shipped programs and on mutants of those configurations
that fail to type.  The programs under `tests/programs` fail the
harness on purpose: a machine that deadlocks, a label the machine does
not allow and an ill-typed definition.  The fourth, `gated.amp`, is a
walk that the reference's runtime typing rejects and the library's
accepts.
"""

import pickle
import random
from pathlib import Path

import pytest

from amp import cli, typecheck
from amp.program import parse_program
from amp.typecheck import (Definition, Endpoint, NormalConfig, PCall, PEnd,
                           PPar, PRecv, PRes, Program, PSend, RErr, RQueue,
                           RecvBranch, SendBranch, StuckCall, TypeCheckError,
                           Unit, Var, _freshen, free_refs, free_sessions,
                           normalize, progress_harness, reduce_config,
                           sf_typecheck, subject_reduction_harness,
                           substitute, typecheck_runtime)

from . import typecheck_reference as reference
from .typecheck_reference import r2c

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "protocols"
                   / "programs").glob("*.amp"))
FAILING_PROGRAMS = sorted((Path(__file__).resolve().parent / "programs")
                          .glob("*.amp"))

VARS = ("x", "y", "z")
SESSIONS = ("s", "t", "u")
PEERS = ("p", "q", "r")
LABELS = ("a", "b")

# Definitions for random calls; a call to R is stuck.
DEFS = {
    "P": Definition(("x",), PRecv(Var("x"), (
        RecvBranch("q", "a", "y", PSend(Var("y"), (
            SendBranch("r", "b", Var("x"), PCall("P", (Var("x"),))),))),
        RecvBranch("r", "b", None, PRes("s", "A", PEnd()))))),
    "Q": Definition(("x", "y"), PSend(Var("y"), (
        SendBranch("q", "a", Var("x"), PPar((
            PCall("P", (Var("y"),)),
            PRes("t", "A", PRecv(Endpoint("t", "p"), (
                RecvBranch("q", "a", "x", PEnd()),)))))),))),
}


def outcome(fn, *args):
    """The result of a call, or its exception as (type, message)."""
    try:
        return fn(*args)
    except (ValueError, StuckCall, TypeCheckError) as exc:
        return type(exc), str(exc)


def random_ref(rng: random.Random, var_share: float = 0.5):
    if rng.random() < var_share:
        return Var(rng.choice(VARS))
    return Endpoint(rng.choice(SESSIONS), rng.choice(PEERS))


def random_value(rng: random.Random):
    return rng.choice((None, Unit(), Endpoint(rng.choice(SESSIONS),
                                              rng.choice(PEERS))))


def random_process(rng: random.Random, depth: int = 4,
                   var_share: float = 0.5):
    """A process over few names, so binders shadow and sessions nest.
    Calls mostly match the arity of `DEFS`."""
    kind = rng.choice(("end", "call") if depth == 0 else
                      ("end", "call", "send", "recv", "recv", "par", "res"))
    if kind == "end":
        return PEnd()
    if kind == "call":
        name = rng.choice(("P", "Q", "R"))
        arity = (len(DEFS[name].params) if name in DEFS and rng.random() < 0.9
                 else rng.randrange(3))
        return PCall(name, tuple(rng.choice((Unit(), random_ref(rng, var_share)))
                                 for _ in range(arity)))
    if kind == "send":
        return PSend(random_ref(rng, var_share), tuple(
            SendBranch(rng.choice(PEERS), label,
                       rng.choice((None, Unit(), random_ref(rng, var_share))),
                       random_process(rng, depth - 1, var_share))
            for label in LABELS[:rng.randrange(1, 3)]))
    if kind == "recv":
        return PRecv(random_ref(rng, var_share), tuple(
            RecvBranch(rng.choice(PEERS), label,
                       rng.choice((None,) + VARS),
                       random_process(rng, depth - 1, var_share))
            for label in LABELS[:rng.randrange(1, 3)]))
    if kind == "par":
        return PPar(tuple(random_process(rng, depth - 1, var_share)
                          for _ in range(rng.randrange(2, 4))))
    return PRes(rng.choice(SESSIONS), "A",
                random_process(rng, depth - 1, var_share))


def random_queue(rng: random.Random, session: str) -> RQueue:
    channels = rng.sample([(p, q) for p in PEERS for q in PEERS if p != q],
                          rng.randrange(3))
    return RQueue(session, tuple(sorted(
        (channel, tuple((rng.choice(LABELS), random_value(rng))
                        for _ in range(rng.randrange(1, 3))))
        for channel in channels)))


def random_runtime(rng: random.Random):
    """A runtime term: distinct restrictions, each beside its own queue,
    around threads that mostly act on endpoints; queues may carry
    endpoints of the other sessions."""
    unused = list(SESSIONS)
    rng.shuffle(unused)

    def build(depth: int):
        if depth == 0 or not unused or rng.random() < 0.2:
            return random_process(rng, 3, var_share=0.15)
        session = unused.pop()
        return PRes(session, "A", PPar((random_queue(rng, session),) + tuple(
            build(depth - 1) for _ in range(rng.randrange(1, 4)))))

    return build(2)


def random_terms(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        pick = i % 5
        if pick == 3:
            yield random_queue(rng, rng.choice(SESSIONS))
        elif pick == 4:
            yield rng.choice((RErr(), PEnd()))
        elif pick == 2:
            yield random_runtime(rng)
        else:
            yield random_process(rng)


@pytest.mark.parametrize("seed", range(3))
def test_free_names_match_reference(seed):
    for term in random_terms(seed, 500):
        assert free_refs(term) == reference.free_refs(term), term
        assert free_sessions(term) == reference.free_sessions(term), term


def test_free_names_are_computed_once_per_term(monkeypatch, capsys):
    """`typecheck three_party.amp --harness` asks for the free names of
    the same terms again and again: each compound term computes them
    once and keeps them outside its fields, so it compares, hashes,
    prints and pickles as before."""
    calls, computed, seen = [], [], {}
    real = typecheck.free_refs

    def spy(term):
        if isinstance(term, (PSend, PRecv, PPar, PRes, PCall, RQueue)):
            calls.append(term)
            seen[id(term)] = term
            if not hasattr(term, "_free"):
                computed.append(id(term))
        return real(term)

    monkeypatch.setattr(typecheck, "free_refs", spy)
    path = next(p for p in PROGRAMS if p.name == "three_party.amp")
    assert cli.main(["typecheck", str(path), "--harness"]) == 0
    capsys.readouterr()
    assert sorted(computed) == sorted(seen)
    assert len(calls) > 2 * len(seen) > 200
    for term in seen.values():
        loaded = pickle.loads(pickle.dumps(term))
        assert not hasattr(loaded, "_free")
        assert loaded == term and hash(loaded) == hash(term)
        assert repr(loaded) == repr(term)


@pytest.mark.parametrize("seed", range(3))
def test_substitute_and_freshen_match_reference(seed):
    rng = random.Random(100 + seed)
    for term in random_terms(seed, 500):
        for var in VARS:
            value = rng.choice((Unit(), Endpoint(rng.choice(SESSIONS),
                                                 rng.choice(PEERS))))
            assert substitute(term, var, value) == \
                reference.substitute(term, var, value), (term, var)
        suffix = f"~{rng.randrange(1, 4)}"
        fresh = _freshen(term, suffix)
        assert fresh == reference._freshen(term, suffix), term
        assert str(fresh) == str(reference._freshen(term, suffix))


@pytest.mark.parametrize("seed", range(3))
def test_normalize_and_reduce_match_reference(seed):
    rng = random.Random(200 + seed)
    stepped = 0
    for _ in range(500):
        runtime = random_runtime(rng)
        config = outcome(normalize, runtime)
        assert config == outcome(reference.normalize, runtime), runtime
        if isinstance(config, tuple):
            continue
        successors = outcome(reduce_config, config, DEFS)
        assert successors == outcome(reference.reduce_config, config, DEFS)
        stepped += isinstance(successors, list) and bool(successors)
    assert stepped > 60


def reachable_configs(program, depth: int = 8, cap: int = 150):
    start = normalize(r2c(program.main))
    seen, frontier = [start], [start]
    for _ in range(depth):
        level = []
        for config in frontier:
            for _, succ in reduce_config(config, program.defs):
                if succ not in seen and len(seen) < cap:
                    seen.append(succ)
                    level.append(succ)
        frontier = level
    return seen


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_shipped_programs_reduce_and_type_like_reference(path):
    program = parse_program(path.read_text(), base_dir=path.parent)
    configs = reachable_configs(program)
    assert len(configs) > 1
    for config in configs:
        assert outcome(reduce_config, config, program.defs) == \
            outcome(reference.reduce_config, config, program.defs)
        assert typecheck_runtime(program, config) == \
            reference.typecheck_runtime(program, config), str(config)
        assert sf_typecheck(program, config) == \
            reference.sf_typecheck(program, config), str(config)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_shipped_program_harnesses_match_reference(path):
    program = parse_program(path.read_text(), base_dir=path.parent)
    for seed in range(3):
        for steps in (0, 3, 30):
            assert outcome(subject_reduction_harness, program, steps, seed) \
                == outcome(reference.subject_reduction_harness, program,
                           steps, seed)
    assert outcome(progress_harness, program) == \
        outcome(reference.progress_harness, program)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_shipped_program_harnesses_match_reference_at_21_seeds(path):
    program = parse_program(path.read_text(), base_dir=path.parent)
    for seed in range(21):
        assert outcome(subject_reduction_harness, program, 30, seed) == \
            outcome(reference.subject_reduction_harness, program, 30, seed)


def assert_gated_walk(new, old) -> None:
    """The reference explores `gated.amp`'s machine with queues one
    message longer than the longest queue of the configuration it types,
    so it fails the walk once q has read two of p's messages; the
    library matches against the machine's exact exploration and types
    the whole walk, which goes on where the reference's stopped."""
    assert not old.ok and new.ok
    assert new.steps[:len(old.steps)] == old.steps
    assert len(new.steps) > len(old.steps)


@pytest.mark.parametrize("path", FAILING_PROGRAMS, ids=lambda p: p.stem)
def test_failing_program_harnesses_match_reference(path):
    """Every walk of 30 steps fails, with the reference's failure string,
    and the same program fails alike when it is run again; the walks of
    `gated.amp`, which only the reference fails, pass."""
    program = parse_program(path.read_text(), base_dir=path.parent)
    gated = path.stem == "gated"
    for seed in range(3):
        for steps in (0, 30):
            new = outcome(subject_reduction_harness, program, steps, seed)
            old = outcome(reference.subject_reduction_harness, program,
                          steps, seed)
            if gated and steps:
                assert_gated_walk(new, old)
            else:
                assert new == old
        assert isinstance(new, tuple) or not new.ok or gated
    for _ in range(2):
        new = outcome(progress_harness, program)
        old = outcome(reference.progress_harness, program)
        if gated:
            assert_gated_walk(new, old)
        else:
            assert new == old
        config = normalize(r2c(program.main))
        assert outcome(typecheck_runtime, program, config) == \
            outcome(reference.typecheck_runtime, program, config)
        assert outcome(sf_typecheck, program, config) == \
            outcome(reference.sf_typecheck, program, config)


def count_calls(monkeypatch) -> dict:
    """The configurations that `reduce_config` (leaving out the calls it
    makes on itself to unfold process calls) and `typecheck_runtime`
    are called on, in call order."""
    calls: dict = {"reduced": [], "typed": []}
    reduce, runtime = typecheck.reduce_config, typecheck.typecheck_runtime

    def reduce_counted(config, defs, unfold_depth=0):
        if unfold_depth == 0:
            calls["reduced"].append(config)
        return reduce(config, defs, unfold_depth)

    def runtime_counted(program, config):
        calls["typed"].append(config)
        return runtime(program, config)

    monkeypatch.setattr(typecheck, "reduce_config", reduce_counted)
    monkeypatch.setattr(typecheck, "typecheck_runtime", runtime_counted)
    return calls


def shipped(name: str):
    path = PROGRAMS[0].parent / name
    return parse_program(path.read_text(), base_dir=path.parent)


def test_harness_reduces_and_types_each_configuration_once(monkeypatch):
    """Five walks of 30 steps on `tick_loop.amp` visit 26 configurations;
    each is typed once and each but the last reached is reduced once,
    and the walks equal the reference's."""
    program = shipped("tick_loop.amp")
    calls = count_calls(monkeypatch)
    reports = [subject_reduction_harness(program, 30, seed)
               for seed in range(5)]
    assert (len(calls["reduced"]), len(calls["typed"])) == (25, 26)
    assert len(set(calls["reduced"])) == 25
    assert len(set(calls["typed"])) == 26
    assert reports == [reference.subject_reduction_harness(program, 30, seed)
                       for seed in range(5)]
    assert all(report.ok and len(report.steps) == 30 for report in reports)


def test_progress_harness_reduces_through_the_same_cache(monkeypatch):
    """The progress harness reads the successors the subject-reduction
    harness computed, and computes none twice."""
    program = shipped("ping.amp")
    calls = count_calls(monkeypatch)
    walk = subject_reduction_harness(program, 30, 0)
    reduced = len(calls["reduced"])
    assert walk.ok and reduced == len(set(calls["reduced"]))
    for _ in range(2):
        assert progress_harness(program) == \
            reference.progress_harness(program)
    assert len(calls["reduced"]) == reduced


def test_a_stuck_call_raises_on_every_harness_run(monkeypatch):
    """A reduction that raises `StuckCall` is not kept: each harness run
    reduces the configuration again and raises again."""
    loop = shipped("tick_loop.amp")
    # Tick keeps its signature, so the program type checks, but has no
    # definition to unfold.
    stuck = Program(loop.csms, loop.order, {"Tock": loop.defs["Tock"]},
                    loop.main, loop.theta)
    calls = count_calls(monkeypatch)
    for run in (1, 2):
        with pytest.raises(StuckCall, match="undefined process Tick"):
            subject_reduction_harness(stuck, 30, 0)
        assert len(calls["reduced"]) == 2 * run - 1
        with pytest.raises(StuckCall, match="undefined process Tick"):
            progress_harness(stuck)
        assert len(calls["reduced"]) == 2 * run


def mutants(config):
    """Variants of a configuration that runtime typing should reject: an
    `err` thread, a missing thread, and each queue with its head message
    relabelled or given another payload."""
    yield NormalConfig(config.sessions, config.queues,
                       config.threads + (RErr(),))
    if config.threads:
        yield NormalConfig(config.sessions, config.queues, config.threads[1:])
    for at, (session, contents) in enumerate(config.queues):
        if not contents:
            continue
        (channel, ((label, value), *rest)), *others = contents
        for head in (("zz", value), (label, None if value else Unit())):
            queues = list(config.queues)
            queues[at] = (session, ((channel, (head, *rest)), *others))
            yield NormalConfig(config.sessions, tuple(queues), config.threads)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_runtime_typing_failures_match_reference(path):
    program = parse_program(path.read_text(), base_dir=path.parent)
    failed = 0
    for config in reachable_configs(program, depth=5, cap=60):
        for mutant in mutants(config):
            new = typecheck_runtime(program, mutant)
            assert new == reference.typecheck_runtime(program, mutant), \
                str(mutant)
            assert sf_typecheck(program, mutant) == \
                reference.sf_typecheck(program, mutant), str(mutant)
            failed += not new.ok
    assert failed > 0
