"""Tests for the session calculus and its type system."""

import pytest

from amp.core import StateMachine, StateRef, recv, send
from amp.csm import Csm
from amp.typecheck import (Definition, Endpoint, NormalConfig, PCall, PEnd,
                           PPar, PRecv, PRes, PSend, Program, RErr, RQueue,
                           RecvBranch, SendBranch, StateRegistry,
                           TypeCheckError, Unit, Var, check_well_annotated,
                           normalize, progress_harness, reduce_config,
                           sf_typecheck, subject_reduction_harness,
                           typecheck_process, typecheck_runtime)

from .semantics import context_reduce


def inner_csm() -> Csm:
    return Csm({
        "p": StateMachine({"q0", "q1"}, "q0", {"q1"},
                          [("q0", send("p", "q", "l", "end"), "q1")]),
        "q": StateMachine({"q2", "q3"}, "q2", {"q3"},
                          [("q2", recv("p", "q", "l", "end"), "q3")]),
    })


def outer_csm() -> Csm:
    return Csm({
        "p": StateMachine({"q4", "q5", "q6"}, "q4", {"q5", "q6"},
                          [("q4", send("p", "r", "l1", StateRef("q0")), "q5"),
                           ("q4", send("p", "r", "l2", "end"), "q6")]),
        "r": StateMachine({"q7", "q8", "q9"}, "q7", {"q8", "q9"},
                          [("q7", recv("p", "r", "l1", StateRef("q0")), "q8"),
                           ("q7", recv("p", "r", "l2", "end"), "q9")]),
    })


def delegation_program(first_label: str = "l1") -> Program:
    """p either hands its inner capability to r, or finishes itself."""
    pp = PSend(Endpoint("s2", "p"), (
        SendBranch("r", first_label, Endpoint("s1", "p"), PEnd()),
        SendBranch("r", "l2", Unit(),
                   PSend(Endpoint("s1", "p"),
                         (SendBranch("q", "l", Unit(), PEnd()),)))))
    pq = PRecv(Endpoint("s1", "q"), (RecvBranch("p", "l", "x", PEnd()),))
    pr = PRecv(Endpoint("s2", "r"), (
        RecvBranch("p", "l1", "x",
                   PSend(Var("x"), (SendBranch("q", "l", Unit(), PEnd()),))),
        RecvBranch("p", "l2", "y", PEnd())))
    main = PRes("s1", "Inner", PRes("s2", "Outer", PPar((pp, pq, pr))))
    return Program({"Inner": inner_csm(), "Outer": outer_csm()},
                   [("Inner", "Outer")], {}, main)


def ping_program() -> Program:
    csm = Csm({
        "p": StateMachine({"a0", "a1", "a2"}, "a0", {"a2"},
                          [("a0", send("p", "q", "ping"), "a1"),
                           ("a1", recv("q", "p", "pong"), "a2")]),
        "q": StateMachine({"b0", "b1", "b2"}, "b0", {"b2"},
                          [("b0", recv("p", "q", "ping"), "b1"),
                           ("b1", send("q", "p", "pong"), "b2")]),
    })
    main = PRes("s", "Ping", PPar((
        PSend(Endpoint("s", "p"), (SendBranch("q", "ping", None,
              PRecv(Endpoint("s", "p"),
                    (RecvBranch("q", "pong", None, PEnd()),))),)),
        PRecv(Endpoint("s", "q"), (RecvBranch("p", "ping", None,
              PSend(Endpoint("s", "q"),
                    (SendBranch("p", "pong", None, PEnd()),))),)),
    )))
    return Program({"Ping": csm}, [], {}, main)


# -- runtime structure ---------------------------------------------------


def test_r2c_inserts_queues():
    # A restriction without a queue term has the empty queue.
    program = ping_program()
    assert isinstance(program.main, PRes)
    body = program.main.body
    assert not any(isinstance(part, RQueue) for part in body.parts)
    config = normalize(program.main)
    assert config.queue_of("s") == ()
    assert config == normalize(PRes("s", "Ping", PPar((body, RQueue("s", ())))))


def test_precongruence_axioms():
    p = PSend(Endpoint("s", "p"), (SendBranch("q", "m", None, PEnd()),))
    assert normalize(PPar((p, PEnd()))) == normalize(p)
    assert normalize(PPar((p, PPar((PEnd(), PEnd()))))) == normalize(p)
    # Dead restrictions dissolve.
    assert normalize(PRes("t", "A", RQueue("t", ()))) == normalize(PEnd())
    assert normalize(PRes("t", "A", PEnd())) == normalize(PEnd())
    # Scope extrusion: an unrelated thread moves out of the restriction.
    other = PSend(Endpoint("u", "p"), (SendBranch("q", "m", None, PEnd()),))
    nested = PRes("t", "A", PPar((other, RQueue("t", ()))))
    flat = PPar((other, PRes("t", "A", RQueue("t", ()))))
    assert normalize(nested) == normalize(flat)


def test_normalize_idempotent():
    config = normalize(delegation_program().main)
    assert normalize(config.to_term()) == config


def test_reduce_single_step_of_ping():
    program = ping_program()
    config = normalize(program.main)
    successors = reduce_config(config, program.defs)
    assert len(successors) == 1
    desc, succ = successors[0]
    assert "ping" in desc
    assert succ.queue_of("s") == ((("p", "q"), (("ping", None),)),)


def test_reduce_label_mismatch_yields_err():
    machine_p = StateMachine({"a0", "a1"}, "a0", {"a1"},
                             [("a0", send("p", "q", "wrong"), "a1")])
    queue = RQueue("s", ((("p", "q"), (("wrong", None),)),))
    receiver = PRecv(Endpoint("s", "q"),
                     (RecvBranch("p", "expected", None, PEnd()),))
    config = normalize(PRes("s", "X", PPar((receiver, queue))))
    successors = reduce_config(config, {})
    assert any(isinstance(t, RErr) for _, succ in successors
               for t in succ.threads)


def test_reduce_orphan_queue_yields_err():
    queue = RQueue("s", ((("p", "q"), (("m", None),)),))
    config = normalize(PRes("s", "X", queue))
    successors = reduce_config(config, {})
    assert successors and all(
        any(isinstance(t, RErr) for t in succ.threads)
        for _, succ in successors)


def test_empty_session_is_absorbed():
    config = normalize(PRes("s", "X", RQueue("s", ())))
    assert not config.sessions and not config.threads


# -- static typing -----------------------------------------------------------


def test_delegation_example_typechecks():
    typecheck_process(delegation_program())


def test_zero_under_live_capability_rejected():
    program = ping_program()
    bad = Program(program.csms, [], {}, PRes("s", "Ping", PEnd()))
    with pytest.raises(TypeCheckError):
        typecheck_process(bad)


def test_send_of_unknown_label_rejected():
    with pytest.raises(TypeCheckError):
        typecheck_process(delegation_program(first_label="l3"))


def test_receive_must_cover_all_branches():
    program = ping_program()
    # q only offers ping, fine; but p must not receive before sending.
    early = PRes("s", "Ping", PPar((
        PRecv(Endpoint("s", "p"), (RecvBranch("q", "pong", None, PEnd()),)),
        PRecv(Endpoint("s", "q"), (RecvBranch("p", "ping", None, PEnd()),)),
    )))
    with pytest.raises(TypeCheckError):
        typecheck_process(Program(program.csms, [], {}, early))


def test_linear_capability_cannot_be_shared():
    program = ping_program()
    send_ping = PSend(Endpoint("s", "p"),
                      (SendBranch("q", "ping", None, PEnd()),))
    shared = PRes("s", "Ping", PPar((send_ping, send_ping,
                                     PRecv(Endpoint("s", "q"),
                                           (RecvBranch("p", "ping", None,
                                                       PEnd()),)))))
    with pytest.raises(TypeCheckError):
        typecheck_process(Program(program.csms, [], {}, shared))


def test_defs_typed_against_signatures():
    program = ping_program()
    defs = {"Ask": Definition(("x",), PSend(Var("x"), (
        SendBranch("q", "ping", None,
                   PRecv(Var("x"), (RecvBranch("q", "pong", None,
                                               PEnd()),))),)))}
    theta = {"Ask": ("a0",)}
    main = PRes("s", "Ping", PPar((
        PCall("Ask", (Endpoint("s", "p"),)),
        PRecv(Endpoint("s", "q"), (RecvBranch("p", "ping", None,
              PSend(Endpoint("s", "q"),
                    (SendBranch("p", "pong", None, PEnd()),))),)),
    )))
    typecheck_process(Program(program.csms, [], defs, main, theta))
    with pytest.raises(TypeCheckError):
        bad_defs = {"Ask": Definition(("x",), PSend(Var("x"), (
            SendBranch("q", "pong", None, PEnd()),)))}
        typecheck_process(Program(program.csms, [], bad_defs, main, theta))


def test_state_registry_requires_distinct_states():
    csm = inner_csm()
    with pytest.raises(TypeCheckError):
        StateRegistry.build({"A": csm, "B": csm})


# -- runtime typing -----------------------------------------------------------


def test_initial_runtime_config_typable():
    program = delegation_program()
    report = typecheck_runtime(program, normalize(program.main))
    assert report.ok
    assert dict(report.chosen["s1"].states)["p"] == "q0"
    assert dict(report.chosen["s2"].states)["p"] == "q4"


def test_delegation_reduct_seeds_queue_type():
    program = delegation_program()
    config = normalize(program.main)
    delegating = [succ for desc, succ in reduce_config(config, {})
                  if "l1" in desc]
    assert delegating
    report = typecheck_runtime(program, delegating[0])
    assert report.ok
    chosen = report.chosen["s2"]
    assert chosen.queue(("p", "r")) == (("l1", "@q0"),)
    assert dict(chosen.states)["p"] == "q5"


def test_err_configuration_untypable():
    program = delegation_program()
    config = NormalConfig((), (), (RErr(),))
    report = typecheck_runtime(program, config)
    assert not report.ok


def test_unreachable_queue_contents_rejected():
    program = ping_program()
    # A pong in flight before any ping happened is unreachable.
    config = normalize(PRes("s", "Ping", PPar((
        PSend(Endpoint("s", "p"), (SendBranch("q", "ping", None,
              PRecv(Endpoint("s", "p"),
                    (RecvBranch("q", "pong", None, PEnd()),))),)),
        PRecv(Endpoint("s", "q"), (RecvBranch("p", "ping", None,
              PSend(Endpoint("s", "q"),
                    (SendBranch("p", "pong", None, PEnd()),))),)),
        RQueue("s", ((("q", "p"), (("pong", None),)),)),
    ))))
    report = typecheck_runtime(program, config)
    assert not report.ok


def test_typability_preserved_along_all_paths():
    """Exhaustive subject reduction on the delegation example."""
    program = delegation_program()
    typecheck_process(program)
    frontier = [normalize(program.main)]
    seen = set(frontier)
    while frontier:
        config = frontier.pop()
        assert typecheck_runtime(program, config).ok, str(config)
        assert not any(isinstance(t, RErr) for t in config.threads)
        for _, succ in reduce_config(config, program.defs):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert len(seen) > 4


# -- context reductions -------------------------------------------------------


def test_context_reduce_mirrors_machine():
    registry = StateRegistry.build({"Inner": inner_csm()})
    gamma = {Endpoint("s", "p"): "q0", Endpoint("s", "q"): "q2"}
    delta = {("s", "p", "q"): (), ("s", "q", "p"): ()}
    successors = context_reduce(registry, gamma, delta)
    assert len(successors) == 1
    new_gamma, new_delta = successors[0]
    assert new_gamma[Endpoint("s", "p")] == "q1"
    assert new_delta[("s", "p", "q")] == (("l", "#end"),)
    # Now the receive fires.
    further = context_reduce(registry, new_gamma, new_delta)
    assert len(further) == 1
    assert further[0][0][Endpoint("s", "q")] == "q3"
    assert further[0][1][("s", "p", "q")] == ()


def test_substitution_preserves_typability():
    """A variable binding and the substituted value type the same term."""
    from amp.typecheck import Checker, substitute
    program = delegation_program()
    registry = StateRegistry.build(program.csms)
    checker = Checker(registry, {})
    body = PSend(Var("x"), (SendBranch("q", "l", Unit(), PEnd()),))
    checker.check_process({Var("x"): "q0"}, body)
    value = Endpoint("s1", "p")
    checker.check_process({value: "q0"}, substitute(body, "x", value))


def test_precongruence_admissible_for_runtime_typing():
    """Structurally identified configurations type identically."""
    program = delegation_program()
    term = program.main
    shuffled = PPar((term, PEnd()))
    assert normalize(term) == normalize(shuffled)
    a = typecheck_runtime(program, normalize(term))
    b = typecheck_runtime(program, normalize(shuffled))
    assert a.ok and b.ok and a.chosen == b.chosen


def test_context_reductions_preserve_reachability():
    """Contexts seeded from a reachable configuration reduce only to
    contexts matching reachable configurations."""
    from amp.csm import explore as explore_csm
    registry = StateRegistry.build({"Inner": inner_csm()})
    reachable = {
        (config.states, config.channels)
        for config in explore_csm(inner_csm(), queue_cap=3).configs}

    def as_config_key(gamma, delta):
        states = tuple(sorted((ref.participant, state)
                              for ref, state in gamma.items()))
        channels = tuple(sorted(
            ((p, q), tuple((label, _strip(payload)) for label, payload in entry))
            for (s, p, q), entry in delta.items() if entry))
        return states, channels

    def _strip(key):
        return key

    gamma = {Endpoint("s", "p"): "q0", Endpoint("s", "q"): "q2"}
    delta = {("s", "p", "q"): (), ("s", "q", "p"): ()}
    frontier = [(gamma, delta)]
    seen = set()
    while frontier:
        g, d = frontier.pop()
        key = as_config_key(g, d)
        if key in seen:
            continue
        seen.add(key)
        assert key in reachable, key
        frontier.extend(context_reduce(registry, g, d))
    assert len(seen) == 3


def test_context_reduce_empty_when_blocked():
    registry = StateRegistry.build({"Inner": inner_csm()})
    gamma = {Endpoint("s", "q"): "q2"}
    delta = {("s", "p", "q"): ()}
    assert context_reduce(registry, gamma, delta) == []


# -- well-annotation and harnesses -------------------------------------------


def test_well_annotated_examples():
    report = check_well_annotated(inner_csm())
    assert report.deadlock_free and report.fer
    stuck = Csm({
        "p": StateMachine({"a"}, "a", set(),
                          [("a", recv("q", "p", "never"), "a")]),
        "q": StateMachine({"b"}, "b", {"b"}, []),
    })
    assert not check_well_annotated(stuck).deadlock_free


def test_fer_fails_for_unread_message():
    lossy = Csm({
        "p": StateMachine({"a0", "a1"}, "a0", {"a1"},
                          [("a0", send("p", "q", "m"), "a1")]),
        "q": StateMachine({"b0"}, "b0", {"b0"}, []),
    })
    report = check_well_annotated(lossy)
    assert not report.fer


def test_subject_reduction_harness_runs():
    report = subject_reduction_harness(delegation_program(), steps=30, seed=2)
    assert report.ok, report.failure
    assert report.steps


def test_harness_rejects_mutated_label_statically():
    with pytest.raises(TypeCheckError):
        subject_reduction_harness(delegation_program(first_label="l3"),
                                  steps=5, seed=0)


def test_sf_typecheck_and_progress():
    program = ping_program()
    report = sf_typecheck(program, normalize(program.main))
    assert report.ok
    walk = progress_harness(program)
    assert walk.ok, walk.failure
    assert len(walk.steps) == 4


def test_sf_rejects_two_sessions():
    program = delegation_program()
    report = sf_typecheck(program, normalize(program.main))
    assert not report.ok
    assert "one session" in report.error


def test_prefix_capability_errors():
    """Sends and receives look their subject up the same way."""
    from amp.typecheck import Checker
    checker = Checker(StateRegistry.build({"Inner": inner_csm()}), {})
    send_l = PSend(Var("x"), (SendBranch("q", "l", Unit(), PEnd()),))
    recv_l = PRecv(Var("x"), (RecvBranch("p", "l", "y", PEnd()),))
    for term, action in ((send_l, "send"), (recv_l, "receive")):
        with pytest.raises(TypeCheckError, match="no capability for x at"):
            checker.check_process({}, term)
        with pytest.raises(TypeCheckError, match=f"^x:unit cannot {action}$"):
            checker.check_process({Var("x"): "unit"}, term)
