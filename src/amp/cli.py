"""Command-line interface.

Every subcommand prints a human summary (or a machine-readable report
with --json) and exits 0 on success, 1 when the analysis is negative,
2 on usage errors, and 3 when a resource cap was hit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import sys
from pathlib import Path

from . import core, psm as psm_mod


def _deferred(name: str):
    """The module `amp.<name>`, put in `sys.modules` now but executed on
    the first access to one of its attributes, so that a command pays
    only for the modules it runs.  Every module stays listed in
    `sys.modules`, where tools that wrap amp's functions look for it."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


csm_mod = _deferred("csm")
encoding = _deferred("encoding")
fifo = _deferred("fifo")
program_mod = _deferred("program")
projection = _deferred("projection")
transform = _deferred("transform")
typecheck = _deferred("typecheck")

OK = 0
NEGATIVE = 1
USAGE = 2
RESOURCE = 3


def _emit(args, report: dict, summary: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in summary:
            print(line)


def _write(args, text: str) -> None:
    """`text` to the `-o` file, or to stdout without it."""
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")


def _cap_or_negative(exc: psm_mod.PsmError) -> int:
    """Exit 3 when exploration hit the configuration cap, else 1."""
    return RESOURCE if isinstance(exc, psm_mod.ConfigCapExceeded) else NEGATIVE


def _load_protocol(path: str) -> core.Compiled:
    """A `.gt` global type or a protocol-machine document, compiled."""
    text = Path(path).read_text()
    if path.endswith(".gt"):
        return transform.compile_global(transform.parse_global_type(text))
    return core.load_protocol(text)


def _load_bounds(path: str, form: core.Compiled) -> dict:
    """The channel bounds of a JSON object mapping channels of the
    compiled protocol, written `p>q`, to positive counts, or
    MalformedInput.  Every channel that `detected_channels` finds needs
    a bound."""
    channels = {ev.channel for ev in form.letters}
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise core.MalformedInput(f"malformed bounds: expected a JSON object, "
                                  f"got {type(raw).__name__}")
    bounds = {}
    for key, value in raw.items():
        channel = tuple(key.split(">"))
        if len(channel) != 2 or not all(channel):
            raise core.MalformedInput(
                f"malformed bounds: {key!r} is not a channel p>q")
        if channel not in channels:
            raise core.MalformedInput(
                f"malformed bounds: the protocol has no channel {key}")
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise core.MalformedInput(
                f"malformed bounds: {key} has bound {json.dumps(value)}, "
                f"not a positive count")
        bounds[channel] = value
    needed = sorted(psm_mod.detected_channels(form) - bounds.keys())
    if needed:
        raise core.MalformedInput(
            "malformed bounds: the protocol needs a bound on "
            + ", ".join(f"{p}>{q}" for p, q in needed))
    return bounds


def _analysis_report(form: core.Compiled, config_cap: int) -> dict:
    validated = psm_mod.validate(form, config_cap=config_cap)
    tame = psm_mod.is_tame(validated)
    return {
        "bound": validated.bound_total,
        "perChannelBounds": {f"{p}>{q}": b for (p, q), b
                             in (tame.bounds or {}).items()},
        # validate raises unless the machine is dense and has feasible
        # eventual reception
        "dense": True,
        "fer": True,
        "choiceClass": tame.choice,
        "sinkFinal": tame.sink_final,
        "tame": tame.tame,
    }


def _failed(args, exc: psm_mod.PsmError, error: str, what: str) -> int:
    """Report a validation failure with its witness, if it has one."""
    witness = exc.witness or ()
    _emit(args, {"error": error, "detail": str(exc),
                 "witness": [str(ev) for ev in witness]},
          [f"{what}: {exc}"]
          + ([f"witness: {fifo.format_word(witness)}"] if witness else []))
    return _cap_or_negative(exc)


def cmd_validate(args) -> int:
    try:
        report = _analysis_report(_load_protocol(args.file), args.config_cap)
    except psm_mod.UnboundedChannel as exc:
        return _failed(args, exc, "unbounded-channel", "unbounded channel")
    except psm_mod.PsmError as exc:
        return _failed(args, exc, type(exc).__name__,
                       "not a valid protocol machine")
    _emit(args, report, [
        f"buffer bound: {report['bound']} (per channel: "
        f"{report['perChannelBounds'] or 'none needed'})",
        f"dense: {report['dense']}  reception: {report['fer']}  "
        f"sink-final: {report['sinkFinal']}",
        f"choice: {report['choiceClass']}  tame: {report['tame']}",
    ])
    return OK


def cmd_classify(args) -> int:
    return cmd_validate(args)


def cmd_bounds(args) -> int:
    try:
        validated = psm_mod.validate(_load_protocol(args.file),
                                     config_cap=args.config_cap)
        bounds = psm_mod.infer_channel_bounds(validated)
    except psm_mod.ConfigCapExceeded as exc:
        return _failed(args, exc, "unbounded-channel", "unbounded channel")
    except psm_mod.UnboundedLoop as exc:
        _emit(args, {"error": "unbounded-loop", "detail": str(exc)},
              [f"no channel bounds: {exc}"])
        return NEGATIVE
    except psm_mod.PsmError as exc:
        _emit(args, {"error": type(exc).__name__, "detail": str(exc)},
              [str(exc)])
        return _cap_or_negative(exc)
    report = {"perChannelBounds": {f"{p}>{q}": b for (p, q), b in bounds.items()}}
    _emit(args, report, [f"channel bounds: {report['perChannelBounds'] or {}}"])
    return OK


def cmd_encode(args) -> int:
    validated = psm_mod.validate(_load_protocol(args.file))
    bounds = (psm_mod.infer_channel_bounds(validated) if args.bounds == "auto"
              else _load_bounds(args.bounds, validated.compiled))
    _write(args, core.dump_machine(
        encoding.encode_psm(validated.compiled, bounds).machine()))
    if args.output:
        print(f"encoded machine written to {args.output}")
    return OK


def cmd_decode_fsm(args) -> int:
    _write(args, core.dump_machine(encoding.decode_fsm(
        _load_protocol(args.file).source)))
    return OK


def cmd_project(args) -> int:
    try:
        result = projection.project_tame(_load_protocol(args.file))
    except projection.NotTame as exc:
        _emit(args, {"result": "NotTame", "detail": str(exc)},
              [f"not tame: {exc}"])
        return NEGATIVE
    except projection.NotProjectable as exc:
        _emit(args, {"result": "NotProjectable", "detail": str(exc)},
              [f"not projectable: {exc}"])
        return NEGATIVE
    summary = [
        "tame, projectable",
        f"channel bounds: {result.bounds or 'none needed'}",
        f"participants: {', '.join(result.csm.components)}",
    ]
    report = {
        "result": "ok",
        "bounds": {f"{p}>{q}": b for (p, q), b in result.bounds.items()},
        "boundedOnly": False,  # the conditions decide without a bound
        "validity": "subset projection conditions",
    }
    if args.strong:
        strong = projection.strong_report(result.csm)
        report["strong"] = strong.strong
        report["witnesses"] = [list(w) for w in strong.witnesses]
        summary.append(f"strong: {strong.strong}"
                       + (f" (witnesses: {strong.witnesses})"
                          if strong.witnesses else ""))
    if args.output:
        Path(args.output).write_text(csm_mod.dump_csm(result.csm))
        summary.append(f"projection written to {args.output}")
    _emit(args, report, summary)
    if args.strong and not report["strong"]:
        return NEGATIVE
    return OK


def cmd_check_csm(args) -> int:
    machine_csm = csm_mod.load_csm(Path(args.file).read_text())
    result = csm_mod.deadlock_verdict(machine_csm, queue_cap=args.queue_cap)
    data = {
        "configurations": result.configurations,
        "deadlocks": result.deadlocks,
        "softDeadlocks": result.soft_deadlocks,
        "truncated": result.truncated,
    }
    summary = [f"{result.configurations} configurations explored"
               + (" (truncated)" if result.truncated else ""),
               f"deadlocks: {result.deadlocks}  "
               f"soft deadlocks: {result.soft_deadlocks}"]
    if result.deadlocks:
        data["witness"] = fifo.format_word(result.witness)
        summary.append(f"deadlock witness: {fifo.show_word(result.witness)}")
    if args.against:
        validated = psm_mod.validate(_load_protocol(args.against))
        verdict = projection.check_against(validated, machine_csm, args.bound)
        data["projection"] = {"passed": verdict.passed,
                              "reasons": list(verdict.reasons),
                              "boundedOnly": verdict.bounded_only}
        # a failure gives its reasons; a bounded pass holds up to -K only
        note = "; ".join(verdict.reasons) or (
            f"words up to -K {args.bound}" if verdict.bounded_only else "")
        summary.append(f"projection check: {'pass' if verdict else 'fail'}"
                       + (f" ({note})" if note else ""))
    _emit(args, data, summary)
    negative = result.deadlocks or (
        args.against and not data["projection"]["passed"])
    return NEGATIVE if negative else OK


def cmd_simulate(args) -> int:
    machine_csm = csm_mod.load_csm(Path(args.file).read_text())
    trace = csm_mod.simulate(machine_csm, seed=args.seed,
                             max_steps=args.max_steps)
    _emit(args, {"trace": [str(ev) for ev in trace]},
          [fifo.show_word(trace)])
    return OK


def cmd_to_global(args) -> int:
    validated = psm_mod.validate(_load_protocol(args.file))
    if not validated.sum_one:
        _emit(args, {"error": "not-sum-one"},
              ["machine keeps more than one message in flight; "
               "global types cannot express it"])
        return NEGATIVE
    merged = encoding.merge_immediate_pairs(validated.compiled)
    if not merged.trim().is_sink_final():
        merged = transform.make_sink_final(merged)
    g = transform.psm_to_global_type(transform.tree_of(merged))
    _emit(args, {"global": str(g)}, [str(g)])
    if args.output:
        Path(args.output).write_text(str(g) + "\n")
    return OK


def cmd_from_global(args) -> int:
    g = transform.parse_global_type(Path(args.file).read_text())
    _write(args, core.dump_machine(transform.global_to_psm(g)))
    return OK


def cmd_to_local(args) -> int:
    form = _load_protocol(args.file)
    machine = form.source
    local_events = all(ev.kind != core.PAIR and ev.subject == args.participant
                       for ev in machine.alphabet())
    if not local_events:
        # A whole protocol: project it, then read off the component, which
        # exists for every participant of the trimmed protocol.
        if args.participant not in machine.trim().participants():
            _emit(args, {"error": "unknown-participant"},
                  [f"no participant {args.participant!r} in the protocol"])
            return USAGE
        try:
            result = projection.project_tame(form)
        except (projection.NotTame, projection.NotProjectable) as exc:
            _emit(args, {"error": type(exc).__name__, "detail": str(exc)},
                  [f"cannot project: {exc}"])
            return NEGATIVE
        machine = result.csm.components[args.participant]
    try:
        local = transform.fsm_to_local_type(machine, args.participant)
    except transform.MixedChoiceState as exc:
        _emit(args, {"error": "mixed-choice", "state": exc.state}, [str(exc)])
        return NEGATIVE
    _emit(args, {"local": str(local)}, [str(local)])
    return OK


def cmd_typecheck(args) -> int:
    try:
        return _typecheck(args)
    except typecheck.TypeCheckError as exc:
        # from parsing (the delegation order) or from the harness
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE


def _typecheck(args) -> int:
    path = Path(args.file)
    program = program_mod.parse_program(path.read_text(), base_dir=path.parent)
    try:
        typecheck.typecheck_process(program)
    except typecheck.TypeCheckError as exc:
        _emit(args, {"result": "ill-typed", "detail": str(exc)},
              [f"ill-typed: {exc}"])
        return NEGATIVE
    summary = ["well-typed"]
    report: dict = {"result": "ok"}
    if args.harness:
        failures = []
        for seed in range(args.seeds):
            h = typecheck.subject_reduction_harness(
                program, steps=args.steps, seed=seed)
            if not h.ok:
                failures.append({"seed": seed, "detail": h.failure})
        report["harness"] = {"seeds": args.seeds, "steps": args.steps,
                             "failures": failures}
        summary.append(f"harness: {args.seeds} seeds x {args.steps} steps, "
                       f"{len(failures)} failures")
        if failures:
            _emit(args, report, summary)
            return NEGATIVE
    _emit(args, report, summary)
    return OK


def cmd_dot(args) -> int:
    text = Path(args.file).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    # a machine's states are a list; a CSM maps participants to machines
    if isinstance(data, dict) and isinstance(data.get("states"), list):
        output = csm_mod.machine_to_dot(core.machine_from_json(data),
                                        name=Path(args.file).stem)
    elif isinstance(data, dict):
        output = csm_mod.csm_to_dot(csm_mod.csm_from_json(data),
                                    name=Path(args.file).stem)
    else:
        output = csm_mod.machine_to_dot(_load_protocol(args.file).source,
                                        name=Path(args.file).stem)
    _write(args, output)
    return OK


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="amp",
        description="Validate, project, transform, and type check "
                    "multiparty protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help: str, caps: bool = False):
        """The subcommand `func` runs, named after it, with the arguments
        every subcommand takes."""
        p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=help)
        p.add_argument("file", help="input file (.json machine, .gt global type)")
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable report only")
        if caps:
            p.add_argument("--config-cap", type=_count, default=1_000_000,
                           help="configuration exploration cap")
        p.set_defaults(func=func)
        return p

    command(cmd_validate, "certify a protocol machine", caps=True)
    command(cmd_classify, "report bounds and choice class", caps=True)
    command(cmd_bounds, "infer per-channel buffer bounds", caps=True)
    p = command(cmd_encode, "apply the forwarder encoding")
    p.add_argument("--bounds", default="auto",
                   help="'auto' or a JSON file of per-channel bounds")
    p.add_argument("-o", "--output")
    p = command(cmd_decode_fsm, "undo the forwarder relabelling")
    p.add_argument("-o", "--output")
    p = command(cmd_project, "project to a deadlock-free CSM")
    p.add_argument("--strong", action="store_true",
                   help="also require every component to be sink-final")
    p.add_argument("-K", "--bound", type=_count, default=6,
                   help="accepted for compatibility; the result does not "
                        "depend on it")
    p.add_argument("-o", "--output")
    p = command(cmd_check_csm, "explore a CSM for deadlocks")
    p.add_argument("--queue-cap", type=_count, default=8,
                   help="leave out sends that would grow a queue past this "
                        "length, and report the exploration truncated")
    p.add_argument("--against", help="protocol machine to compare against")
    p.add_argument("-K", "--bound", type=_count, default=6,
                   help="word length up to which --against compares the "
                        "CSM with the protocol, where the projection cannot "
                        "decide")
    p = command(cmd_simulate, "run one pseudorandom schedule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_count, default=100)
    p = command(cmd_to_global, "reconstruct a global type")
    p.add_argument("-o", "--output")
    p = command(cmd_from_global, "compile a global type to a machine")
    p.add_argument("-o", "--output")
    p = command(cmd_to_local, "read a local type off a machine")
    p.add_argument("--participant", required=True)
    p = command(cmd_typecheck, "type check a session program")
    p.add_argument("--harness", action="store_true",
                   help="also run the subject-reduction harness")
    p.add_argument("--steps", type=_count, default=30)
    p.add_argument("--seeds", type=_count, default=5)
    p = command(cmd_dot, "export a machine or CSM to DOT")
    p.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    """Run one command; the exit code.  The cyclic collector is off while it
    runs (its working set lives until it ends), and on after it if it was."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, core.MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE
    except psm_mod.PsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _cap_or_negative(exc)
    except (RecursionError, MemoryError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return RESOURCE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
