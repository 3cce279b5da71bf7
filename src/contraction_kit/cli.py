"""contraction-kit: one executable for every pipeline in the package.

Subcommands: eval, verify, reduce, synthesize, power, bip, solve.  Exit codes
are a contract: 0 = pass/solved, 1 = violation-or-reject (or a failed
certificate / unconverged run), 2 = input error.  Reports embed input file
hashes and all witnesses verbatim and contain no timestamps, so identical
inputs yield identical reports.  CONTRACTION_KIT_SEED seeds randomized pair
suites.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cls as cls_mod
from . import converse, gridsearch, iteration, power, reduce as reduce_mod
from .circuit import (
    InputError,
    content_lines,
    format_fraction,
    parse_circuit,
    parse_fraction,
    parse_number,
)
from .library import as_point, l1, sq_l2

# every module's input error subclasses InputError; OSError is a path to read or
# write that is missing, a directory or not permitted
INPUT_ERRORS = (InputError, OSError)


def _read(path: str) -> tuple[str, str]:
    """The file's text and its ``input <path> sha256=<digest>`` report line, from one read.

    The digest is of the raw bytes.  The text is what
    ``Path.read_text(encoding="utf-8-sig")`` gives, universal newlines
    included: a leading UTF-8 byte-order mark is dropped, and ``\\r\\n`` and a
    lone ``\\r`` both become ``\\n``.  A decoding error names its position in
    the raw bytes, byte-order mark included.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text, f"input {path} sha256={hashlib.sha256(data).hexdigest()}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_eval(args) -> int:
    circ = parse_circuit(_read(args.circuit)[0])
    values = [parse_fraction(tok) for tok in args.inputs]
    # surplus CLI arguments are ignored so constant circuits accept any input
    outputs = circ.evaluate(values[: circ.input_arity])
    print(" ".join(format_fraction(v) for v in outputs))
    return 0


def cmd_verify(args) -> int:
    inst_text, inst_line = _read(args.instance)
    inst = cls_mod.parse_instance(inst_text)
    sol_text, sol_line = _read(args.solution)
    sol = cls_mod.parse_solution(sol_text)
    if sol.kind == "Oe" and inst.metric_promised:
        raise cls_mod.InstanceError("promise problem: Oe is not accepted by banach-met")
    verdict = cls_mod.verify(inst, sol)
    lines = [
        "command verify",
        inst_line,
        sol_line,
        f"problem {inst.tag}",
        f"kind {sol.kind}",
    ]
    for i, w in enumerate(sol.witnesses):
        lines.append(f"witness {i} " + " ".join(format_fraction(c) for c in w))
    if verdict.lhs is not None:
        lines.append(f"lhs {format_fraction(verdict.lhs)}")
        lines.append(f"rhs {format_fraction(verdict.rhs)}")
    lines.append(f"clause {verdict.clause}: {verdict.reason}")
    lines.append("verdict " + ("ACCEPT" if verdict.accepted else "REJECT"))
    _emit("\n".join(lines) + "\n", args.report)
    return 0 if verdict.accepted else 1


def cmd_reduce(args) -> int:
    text, input_line = _read(args.instance)
    inst = cls_mod.parse_instance(text)
    if args.direction == "banach-to-cls-local":
        if not isinstance(inst, cls_mod.BanachInstance):
            raise cls_mod.InstanceError("source instance must be banach/banach-met")
        if args.half_eps:
            raise InputError("--half-eps applies only to --direction cls-local-to-banach")
        artifacts = reduce_mod.reduce_banach_to_cls_local(inst)
    else:
        if not isinstance(inst, cls_mod.CLSLocalInstance):
            raise cls_mod.InstanceError("source instance must be cls-local")
        artifacts = reduce_mod.reduce_cls_local_to_banach(inst, half_eps=args.half_eps)
    produced = cls_mod.instance_to_text(artifacts.produced)
    sidecar = args.out + ".provenance"
    provenance = "command reduce\n" + input_line + "\n" + artifacts.provenance_text()
    opened: list[str] = []  # both files or neither: a failed write removes what this run opened
    try:
        for path, body in ((args.out, produced), (sidecar, provenance)):
            with open(path, "w", encoding="utf-8") as f:
                opened.append(path)
                f.write(body)
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise
    print(f"wrote {args.out} and {sidecar}")
    sys.stdout.write(provenance)
    return 0


def cmd_solve(args) -> int:
    inst = cls_mod.parse_instance(_read(args.instance)[0])
    sol = gridsearch.solve_instance(inst, parse_fraction(args.grid))
    if sol is None:
        print("no solution found on the grid", file=sys.stderr)
        return 1
    _emit(sol.to_text(), args.out)
    return 0


def cmd_synthesize(args) -> int:
    text, input_line = _read(args.selfmap)
    m = converse.parse_selfmap(text)
    c = parse_fraction(args.c)
    eps = parse_fraction(args.eps)
    try:
        result = converse.synthesize(m, c, eps)
    except converse.CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    text = "command synthesize\n" + input_line + "\n" + result.report_text()
    _emit(text, args.out)
    return 0


def cmd_power(args) -> int:
    if args.action == "counterexample":  # a fixed 2x2 system: the matrix file is not read
        p = math.inf if args.norm == "inf" else float(args.norm)
        report = power.lp_counterexample(p)
        lines = [
            "command power counterexample",
            f"norm l{args.norm}",
            f"x {report.x}",
            f"y {report.y}",
            f"d_before {report.d_before!r}",
            f"d_after {report.d_after!r}",
            f"ratio {report.ratio!r}",
            f"expanding {report.expanding}",
        ]
        _emit("\n".join(lines) + "\n", args.report)
        return 0 if report.expanding else 1
    # an overflow would otherwise surface as a warning and a misleading later error
    try:
        with np.errstate(over="raise"):
            return _power_on_matrix(args)
    except FloatingPointError as exc:
        raise power.SpectralError(f"matrix too large for float64 arithmetic: {exc}") from None


def _power_on_matrix(args) -> int:
    text, input_line = _read(args.matrix)
    sys_ = power.jacobi_eigensolve(power.parse_matrix(text))
    if args.action == "analyze":
        seed = parse_number(int, os.environ.get("CONTRACTION_KIT_SEED", "0"))
        if seed < 0:
            raise InputError(f"CONTRACTION_KIT_SEED must be nonnegative, got {seed}")
        cert = power.certify_contraction_rate(sys_, power.sample_pairs(sys_, args.pairs, seed))
        if args.format == "csv":
            _emit(cert.to_csv(), args.report)
        else:
            lines = [
                "command power analyze",
                input_line,
                f"seed {seed}",
                f"rate_bound {sys_.rate!r}",
                f"pairs {len(cert.pairs)}",
                f"max_ratio {cert.max_ratio!r}",
                f"violations {len(cert.violations)}",
            ]
            _emit("\n".join(lines) + "\n", args.report)
        return 0 if cert.ok else 1
    # bound
    if not args.x0:
        raise power.SpectralError("power bound needs --x0, a unit start vector such as 0.6,0.8")
    try:
        x0 = [float(t) for t in args.x0.split(",")]
    except ValueError as exc:
        raise power.SpectralError(f"--x0 must be comma-separated numbers: {exc}") from None
    if len(x0) != sys_.dimension:
        raise power.SpectralError(
            f"--x0 has {len(x0)} entries but the matrix has dimension {sys_.dimension}"
        )
    norm = math.hypot(*x0)
    if not abs(norm - 1.0) <= power.UNIT_TOL:
        raise power.SpectralError(f"--x0 is not a unit vector: its l2 norm is {norm!r}")
    eps = parse_number(float, args.eps, power.SpectralError)
    if not math.isfinite(eps):
        raise power.SpectralError(f"--eps must be finite, got {args.eps!r}")
    report = power.iteration_bound(sys_, x0, eps)
    lines = [
        "command power bound",
        input_line,
        f"predicted {report.predicted}",
        f"final_distance {report.final_distance!r}",
        f"final_l2_error {report.final_l2_error!r}",
        f"ok {report.ok}",
    ]
    _emit("\n".join(lines) + "\n", args.report)
    return 0 if report.ok else 1


def _bip_on_circuit(args, text: str, input_line: str) -> int:
    inst = cls_mod.parse_instance(text)
    eps = parse_fraction(args.eps)
    if isinstance(inst, cls_mod.ContractionMapInstance):
        dist, target = sq_l2, eps ** 2  # Euclidean compared in squared form
    elif isinstance(inst, cls_mod.BanachInstance):
        dist, target = inst.d, eps
    else:
        dist, target = l1, eps
    x0_text = "1,1,1" if args.x0 is None else args.x0
    x0 = as_point([parse_fraction(t) for t in x0_text.split(",")])
    max_iters = 1000 if args.max_iters is None else args.max_iters
    trace = iteration.run_bip(inst.f, x0, dist, target, max_iters)
    if args.csv:
        Path(args.csv).write_text(trace.to_csv(), encoding="utf-8")
    print(input_line)
    print(f"stop_reason {trace.stop_reason.value}")
    print(f"stop_index {trace.stop_index}")
    print(f"final_residual {format_fraction(trace.residuals[-1]) if trace.residuals else 0}")
    return 0 if trace.stop_reason is iteration.StopReason.RESIDUAL_BELOW_EPS else 1


def _bip_on_selfmap(args, text: str, input_line: str) -> int:
    """Every line is computed before the first is printed, so an input error prints none."""
    m = converse.parse_selfmap(text)
    eps = parse_fraction(args.eps)
    label = args.start or ""
    if label not in m.labels:
        raise converse.SelfMapError(f"unknown start label {label!r}")
    if eps <= 0:
        raise InputError("eps must be positive")
    start = m.labels.index(label)
    orbit = m.orbit(start)
    realized = next(
        (t for t, idx in enumerate(orbit) if m.d(idx, m.fixed_point) <= eps), len(orbit) - 1
    )
    lines = [input_line, f"realized_steps_to_eps {realized}"]
    if args.predict_c:
        c = parse_fraction(args.predict_c)
        synth = converse.synthesize(m, c, eps / 2)
        d0 = synth.scaled[2][start, m.map[start]]
        budget = iteration.predict_iterations(d0, c, eps)
        lines += [
            f"d0 {format_fraction(d0)}",
            # predicted_sound names the same budget; both keys stay for report readers
            f"predicted {budget.predicted_steps!r} budget {budget.budget}",
            f"predicted_sound {budget.predicted_steps!r} budget {budget.budget}",
        ]
    print("\n".join(lines))
    return 0


def cmd_bip(args) -> int:
    text, input_line = _read(args.instance)
    if next(iter(content_lines(text)), "").startswith("points"):
        run, other, flags = _bip_on_selfmap, "circuit instances", ("x0", "csv", "max_iters")
    else:
        run, other, flags = _bip_on_circuit, "self-map files", ("start", "predict_c")
    for dest in flags:  # every bip flag but --eps defaults to None
        if getattr(args, dest) is not None:
            raise InputError(f"--{dest.replace('_', '-')} applies only to {other}")
    return run(args, text, input_line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contraction-kit", description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--grid", default="1/16", help="grid resolution for the desk-scale solver")
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a circuit file on rational inputs")
    p.add_argument("circuit")
    # REMAINDER so negative rationals like -3/2 are not mistaken for options
    p.add_argument("inputs", nargs=argparse.REMAINDER)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="verify a solution file against an instance file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--report")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="inter-reduce banach and cls-local instances")
    p.add_argument("--direction", required=True,
                   choices=("banach-to-cls-local", "cls-local-to-banach"))
    p.add_argument("instance")
    p.add_argument("out")
    p.add_argument("--half-eps", action="store_true",
                   help="construct at eps/2 so back-mapped CO1 holds at the source eps")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve", help="grid-search a solution (desk-scale round-trip driver)")
    p.add_argument("instance")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("synthesize", help="synthesize the converse contraction metric")
    p.add_argument("selfmap")
    p.add_argument("c")
    p.add_argument("eps")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("power", help="power-iteration analysis")
    p.add_argument("matrix")
    p.add_argument("action", choices=("analyze", "counterexample", "bound"))
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--norm", default="2", choices=("1", "2", "inf"))
    p.add_argument("--x0", default="")
    p.add_argument("--eps", default="0.25")
    p.add_argument("--report")
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("bip", help="run the basic iterative procedure")
    p.add_argument("instance", help="circuit instance file or finite self-map file")
    p.add_argument("--x0", help="start point for circuit instances")
    p.add_argument("--start", help="start label for self-map files")
    p.add_argument("--eps", default="1/8")
    p.add_argument("--max-iters", type=int)
    p.add_argument("--predict-c",
                   help="also print global iteration budgets at this c (self-map files)")
    p.add_argument("--csv", help="write the trace as CSV")
    p.set_defaults(fn=cmd_bip)
    return parser


# main's parser: built on the first call, not at import, and then reused.
# Each cmd_* function is bound into it then, so none may be replaced later.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (*INPUT_ERRORS, MemoryError) as exc:  # MemoryError: an input too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
