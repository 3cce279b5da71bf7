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
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cls as cls_mod
from . import converse, gridsearch, iteration, power, reduce as reduce_mod
from .circuit import CircuitError, content_lines, format_fraction, parse_circuit, parse_fraction
from .library import as_point, circuit_fn, l1, sq_l2

INPUT_ERRORS = (
    CircuitError,
    cls_mod.InstanceError,
    converse.SelfMapError,
    power.SpectralError,
    FileNotFoundError,
    ValueError,
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _hash_line(path: str) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"input {path} sha256={digest}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_eval(args) -> int:
    circ = parse_circuit(_read(args.circuit))
    values = [parse_fraction(tok) for tok in args.inputs]
    # surplus CLI arguments are ignored so constant circuits accept any input
    outputs = circ.evaluate(values[: circ.input_arity])
    print(" ".join(format_fraction(v) for v in outputs))
    return 0


def cmd_verify(args) -> int:
    inst = cls_mod.parse_instance(_read(args.instance))
    sol = cls_mod.parse_solution(_read(args.solution))
    if sol.kind == "Oe" and inst.metric_promised:
        raise cls_mod.InstanceError("promise problem: Oe is not accepted by banach-met")
    verdict = cls_mod.verify(inst, sol)
    lines = [
        "command verify",
        _hash_line(args.instance),
        _hash_line(args.solution),
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
    inst = cls_mod.parse_instance(_read(args.instance))
    if args.direction == "banach-to-cls-local":
        if not isinstance(inst, cls_mod.BanachInstance):
            raise cls_mod.InstanceError("source instance must be banach/banach-met")
        artifacts = reduce_mod.reduce_banach_to_cls_local(inst)
    else:
        if not isinstance(inst, cls_mod.CLSLocalInstance):
            raise cls_mod.InstanceError("source instance must be cls-local")
        artifacts = reduce_mod.reduce_cls_local_to_banach(inst, half_eps=args.half_eps)
    Path(args.out).write_text(cls_mod.instance_to_text(artifacts.produced), encoding="utf-8")
    sidecar = args.out + ".provenance"
    provenance = "command reduce\n" + _hash_line(args.instance) + "\n" + artifacts.provenance_text()
    Path(sidecar).write_text(provenance, encoding="utf-8")
    print(f"wrote {args.out} and {sidecar}")
    sys.stdout.write(provenance)
    return 0


def cmd_solve(args) -> int:
    inst = cls_mod.parse_instance(_read(args.instance))
    sol = gridsearch.solve_instance(inst, parse_fraction(args.grid))
    if sol is None:
        print("no solution found on the grid", file=sys.stderr)
        return 1
    text = sol.to_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def cmd_synthesize(args) -> int:
    m = converse.parse_selfmap(_read(args.selfmap))
    c = parse_fraction(args.c)
    eps = parse_fraction(args.eps)
    try:
        result = converse.synthesize(m, c, eps)
    except converse.CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    text = "command synthesize\n" + _hash_line(args.selfmap) + "\n" + result.report_text()
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
    sys_ = power.jacobi_eigensolve(power.parse_matrix(_read(args.matrix)))
    if args.action == "analyze":
        seed = int(os.environ.get("CONTRACTION_KIT_SEED", "0"))
        cert = power.certify_contraction_rate(sys_, power.sample_pairs(sys_, args.pairs, seed))
        if args.format == "csv":
            _emit(cert.to_csv(), args.report)
        else:
            lines = [
                "command power analyze",
                _hash_line(args.matrix),
                f"seed {seed}",
                f"rate_bound {sys_.rate!r}",
                f"pairs {len(cert.pairs)}",
                f"max_ratio {cert.max_ratio!r}",
                f"violations {len(cert.violations)}",
            ]
            _emit("\n".join(lines) + "\n", args.report)
        return 0 if cert.ok else 1
    # bound
    x0 = [float(t) for t in args.x0.split(",")]
    if len(x0) != sys_.dimension:
        raise power.SpectralError(
            f"--x0 has {len(x0)} entries but the matrix has dimension {sys_.dimension}"
        )
    norm = math.hypot(*x0)
    if not abs(norm - 1.0) <= power.UNIT_TOL:
        raise power.SpectralError(f"--x0 is not a unit vector: its l2 norm is {norm!r}")
    eps = float(args.eps)
    if not math.isfinite(eps):
        raise power.SpectralError(f"--eps must be finite, got {args.eps!r}")
    report = power.iteration_bound(sys_, x0, eps)
    lines = [
        "command power bound",
        _hash_line(args.matrix),
        f"predicted {report.predicted}",
        f"final_distance {report.final_distance!r}",
        f"final_l2_error {report.final_l2_error!r}",
        f"ok {report.ok}",
    ]
    _emit("\n".join(lines) + "\n", args.report)
    return 0 if report.ok else 1


def _bip_on_circuit(args, text: str) -> int:
    inst = cls_mod.parse_instance(text)
    f = circuit_fn(inst.f)
    eps = parse_fraction(args.eps)
    if isinstance(inst, cls_mod.ContractionMapInstance):
        dist, target = sq_l2, eps ** 2  # Euclidean compared in squared form
    elif isinstance(inst, cls_mod.BanachInstance):
        dist, target = circuit_fn(inst.d), eps
    else:
        dist, target = l1, eps
    x0 = as_point([parse_fraction(t) for t in args.x0.split(",")])
    trace = iteration.run_bip(f, x0, dist, target, args.max_iters)
    if args.csv:
        Path(args.csv).write_text(trace.to_csv(), encoding="utf-8")
    print(_hash_line(args.instance))
    print(f"stop_reason {trace.stop_reason.value}")
    print(f"stop_index {trace.stop_index}")
    print(f"final_residual {trace.residuals[-1] if trace.residuals else 0}")
    return 0 if trace.stop_reason is iteration.StopReason.RESIDUAL_BELOW_EPS else 1


def _bip_on_selfmap(args, text: str) -> int:
    m = converse.parse_selfmap(text)
    eps = parse_fraction(args.eps)
    if args.start not in m.labels:
        raise converse.SelfMapError(f"unknown start label {args.start!r}")
    start = m.labels.index(args.start)
    orbit = m.orbit(start)
    realized = next(
        (t for t, idx in enumerate(orbit) if m.d(idx, m.fixed_point) <= eps), len(orbit) - 1
    )
    print(_hash_line(args.instance))
    print(f"realized_steps_to_eps {realized}")
    if args.predict_c:
        c = parse_fraction(args.predict_c)
        synth = converse.synthesize(m, c, eps / 2)
        d0 = synth.d_c[start][m.map[start]]
        budget = iteration.predict_iterations(d0, c, eps)
        print(f"d0 {format_fraction(d0)}")
        # predicted_sound names the same budget; both keys stay for report readers
        print(f"predicted {budget.predicted_steps!r} budget {budget.budget}")
        print(f"predicted_sound {budget.predicted_steps!r} budget {budget.budget}")
    return 0


def cmd_bip(args) -> int:
    text = _read(args.instance)
    if next(iter(content_lines(text)), "").startswith("points"):
        return _bip_on_selfmap(args, text)
    return _bip_on_circuit(args, text)


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
    p.add_argument("--x0", default="1,1,1", help="start point for circuit instances")
    p.add_argument("--start", default="", help="start label for self-map files")
    p.add_argument("--eps", default="1/8")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--predict-c", default="",
                   help="also print global iteration budgets at this c (self-map files)")
    p.add_argument("--csv", help="write the trace as CSV")
    p.set_defaults(fn=cmd_bip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
