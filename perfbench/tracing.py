"""Span recorder for the traced benchmark run, and the per-layer metrics.

`install` replaces the public functions of each contraction_kit module with
wrappers that record a span per call while a job is active: name, start,
end, parent span, job id and a small info value.  Names bound into other
modules by `from ... import` are patched where they are bound, or calls
through them would escape the spans.  Spans stay in memory; `write` stores
them once, after the run.

A span's self time is its duration minus the part of it that its child spans
cover.  Calls made on worker threads (`--jobs 2`) have no parent on their own
thread; they are attached to the innermost span open on the job's thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

from contraction_kit import circuit, cli, cls, converse, gridsearch, metrics, power, reduce


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, job, info)
        self.job: int | None = None
        self._local = threading.local()
        self._job_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_job(self, job: int) -> None:
        self._local.stack = self._job_stack = []
        self.job = job

    def end_job(self) -> None:
        self.job = None

    def wrap(self, name, fn, info=None):
        """Wrap fn; name is a string or a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._job_stack[-1] if self._job_stack else None
            with self._lock:  # reserve the slot so children see their parent's index
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args) if callable(name) else name
                self.spans[index] = (label, start, end, parent, job, None)
            if info is not None:
                self.spans[index] = (label, start, end, parent, job, info(args, result))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _evaluate_info(args, result):
    circ = args[0]
    return circ.gate_count, id(circ), _den_bits(result)


def _jacobi_name(args) -> str:
    return f"power.jacobi_eigensolve.d{len(args[0])}"


# (owner, attribute, span name, info): every binding a workload's calls go through
PATCHES = [
    (circuit.Circuit, "evaluate", "circuit.evaluate", _evaluate_info),
    (circuit, "parse_circuit", "circuit.parse_circuit", None),
    (cls, "parse_circuit", "circuit.parse_circuit", None),
    (cli, "parse_circuit", "circuit.parse_circuit", None),
    (cls, "parse_instance", "cls.parse_instance", None),
    (cls, "parse_solution", "cls.parse_solution", None),
    # verify() dispatches through cls's globals, so these catch it too
    (cls, "verify_cls_local", "cls.verify", lambda a, r: r.accepted),
    (cls, "verify_banach", "cls.verify", lambda a, r: r.accepted),
    (cls, "verify_contraction_map", "cls.verify", lambda a, r: r.accepted),
    (reduce, "verify_cls_local", "cls.verify", lambda a, r: r.accepted),
    (reduce, "verify_banach", "cls.verify", lambda a, r: r.accepted),
    (metrics, "check_metric_axioms", "metrics.check_metric_axioms", None),
    (cls, "check_metric_axioms", "metrics.check_metric_axioms", None),
    (reduce, "check_metric_axioms", "metrics.check_metric_axioms", None),
    (metrics, "check_metric_matrix", "metrics.check_metric_matrix", None),
    (converse, "check_metric_matrix", "metrics.check_metric_matrix", None),
    (reduce, "reduce_cls_local_to_banach", "reduce.reduce_cls_local_to_banach", None),
    (reduce, "reduce_banach_to_cls_local", "reduce.reduce_banach_to_cls_local", None),
    (reduce, "certified_lambda_prime", "reduce.certified_lambda_prime", None),
    (reduce, "map_banach_solution_to_cls_local", "reduce.map_banach_solution_to_cls_local", None),
    (reduce, "map_cls_local_solution_to_banach", "reduce.map_cls_local_solution_to_banach", None),
    (reduce, "certify_constructed_metric", "reduce.certify_constructed_metric",
     lambda a, r: (len(a[1]), id(a[0].produced.d))),
    (gridsearch, "solve_instance", "gridsearch.solve_instance", lambda a, r: r is not None),
    # synthesize calls its stages through converse's globals: both closures are caught
    (converse, "synthesize", "converse.synthesize",
     lambda a, r: _den_bits(v for row in r.d_c for v in row)),
    (converse, "find_invariant_neighborhood", "converse.find_invariant_neighborhood", None),
    (converse, "compute_orbit_metric", "converse.compute_orbit_metric", None),
    (converse, "compute_levels", "converse.compute_levels", None),
    (converse, "compute_rho", "converse.compute_rho", None),
    (converse, "geodesic_closure", "converse.geodesic_closure", None),
    (converse.SynthesizedMetric, "report_text", "converse.report_text", None),
    (power, "jacobi_eigensolve", _jacobi_name, None),
    (power, "certify_contraction_rate", "power.certify_contraction_rate", lambda a, r: len(a[1])),
    (power, "replay_pair_mp", "power.replay_pair_mp", None),
    (cli, "main", "cli.main", None),
]


def install(recorder: Recorder) -> None:
    for owner, attr, name, info in PATCHES:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), info))


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "circuit.evaluate.calls": ("count", "lower"),
    "circuit.evaluate.gates": ("count", "lower"),
    "circuit.evaluate.self_s": ("s", "lower"),
    "circuit.evaluate.ns_per_gate": ("ns", "lower"),
    "circuit.parse_circuit.calls": ("count", "lower"),
    "circuit.parse_circuit.self_s": ("s", "lower"),
    "gridsearch.solve_instance.calls": ("count", "lower"),
    "gridsearch.solve_instance.self_s": ("s", "lower"),
    "gridsearch.evals_per_solve": ("ratio", "lower"),
    "reduce.reduce_cls_local_to_banach.self_s": ("s", "lower"),
    "reduce.reduce_banach_to_cls_local.self_s": ("s", "lower"),
    "reduce.certified_lambda_prime.self_s": ("s", "lower"),
    "reduce.map_banach_solution_to_cls_local.self_s": ("s", "lower"),
    "reduce.certify_constructed_metric.self_s": ("s", "lower"),
    "reduce.triples": ("count", "higher"),
    "reduce.evals_per_triple": ("ratio", "lower"),
    "reduce.d.max_den_bits": ("bits", "lower"),
    "cls.parse_instance.self_s": ("s", "lower"),
    "cls.parse_solution.self_s": ("s", "lower"),
    "cls.verify.calls": ("count", "lower"),
    "cls.verify.self_s": ("s", "lower"),
    "metrics.check_metric_axioms.self_s": ("s", "lower"),
    "metrics.check_metric_matrix.self_s": ("s", "lower"),
    "converse.synthesize.calls": ("count", "higher"),
    "converse.compute_orbit_metric.self_s": ("s", "lower"),
    "converse.compute_rho.self_s": ("s", "lower"),
    "converse.geodesic_closure.calls": ("count", "lower"),
    "converse.geodesic_closure.self_s": ("s", "lower"),
    "converse.certificate.self_s": ("s", "lower"),
    "converse.report_text.self_s": ("s", "lower"),
    "converse.d_c.max_den_bits": ("bits", "lower"),
    "power.jacobi_eigensolve.d16.self_s": ("s", "lower"),
    "power.jacobi_eigensolve.d32.self_s": ("s", "lower"),
    "power.jacobi_eigensolve.d64.self_s": ("s", "lower"),
    "power.certify_contraction_rate.calls": ("count", "lower"),
    "power.certify_contraction_rate.pairs": ("count", "higher"),
    "power.certify_contraction_rate.us_per_pair": ("us", "lower"),
    "power.replay_pair_mp.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans, and the bases they were taken over."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _job, _info in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _job, _info) in enumerate(spans):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += (end - start) - _covered(children.get(index, ()), start, end)

    def ancestor(index: int, name: str) -> int | None:
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return parent
            parent = spans[parent][3]
        return None

    gates = evals_in_solve = evals_in_certify = d_bits = 0
    for index, (name, *_rest, info) in enumerate(spans):
        if name != "circuit.evaluate":
            continue
        gates += info[0]
        if ancestor(index, "gridsearch.solve_instance") is not None:
            evals_in_solve += 1
        certify = ancestor(index, "reduce.certify_constructed_metric")
        if certify is not None:
            evals_in_certify += 1
            if info[1] == spans[certify][5][1]:
                d_bits = max(d_bits, info[2])
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span[5])
    solved = sum(1 for found in by_name["gridsearch.solve_instance"] if found)
    triples = sum(info[0] for info in by_name["reduce.certify_constructed_metric"])
    pairs = sum(by_name["power.certify_contraction_rate"])
    accepted = sum(1 for ok in by_name["cls.verify"] if ok)

    out = {
        "circuit.evaluate.gates": gates,
        "circuit.evaluate.ns_per_gate": _ratio(self_s["circuit.evaluate"] * 1e9, gates),
        "gridsearch.evals_per_solve": _ratio(evals_in_solve, solved),
        "reduce.triples": triples,
        "reduce.evals_per_triple": _ratio(evals_in_certify, triples),
        "reduce.d.max_den_bits": d_bits,
        "converse.certificate.self_s": self_s["converse.synthesize"],
        "converse.d_c.max_den_bits": max(by_name["converse.synthesize"], default=0),
        "power.certify_contraction_rate.pairs": pairs,
        "power.certify_contraction_rate.us_per_pair":
            _ratio(total_s["power.certify_contraction_rate"] * 1e6, pairs),
    }
    for metric in PER_LAYER:
        if metric in out or metric == "trace.overhead":
            continue
        layer, _, kind = metric.rpartition(".")
        out[metric] = calls[layer] if kind == "calls" else self_s[layer]
    bases = {
        "gridsearch.evals_per_solve": {"evaluations": evals_in_solve, "solutions": solved},
        "reduce.evals_per_triple": {"evaluations": evals_in_certify, "triples": triples},
        "cls.verify.accept_share": {"accepted": accepted, "calls": calls["cls.verify"],
                                    "share": _ratio(accepted, calls["cls.verify"])},
        "spans": len(spans),
    }
    return out, bases
