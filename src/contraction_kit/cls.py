"""Total search problems CLS-Local / ContractionMap / Banach and their verifiers.

Every verifier replays the claimed clause exactly over rationals and returns
an ACCEPT/REJECT verdict carrying both sides of the inequality; well-formed
solutions never raise.  Solution kinds are namespaced per problem: CO1-CO3
for cls-local, Oa-Od for the metric-promised problems, plus Oe (a metric
violation) for the syntactic banach variant only.

Instance file format (UTF-8, ``#`` comments):

    <cls-local | banach | banach-met | contraction-map>
    eps <rational>
    lambda <rational>
    c <rational>                  # absent for cls-local
    circuit <f | p | d>
    ...circuit lines...
    end

A constant or circuit the tag's class does not declare is an input error.

Solution file format: a kind tag line, then one witness point per line as
three rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .circuit import Circuit, InputError, content_lines, format_fraction, numbered_lines
from .circuit import parse_circuit, parse_fraction
from .library import Point, as_point, in_unit_cube, l1, sq_l2
from .metrics import check_metric_axioms, contraction_violated, lipschitz_violated


class InstanceError(InputError):
    """Malformed problem instance or solution."""


class SolutionKindError(InstanceError):
    """Solution kind does not belong to the instance's namespace."""


def _positive(q, name: str) -> Fraction:
    q = Fraction(q)
    if q <= 0:
        raise InstanceError(f"{name} must be positive")
    return q


class _Problem:
    """Validation shared by the problem classes, read from each class's declaration.

    ``circuits`` lists (name, inputs, outputs), the map f first; ``constants``
    lists the instance file's constant keys in field order.  Parsing and
    printing read the same declaration.
    """

    metric_promised = False

    def __post_init__(self):
        for name, inputs, outputs in self.circuits:
            circ = getattr(self, name)
            if circ.input_arity != inputs or circ.output_arity != outputs:
                raise InstanceError(
                    f"circuit {name} must map {inputs} inputs to {outputs} outputs, "
                    f"has {circ.input_arity}->{circ.output_arity}"
                )
        self.eps = _positive(self.eps, "eps")
        self.lam = _positive(self.lam, "lambda")
        if "c" in self.constants:
            self.c = Fraction(self.c)
            if not 0 < self.c < 1:
                raise InstanceError("c must lie in (0,1)")


@dataclass
class CLSLocalInstance(_Problem):
    f: Circuit
    p: Circuit
    eps: Fraction
    lam: Fraction

    tag = "cls-local"
    namespace = "cls-local"
    circuits = (("f", 3, 3), ("p", 3, 1))
    constants = ("eps", "lambda")


@dataclass
class BanachInstance(_Problem):
    f: Circuit
    d: Circuit
    eps: Fraction
    lam: Fraction
    c: Fraction
    metric_promised: bool = False

    namespace = "banach"
    circuits = (("f", 3, 3), ("d", 6, 1))
    constants = ("eps", "lambda", "c")

    @property
    def tag(self) -> str:
        return "banach-met" if self.metric_promised else "banach"


@dataclass
class ContractionMapInstance(_Problem):
    f: Circuit
    eps: Fraction
    lam: Fraction
    c: Fraction

    tag = "contraction-map"
    namespace = "contraction-map"
    circuits = (("f", 3, 3),)
    constants = ("eps", "lambda", "c")


ProblemInstance = Union[CLSLocalInstance, BanachInstance, ContractionMapInstance]

# instance file tag -> (class, extra constructor arguments)
_PROBLEMS = {
    "cls-local": (CLSLocalInstance, {}),
    "banach": (BanachInstance, {}),
    "banach-met": (BanachInstance, {"metric_promised": True}),
    "contraction-map": (ContractionMapInstance, {}),
}


@dataclass(frozen=True)
class Clause:
    """One solution kind: its witness count, its clause and its exact predicate.

    ``holds(inst, *witnesses)`` returns ``(ok, lhs, rhs)``; Oe's ``ok`` is the
    ``metrics.MetricViolation`` found, or None, so its verdict can name the
    failed axiom.  Each predicate calls the instance's circuits itself: the
    map ``inst.f`` and ``inst.p`` for cls-local or ``inst.d`` for banach;
    contraction-map clauses use the Euclidean metric, compared in squared
    form.  Given point columns for witnesses, every predicate but Oe's
    decides a chunk of candidates at once: ``ok`` is then a boolean mask and
    ``lhs`` and ``rhs`` are ``circuit.Scaled`` columns.
    """

    witnesses: range
    text: str
    holds: Callable[..., tuple[bool, Fraction | None, Fraction | None]]


def _co1(inst, x):
    lhs, rhs = inst.p(inst.f(x)), inst.p(x) - inst.eps
    return lhs >= rhs, lhs, rhs


def _near_fixed(dist, eps: Fraction, f, x):
    lhs = dist(x, f(x))
    return lhs <= eps, lhs, eps


def _od(inst, x1, x2, y1, y2):
    lhs = abs(inst.d(x1, x2) - inst.d(y1, y2))
    rhs = inst.lam * (l1(x1, y1) + l1(x2, y2))
    return lhs > rhs, lhs, rhs


def _oe(inst, *witnesses):
    violation = check_metric_axioms(inst.d, witnesses)
    if violation is None:
        return None, None, None
    return violation, violation.lhs, violation.rhs


_LIPSCHITZ = Clause(
    range(2, 3), "|f(x)-f(x')|_1 > lam*|x-x'|_1",
    lambda inst, x, y: lipschitz_violated(inst.f, inst.lam, x, y),
)

CLAUSES: dict[tuple[str, str], Clause] = {
    ("cls-local", "CO1"): Clause(range(1, 2), "p(f(x)) >= p(x) - eps", _co1),
    ("cls-local", "CO2"): _LIPSCHITZ,
    ("cls-local", "CO3"): Clause(
        range(2, 3), "|p(x)-p(x')| > lam*|x-x'|_1",
        lambda inst, x, y: lipschitz_violated(inst.p, inst.lam, x, y),
    ),
    ("banach", "Oa"): Clause(
        range(1, 2), "d(x,f(x)) <= eps",
        lambda inst, x: _near_fixed(inst.d, inst.eps, inst.f, x),
    ),
    ("banach", "Ob"): Clause(
        range(2, 3), "d(f(x),f(x')) > c*d(x,x')",
        lambda inst, x, y: contraction_violated(inst.f, inst.d, inst.c, x, y),
    ),
    ("banach", "Oc"): _LIPSCHITZ,
    ("banach", "Od"): Clause(range(4, 5), "|d(x1,x2)-d(y1,y2)| > lam*(|x1-y1|_1+|x2-y2|_1)", _od),
    ("banach", "Oe"): Clause(range(1, 4), "a metric axiom fails at the witnesses", _oe),
    # Both sides of every Euclidean comparison are nonnegative, so squaring is
    # equivalence-preserving and keeps everything rational.
    ("contraction-map", "Oa"): Clause(
        range(1, 2), "d(x,f(x))^2 <= eps^2",
        lambda inst, x: _near_fixed(sq_l2, inst.eps ** 2, inst.f, x),
    ),
    ("contraction-map", "Ob"): Clause(
        range(2, 3), "d(f(x),f(x'))^2 > c^2*d(x,x')^2",
        lambda inst, x, y: contraction_violated(inst.f, sq_l2, inst.c ** 2, x, y),
    ),
    ("contraction-map", "Oc"): _LIPSCHITZ,
}

_WITNESSES = {kind: clause.witnesses for (_, kind), clause in CLAUSES.items()}


def accepted_kinds(inst: ProblemInstance) -> tuple[str, ...]:
    return tuple(
        kind for namespace, kind in CLAUSES
        if namespace == inst.namespace and not (inst.metric_promised and kind == "Oe")
    )


@dataclass(frozen=True)
class Solution:
    kind: str
    witnesses: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(as_point(w) for w in self.witnesses))
        counts = _WITNESSES.get(self.kind)
        if counts is None:
            raise InstanceError(f"unknown solution kind {self.kind!r}")
        if len(self.witnesses) not in counts:
            if len(counts) > 1:
                raise InstanceError(f"{self.kind} takes one to three witness points")
            raise InstanceError(
                f"{self.kind} takes {counts[0]} witness point(s), got {len(self.witnesses)}"
            )

    def to_text(self) -> str:
        lines = [self.kind]
        for w in self.witnesses:
            lines.append(" ".join(format_fraction(c) for c in w))
        return "\n".join(lines) + "\n"


@dataclass
class Verdict:
    accepted: bool
    clause: str
    reason: str
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self) -> bool:
        return self.accepted


def _replay(inst: ProblemInstance, sol: Solution) -> Verdict:
    """The namespace and domain checks, then the kind's clause on the witnesses."""
    if (inst.namespace, sol.kind) not in CLAUSES:
        raise SolutionKindError(f"{sol.kind} is not a {inst.namespace} solution kind")
    ws = sol.witnesses
    for w in ws:
        if not in_unit_cube(w):
            return Verdict(False, sol.kind, f"witness {w} outside [0,1]^3")
    if sol.kind == "Od" and (ws[0] == ws[1] or ws[2] == ws[3]):
        return Verdict(False, "Od", "side condition x1 != x2, y1 != y2 violated")
    clause = CLAUSES[(inst.namespace, sol.kind)]
    ok, lhs, rhs = clause.holds(inst, *ws)
    if sol.kind != "Oe":
        return Verdict(ok, sol.kind, f"{clause.text} is {ok}", lhs, rhs)
    if ok is None:
        return Verdict(False, "Oe", "no metric axiom fails at the given witnesses")
    return Verdict(True, "Oe", f"{ok.axiom} violated at {ok.witnesses}", lhs, rhs)


def verify_cls_local(inst: CLSLocalInstance, sol: Solution) -> Verdict:
    """Replay a CO1/CO2/CO3 claim against the instance."""
    return _replay(inst, sol)


def verify_banach(inst: BanachInstance, sol: Solution) -> Verdict:
    """Replay an Oa..Oe claim against a banach / banach-met instance."""
    if sol.kind == "Oe" and inst.metric_promised:
        return Verdict(False, "Oe", "promise problem: metric violations are not accepted")
    return _replay(inst, sol)


def verify_contraction_map(inst: ContractionMapInstance, sol: Solution) -> Verdict:
    """Replay an Oa/Ob/Oc claim with the Euclidean metric, compared in squared form."""
    return _replay(inst, sol)


def verify(inst: ProblemInstance, sol: Solution) -> Verdict:
    if isinstance(inst, CLSLocalInstance):
        return verify_cls_local(inst, sol)
    if isinstance(inst, BanachInstance):
        return verify_banach(inst, sol)
    return verify_contraction_map(inst, sol)


def instance_to_text(inst: ProblemInstance) -> str:
    values = {"eps": inst.eps, "lambda": inst.lam, "c": getattr(inst, "c", None)}
    lines = [inst.tag] + [f"{key} {format_fraction(values[key])}" for key in inst.constants]
    for name, _, _ in inst.circuits:
        lines += [f"circuit {name}", getattr(inst, name).to_text().rstrip("\n"), "end"]
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ProblemInstance:
    """The instance in ``text``; a circuit's parse error names the line of the file."""
    lines = iter(numbered_lines(text))
    _, tag = next(lines, (0, None))
    if tag is None:
        raise InstanceError("unexpected end of instance file")
    if tag not in _PROBLEMS:
        raise InstanceError(f"unknown problem tag {tag!r}")
    problem, extra = _PROBLEMS[tag]
    names = [name for name, _, _ in problem.circuits]
    constants: dict[str, Fraction] = {}
    circuits: dict[str, Circuit] = {}
    for _, ln in lines:
        if ln.startswith("circuit"):
            parts = ln.split()
            if len(parts) != 2:
                raise InstanceError(f"expected 'circuit <name>', got {ln!r}")
            name = parts[1]
            if name not in names:
                raise InstanceError(f"{tag} instance takes no circuit {name!r}")
            if name in circuits:
                raise InstanceError(f"repeated circuit {name!r}")
            body: list[tuple[int, str]] = []
            for no, raw in lines:
                if raw == "end":
                    break
                body.append((no, raw))
            else:
                raise InstanceError("unexpected end of instance file")
            circuits[name] = parse_circuit(body, no)
        else:
            key, _, val = ln.partition(" ")
            if key not in problem.constants:
                raise InstanceError(f"{tag} instance takes no constant {key!r}")
            if key in constants:
                raise InstanceError(f"repeated constant {key!r}")
            constants[key] = parse_fraction(val)
    try:
        args = [circuits[name] for name in names] + [constants[key] for key in problem.constants]
    except KeyError as exc:
        raise InstanceError(f"missing field {exc} for {tag} instance") from exc
    return problem(*args, **extra)


def parse_solution(text: str) -> Solution:
    lines = content_lines(text)
    if not lines:
        raise InstanceError("empty solution file")
    kind = lines[0]
    witnesses = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InstanceError(f"witness line must have three rationals: {ln!r}")
        witnesses.append(tuple(parse_fraction(p) for p in parts))
    return Solution(kind, tuple(witnesses))
