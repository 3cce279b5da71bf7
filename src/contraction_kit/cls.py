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

Solution file format: a kind tag line, then one witness point per line as
three rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .circuit import Circuit, format_fraction, parse_circuit, parse_fraction
from .library import Point, as_point, circuit_fn, in_unit_cube, l1, sq_l2
from .metrics import check_metric_axioms

CLS_LOCAL_KINDS = ("CO1", "CO2", "CO3")
CONTRACTION_KINDS = ("Oa", "Ob", "Oc")
BANACH_MET_KINDS = ("Oa", "Ob", "Oc", "Od")
BANACH_KINDS = ("Oa", "Ob", "Oc", "Od", "Oe")

WITNESS_COUNTS = {"CO1": 1, "CO2": 2, "CO3": 2, "Oa": 1, "Ob": 2, "Oc": 2, "Od": 4}


class InstanceError(ValueError):
    """Malformed problem instance or solution."""


class SolutionKindError(InstanceError):
    """Solution kind does not belong to the instance's namespace."""


def _positive(q, name: str) -> Fraction:
    q = Fraction(q)
    if q <= 0:
        raise InstanceError(f"{name} must be positive")
    return q


def _check_arity(circ: Circuit, inputs: int, outputs: int, name: str) -> None:
    if circ.input_arity != inputs or circ.output_arity != outputs:
        raise InstanceError(
            f"circuit {name} must map {inputs} inputs to {outputs} outputs, "
            f"has {circ.input_arity}->{circ.output_arity}"
        )


@dataclass
class CLSLocalInstance:
    f: Circuit
    p: Circuit
    eps: Fraction
    lam: Fraction

    tag = "cls-local"

    def __post_init__(self):
        _check_arity(self.f, 3, 3, "f")
        _check_arity(self.p, 3, 1, "p")
        self.eps = _positive(self.eps, "eps")
        self.lam = _positive(self.lam, "lambda")


@dataclass
class BanachInstance:
    f: Circuit
    d: Circuit
    eps: Fraction
    lam: Fraction
    c: Fraction
    metric_promised: bool = False

    def __post_init__(self):
        _check_arity(self.f, 3, 3, "f")
        _check_arity(self.d, 6, 1, "d")
        self.eps = _positive(self.eps, "eps")
        self.lam = _positive(self.lam, "lambda")
        self.c = Fraction(self.c)
        if not 0 < self.c < 1:
            raise InstanceError("c must lie in (0,1)")

    @property
    def tag(self) -> str:
        return "banach-met" if self.metric_promised else "banach"


@dataclass
class ContractionMapInstance:
    f: Circuit
    eps: Fraction
    lam: Fraction
    c: Fraction

    tag = "contraction-map"

    def __post_init__(self):
        _check_arity(self.f, 3, 3, "f")
        self.eps = _positive(self.eps, "eps")
        self.lam = _positive(self.lam, "lambda")
        self.c = Fraction(self.c)
        if not 0 < self.c < 1:
            raise InstanceError("c must lie in (0,1)")


ProblemInstance = Union[CLSLocalInstance, BanachInstance, ContractionMapInstance]


def accepted_kinds(inst: ProblemInstance) -> tuple[str, ...]:
    if isinstance(inst, CLSLocalInstance):
        return CLS_LOCAL_KINDS
    if isinstance(inst, ContractionMapInstance):
        return CONTRACTION_KINDS
    return BANACH_MET_KINDS if inst.metric_promised else BANACH_KINDS


@dataclass(frozen=True)
class Solution:
    kind: str
    witnesses: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(as_point(w) for w in self.witnesses))
        if self.kind == "Oe":
            if not 1 <= len(self.witnesses) <= 3:
                raise InstanceError("Oe takes one to three witness points")
        elif self.kind in WITNESS_COUNTS:
            if len(self.witnesses) != WITNESS_COUNTS[self.kind]:
                raise InstanceError(
                    f"{self.kind} takes {WITNESS_COUNTS[self.kind]} witness point(s), "
                    f"got {len(self.witnesses)}"
                )
        else:
            raise InstanceError(f"unknown solution kind {self.kind!r}")

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


def _domain_reject(sol: Solution) -> Verdict | None:
    for w in sol.witnesses:
        if not in_unit_cube(w):
            return Verdict(False, sol.kind, f"witness {w} outside [0,1]^3")
    return None


def verify_cls_local(inst: CLSLocalInstance, sol: Solution) -> Verdict:
    """Replay a CO1/CO2/CO3 claim against the instance."""
    if sol.kind not in CLS_LOCAL_KINDS:
        raise SolutionKindError(f"{sol.kind} is not a cls-local solution kind")
    bad = _domain_reject(sol)
    if bad is not None:
        return bad
    f = circuit_fn(inst.f)
    p = circuit_fn(inst.p)
    if sol.kind == "CO1":
        (x,) = sol.witnesses
        lhs = p(f(x))
        rhs = p(x) - inst.eps
        ok = lhs >= rhs
        return Verdict(ok, "CO1", f"p(f(x)) >= p(x) - eps is {ok}", lhs, rhs)
    x, y = sol.witnesses
    if sol.kind == "CO2":
        lhs = l1(f(x), f(y))
        rhs = inst.lam * l1(x, y)
        ok = lhs > rhs
        return Verdict(ok, "CO2", f"|f(x)-f(x')|_1 > lam*|x-x'|_1 is {ok}", lhs, rhs)
    lhs = abs(p(x) - p(y))
    rhs = inst.lam * l1(x, y)
    ok = lhs > rhs
    return Verdict(ok, "CO3", f"|p(x)-p(x')| > lam*|x-x'|_1 is {ok}", lhs, rhs)


def verify_banach(inst: BanachInstance, sol: Solution) -> Verdict:
    """Replay an Oa..Oe claim against a banach / banach-met instance."""
    kinds = accepted_kinds(inst)
    if sol.kind not in BANACH_KINDS:
        raise SolutionKindError(f"{sol.kind} is not a banach solution kind")
    if sol.kind == "Oe" and inst.metric_promised:
        return Verdict(False, "Oe", "promise problem: metric violations are not accepted")
    if sol.kind not in kinds:
        raise SolutionKindError(f"{sol.kind} not accepted by {inst.tag}")
    bad = _domain_reject(sol)
    if bad is not None:
        return bad
    f = circuit_fn(inst.f)
    d = circuit_fn(inst.d)
    if sol.kind == "Oa":
        (x,) = sol.witnesses
        lhs = d(x, f(x))
        ok = lhs <= inst.eps
        return Verdict(ok, "Oa", f"d(x,f(x)) <= eps is {ok}", lhs, inst.eps)
    if sol.kind == "Ob":
        x, y = sol.witnesses
        lhs = d(f(x), f(y))
        rhs = inst.c * d(x, y)
        ok = lhs > rhs
        return Verdict(ok, "Ob", f"d(f(x),f(x')) > c*d(x,x') is {ok}", lhs, rhs)
    if sol.kind == "Oc":
        x, y = sol.witnesses
        lhs = l1(f(x), f(y))
        rhs = inst.lam * l1(x, y)
        ok = lhs > rhs
        return Verdict(ok, "Oc", f"|f(x)-f(x')|_1 > lam*|x-x'|_1 is {ok}", lhs, rhs)
    if sol.kind == "Od":
        x1, x2, y1, y2 = sol.witnesses
        if x1 == x2 or y1 == y2:
            return Verdict(False, "Od", "side condition x1 != x2, y1 != y2 violated")
        lhs = abs(d(x1, x2) - d(y1, y2))
        rhs = inst.lam * (l1(x1, y1) + l1(x2, y2))
        ok = lhs > rhs
        return Verdict(ok, "Od", f"|d(x1,x2)-d(y1,y2)| > lam*(|x1-y1|_1+|x2-y2|_1) is {ok}", lhs, rhs)
    violation = check_metric_axioms(inst.d, sol.witnesses)
    if violation is None:
        return Verdict(False, "Oe", "no metric axiom fails at the given witnesses")
    return Verdict(
        True, "Oe", f"{violation.axiom} violated at {violation.witnesses}",
        violation.lhs, violation.rhs,
    )


def verify_contraction_map(inst: ContractionMapInstance, sol: Solution) -> Verdict:
    """Replay Oa/Ob/Oc with Euclidean d, compared in squared form.

    Both sides of every Euclidean comparison are nonnegative, so squaring is
    equivalence-preserving and keeps everything rational.
    """
    if sol.kind not in CONTRACTION_KINDS:
        raise SolutionKindError(f"{sol.kind} is not a contraction-map solution kind")
    bad = _domain_reject(sol)
    if bad is not None:
        return bad
    f = circuit_fn(inst.f)
    if sol.kind == "Oa":
        (x,) = sol.witnesses
        lhs = sq_l2(x, f(x))
        rhs = inst.eps ** 2
        ok = lhs <= rhs
        return Verdict(ok, "Oa", f"d(x,f(x))^2 <= eps^2 is {ok}", lhs, rhs)
    x, y = sol.witnesses
    if sol.kind == "Ob":
        lhs = sq_l2(f(x), f(y))
        rhs = inst.c ** 2 * sq_l2(x, y)
        ok = lhs > rhs
        return Verdict(ok, "Ob", f"d(f(x),f(x'))^2 > c^2*d(x,x')^2 is {ok}", lhs, rhs)
    lhs = l1(f(x), f(y))
    rhs = inst.lam * l1(x, y)
    ok = lhs > rhs
    return Verdict(ok, "Oc", f"|f(x)-f(x')|_1 > lam*|x-x'|_1 is {ok}", lhs, rhs)


def verify(inst: ProblemInstance, sol: Solution) -> Verdict:
    if isinstance(inst, CLSLocalInstance):
        return verify_cls_local(inst, sol)
    if isinstance(inst, BanachInstance):
        return verify_banach(inst, sol)
    return verify_contraction_map(inst, sol)


def instance_to_text(inst: ProblemInstance) -> str:
    lines = [inst.tag, f"eps {format_fraction(inst.eps)}", f"lambda {format_fraction(inst.lam)}"]
    if not isinstance(inst, CLSLocalInstance):
        lines.append(f"c {format_fraction(inst.c)}")
    blocks = [("f", inst.f)]
    if isinstance(inst, CLSLocalInstance):
        blocks.append(("p", inst.p))
    elif isinstance(inst, BanachInstance):
        blocks.append(("d", inst.d))
    for name, circ in blocks:
        lines.append(f"circuit {name}")
        lines.append(circ.to_text().rstrip("\n"))
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> ProblemInstance:
    lines = text.splitlines()
    idx = 0

    def next_line() -> str:
        nonlocal idx
        while idx < len(lines):
            ln = lines[idx].split("#", 1)[0].strip()
            idx += 1
            if ln:
                return ln
        raise InstanceError("unexpected end of instance file")

    tag = next_line()
    if tag not in ("cls-local", "banach", "banach-met", "contraction-map"):
        raise InstanceError(f"unknown problem tag {tag!r}")
    constants: dict[str, Fraction] = {}
    circuits: dict[str, Circuit] = {}
    while True:
        try:
            ln = next_line()
        except InstanceError:
            break
        if ln.startswith("circuit"):
            parts = ln.split()
            if len(parts) < 2:
                raise InstanceError(f"expected 'circuit <name>', got {ln!r}")
            name = parts[1]
            body: list[str] = []
            while True:
                raw = next_line()
                if raw == "end":
                    break
                body.append(raw)
            circuits[name] = parse_circuit("\n".join(body) + "\n")
        else:
            key, _, val = ln.partition(" ")
            constants[key] = parse_fraction(val)
    try:
        if tag == "cls-local":
            return CLSLocalInstance(circuits["f"], circuits["p"], constants["eps"], constants["lambda"])
        if tag == "contraction-map":
            return ContractionMapInstance(circuits["f"], constants["eps"], constants["lambda"], constants["c"])
        return BanachInstance(
            circuits["f"], circuits["d"], constants["eps"], constants["lambda"],
            constants["c"], metric_promised=(tag == "banach-met"),
        )
    except KeyError as exc:
        raise InstanceError(f"missing field {exc} for {tag} instance") from exc


def parse_solution(text: str) -> Solution:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
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
