"""Byte-for-byte pins of the reports refactors must not change.

`golden_outputs.json` holds, for every case below, the exit code and the
output text the command gave before the solution-kind clauses, the
metric-axiom scan and the bit-peeling gadget were each moved into one place.
Its strings are never regenerated: a refactor that changes one of them has
changed behaviour.

Cases: `solve` on every instance of tests/corpus.py, on the instances both
reductions produce from them, and on the contraction-map instances of
tests/test_cls.py; the `verify` report for every solution kind, accepting and
rejecting, plus the input errors verify reports; `reduce` provenance;
`power analyze` text; and `certify_constructed_metric(...).report_text()` on
the criterion-7 artifacts and on a deliberately broken metric.

The `parsers/` cases were added, captured the same way, before every input
file was read through one line reader and each instance class described its
circuits once: `synthesize` on a commented self-map, `bip` on a self-map with
`--predict-c` and on an instance of each tag with `--csv`, `eval`, and
`power counterexample` and `power bound`.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F
from pathlib import Path

from corpus import banach_corpus, cls_local_corpus
from contraction_kit.circuit import CircuitBuilder
from contraction_kit.cli import main
from contraction_kit.cls import (
    BanachInstance,
    CLSLocalInstance,
    ContractionMapInstance,
    Solution,
    instance_to_text,
)
from contraction_kit.library import (
    affine_contraction_circuit,
    l1_distance_circuit,
    l1_potential_circuit,
    scaling_map_circuit,
    sq_l2_distance_circuit,
)
from contraction_kit.reduce import (
    CLSLOCAL_TO_BANACH,
    build_interpolation_circuit,
    ReductionArtifacts,
    certify_constructed_metric,
    reduce_banach_to_cls_local,
    reduce_cls_local_to_banach,
)

GOLDEN = Path(__file__).parent / "golden_outputs.json"

O = (F(0), F(0), F(0))
ONES = (F(1), F(1), F(1))
E1 = (F(1), F(0), F(0))
E2 = (F(0), F(1), F(0))
HALF_E1 = (F(1, 2), F(0), F(0))
QUARTER_E1 = (F(1, 4), F(0), F(0))


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def write(name: str, text: str) -> str:
    Path(name).write_text(text, encoding="utf-8")
    return name


def distance(build):
    """A 6-input circuit from build(b, xs, ys) -> output node."""
    b = CircuitBuilder()
    xs, ys = b.inputs(3), b.inputs(3)
    return b.build([build(b, xs, ys)])


def signed_gap():  # x1 - y1: negative for y1 > x1
    return distance(lambda b, xs, ys: b.sub(xs[0], ys[0]))


def constant_one():  # d(x, x) = 1
    return distance(lambda b, xs, ys: b.const(1))


def first_axis_gap():  # |x1 - y1|: zero between distinct points on a plane
    return distance(lambda b, xs, ys: b.abs(xs[0], ys[0]))


def lopsided_gap():  # 2*max(x1-y1, 0) + max(y1-x1, 0): not symmetric
    def build(b, xs, ys):
        zero = b.const(0)
        up = b.max(b.sub(xs[0], ys[0]), zero)
        down = b.max(b.sub(ys[0], xs[0]), zero)
        return b.add(b.mul(up, b.const(2)), down)
    return distance(build)


def shifted_l1():  # 1/4 + |x - y|_1: d(x, x) = 1/4
    return distance(lambda b, xs, ys: b.add(
        b.const(F(1, 4)), b.sum([b.abs(xs[i], ys[i]) for i in range(3)])))


def lopsided_l1():  # |x1-y1| + |x2-y2| plus lopsided_gap on the third axis
    def build(b, xs, ys):
        zero = b.const(0)
        up = b.max(b.sub(xs[2], ys[2]), zero)
        down = b.max(b.sub(ys[2], xs[2]), zero)
        return b.sum([b.abs(xs[0], ys[0]), b.abs(xs[1], ys[1]), b.mul(up, b.const(2)), down])
    return distance(build)


def cls_local(lam=F(1), eps=F(1, 4)):
    return CLSLocalInstance(
        affine_contraction_circuit(F(1, 2), O), l1_potential_circuit(O, F(1, 4)), eps, lam
    )


def banach(d=None, lam=F(1), c=F(1, 2), promised=False):
    return BanachInstance(
        scaling_map_circuit(F(1, 2)), d or l1_distance_circuit(), F(1, 4), lam, c,
        metric_promised=promised,
    )


def contraction(lam=F(1), c=F(3, 4)):
    return ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 8), lam, c)


COMMENTED_SELFMAP = """\
# a chain a -> b -> c -> star, distances on a line
points 4
a 0 0 0   # start
b 1 0 0
c 2 0 0

star 3 0 0
map: 1 2 3 3
fixed: 3  # star
distances:
1
2 1  # from c
3 2 1
"""


def parser_cases():
    """(name, argv, files to write, file whose text is appended) for the parser pins."""
    selfmap = {"m.txt": COMMENTED_SELFMAP}
    headed = {"m.txt": COMMENTED_SELFMAP.split("\n", 1)[1]}  # bip sniffs the first line
    matrix = {"a.txt": "3\n2.0 0.5 0.0\n0.5 1.0 0.25  # row 1\n0.0 0.25 0.5\n"}
    diagonal = {"a.txt": "# diag(2, 1)\n2\n2.0 0.0\n0.0 1.0\n"}
    cases = [
        ("synthesize-commented", ["synthesize", "m.txt", "1/2", "1"], selfmap, None),
        ("synthesize-commented-out", ["synthesize", "m.txt", "3/4", "1/2", "--out", "r.txt"],
         selfmap, "r.txt"),
        ("bip-selfmap-predict", ["bip", "m.txt", "--start", "a", "--eps", "1",
                                 "--predict-c", "1/2"], headed, None),
        ("bip-selfmap-predict-b", ["bip", "m.txt", "--start", "b", "--eps", "1/2",
                                   "--predict-c", "3/4"], headed, None),
        ("bip-selfmap-bad-start", ["bip", "m.txt", "--start", "z"], headed, None),
    ]
    for tag, inst in (("cls-local", cls_local()), ("banach", banach()),
                      ("banach-met", banach(promised=True)), ("contraction-map", contraction())):
        files = {"i.txt": instance_to_text(inst)}
        for x0, eps in (("1,1,1", "1/8"), ("1/2,0,1/4", "1/64")):
            argv = ["bip", "i.txt", "--x0", x0, "--eps", eps, "--csv", "t.csv"]
            cases.append((f"bip-{tag}-{x0}-{eps}", argv, files, "t.csv"))
    cases.append(("bip-max-iters", ["bip", "i.txt", "--eps", "1/1000000", "--max-iters", "3",
                                    "--csv", "t.csv"], {"i.txt": instance_to_text(banach())},
                  "t.csv"))
    interpolation = {"b.txt": build_interpolation_circuit(F(9, 10), 10).to_text()}
    cases += [
        ("eval-const", ["eval", "c.txt", "0", "0", "0"],
         {"c.txt": "# one half\nn0: const 1/2\noutputs: n0  # done\n"}, None),
        ("eval-interpolation", ["eval", "b.txt", "-3/2"], interpolation, None),
        ("eval-interpolation-zero", ["eval", "b.txt", "0"], interpolation, None),
        ("eval-distance", ["eval", "d.txt", "1/2", "0", "1", "0", "1/3", "1"],
         {"d.txt": l1_distance_circuit().to_text()}, None),
        ("eval-map-surplus", ["eval", "f.txt", "1", "1/2", "1/4", "9"],
         {"f.txt": scaling_map_circuit(F(1, 2)).to_text()}, None),
    ]
    for norm in ("1", "2", "inf"):
        cases.append((f"power-counterexample-{norm}",
                      ["power", "a.txt", "counterexample", "--norm", norm], matrix, None))
    cases += [
        ("power-bound-diagonal", ["power", "a.txt", "bound", "--x0",
                                  "0.4472135954999579,0.8944271909999159", "--eps", "0.25"],
         diagonal, None),
        ("power-bound-3", ["power", "a.txt", "bound", "--x0", "0.6,0.8,0.0", "--eps", "0.001"],
         matrix, None),
        ("power-bound-report", ["power", "a.txt", "bound", "--x0", "1,0,0", "--eps", "0.1",
                                "--report", "r.txt"], matrix, "r.txt"),
    ]
    return cases


def verify_cases():
    """(name, instance, solution text): every kind, accepting and rejecting."""
    def sol(kind, *ws):
        return Solution(kind, ws).to_text()

    return [
        ("CO1-accept", cls_local(), sol("CO1", O)),
        ("CO1-reject", cls_local(), sol("CO1", ONES)),
        ("CO2-accept", cls_local(lam=F(1, 4)), sol("CO2", O, E1)),
        ("CO2-reject", cls_local(), sol("CO2", O, E1)),
        ("CO3-accept", cls_local(lam=F(1, 8)), sol("CO3", O, E1)),
        ("CO3-reject", cls_local(), sol("CO3", O, E1)),
        ("Oa-accept", banach(), sol("Oa", O)),
        ("Oa-reject", banach(), sol("Oa", ONES)),
        ("Ob-accept", banach(c=F(1, 4)), sol("Ob", O, E1)),
        ("Ob-reject", banach(), sol("Ob", O, E1)),
        ("Oc-accept", banach(lam=F(1, 4)), sol("Oc", O, E1)),
        ("Oc-reject", banach(), sol("Oc", O, E1)),
        ("Od-accept", banach(lam=F(1, 2)), sol("Od", O, HALF_E1, O, QUARTER_E1)),
        ("Od-reject", banach(), sol("Od", O, HALF_E1, O, QUARTER_E1)),
        ("Od-side-condition", banach(lam=F(1, 2)), sol("Od", O, O, O, QUARTER_E1)),
        ("Oe-accept-triangle", banach(d=sq_l2_distance_circuit()),
         sol("Oe", O, HALF_E1, QUARTER_E1)),
        ("Oe-accept-nonneg", banach(d=signed_gap()), sol("Oe", O, E1)),
        ("Oe-accept-identity-diagonal", banach(d=constant_one()), sol("Oe", E2)),
        ("Oe-accept-identity-distinct", banach(d=first_axis_gap()), sol("Oe", O, E2)),
        ("Oe-accept-symmetry", banach(d=lopsided_gap()), sol("Oe", O, E1)),
        ("Oe-reject", banach(), sol("Oe", O, E1, HALF_E1)),
        ("met-Oa-accept", banach(promised=True), sol("Oa", O)),
        ("met-Ob-reject", banach(promised=True), sol("Ob", O, E1)),
        ("met-Oe-promise", banach(promised=True), sol("Oe", O)),
        ("cm-Oa-accept", contraction(), sol("Oa", O)),
        ("cm-Oa-reject", contraction(), sol("Oa", ONES)),
        ("cm-Ob-accept", contraction(c=F(1, 4)), sol("Ob", O, E1)),
        ("cm-Ob-reject", contraction(), sol("Ob", O, E1)),
        ("cm-Oc-accept", contraction(lam=F(1, 4)), sol("Oc", O, E1)),
        ("cm-Oc-reject", contraction(), sol("Oc", O, E1)),
        ("outside-cube", banach(), "Oa\n2 0 0\n"),
        ("kind-not-in-namespace", banach(), sol("CO1", O)),
        ("oe-on-cls-local", cls_local(), sol("Oe", O)),
        ("wrong-witness-count", banach(), "Ob\n0 0 0\n"),
        ("too-many-oe-witnesses", banach(), "Oe\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"),
        ("unknown-kind", banach(), "Zz\n0 0 0\n"),
    ]


def solve_instances():
    """(name, instance, grid) for the solver pins."""
    cases = []
    for i, inst in enumerate(cls_local_corpus()):
        cases.append((f"cls-local-{i}", inst, None))
        produced = reduce_cls_local_to_banach(inst, half_eps=True).produced
        cases.append((f"hardness-{i}", produced, None))
    for i, inst in enumerate(banach_corpus()):
        cases.append((f"banach-{i}", inst, None))
        cases.append((f"membership-{i}", reduce_banach_to_cls_local(inst).produced, None))
    halving = ContractionMapInstance(scaling_map_circuit(F(1, 2)), F(1, 8), F(1), F(3, 4))
    tight = ContractionMapInstance(
        affine_contraction_circuit(F(1, 2), (F(1, 32), F(1, 32), F(1, 32))),
        F(1, 64), F(1), F(1, 4),
    )
    off_grid = affine_contraction_circuit(F(0), (F(1, 32), F(1, 32), F(1, 32)))  # constant map
    cases += [
        ("cm-halving", halving, None),
        ("cm-tight", tight, None),
        ("cm-tight-grid-1/32", tight, "1/32"),
        ("cm-tight-grid-1/4", tight, "1/4"),
        ("banach-0-grid-1/8", banach_corpus()[0], "1/8"),
        ("cls-local-0-grid-1/3", cls_local_corpus()[0], "1/3"),
        ("sq-l2-banach", banach(d=sq_l2_distance_circuit(), lam=F(4), c=F(9, 10)), None),
        # no Oa..Od on the grid: the solver reaches the metric-violation scans
        ("oe-singleton", BanachInstance(
            scaling_map_circuit(F(1, 2)), shifted_l1(), F(1, 8), F(1), F(9, 10)), None),
        ("oe-pair", BanachInstance(off_grid, lopsided_l1(), F(1, 1000), F(4), F(1, 2)), None),
        ("oe-triangle", BanachInstance(
            off_grid, sq_l2_distance_circuit(), F(1, 1000), F(4), F(1, 2)), None),
        ("no-solution", BanachInstance(
            off_grid, l1_distance_circuit(), F(1, 1000), F(1), F(1, 2)), None),
    ]
    return cases


def criterion7_reports():
    """certify_constructed_metric reports with the criterion-7 artifacts and triples."""
    rng = random.Random(20240211)
    reports = {}
    for i, inst in enumerate(cls_local_corpus()):
        art = reduce_cls_local_to_banach(inst, half_eps=True)
        triples = [
            tuple(tuple(F(rng.randint(0, 16), 16) for _ in range(3)) for _ in range(3))
            for _ in range(200)
        ]
        reports[f"certify/criterion7-{i}"] = certify_constructed_metric(art, triples).report_text()
    src = cls_local_corpus()[0]
    art = reduce_cls_local_to_banach(src)
    broken = ReductionArtifacts(
        CLSLOCAL_TO_BANACH, src,
        BanachInstance(src.f, sq_l2_distance_circuit(), F(1), F(1), F(1, 2)),
        dict(art.substitutions),
    )
    triples = [(O, HALF_E1, QUARTER_E1), (O, E1, E2), (ONES, O, O), (O, O, O)]
    reports["certify/broken-metric"] = certify_constructed_metric(broken, triples).report_text()
    return reports


def collect() -> dict[str, str]:
    """Every pinned output, keyed by case name; run from an empty directory."""
    out: dict[str, str] = {}
    for name, inst, text in verify_cases():
        inst_path = write("instance.txt", instance_to_text(inst))
        sol_path = write("solution.txt", text)
        out[f"verify/{name}"] = run_cli(["verify", inst_path, sol_path])
    for name, inst, grid in solve_instances():
        path = write("instance.txt", instance_to_text(inst))
        out[f"solve/{name}"] = run_cli((["--grid", grid] if grid else []) + ["solve", path])
    for i, inst in enumerate(cls_local_corpus()[:5]):
        path = write("instance.txt", instance_to_text(inst))
        for flag in ([], ["--half-eps"]):
            argv = ["reduce", "--direction", "cls-local-to-banach", path, "target.txt"] + flag
            out[f"reduce/hardness-{i}{''.join(flag)}"] = run_cli(argv)
    for i, inst in enumerate(banach_corpus()[:5]):
        path = write("instance.txt", instance_to_text(inst))
        argv = ["reduce", "--direction", "banach-to-cls-local", path, "target.txt"]
        out[f"reduce/membership-{i}"] = run_cli(argv)
    matrix = write("matrix.txt", "3\n2.0 0.5 0.0\n0.5 1.0 0.25\n0.0 0.25 0.5\n")
    for jobs in ("1", "2"):
        argv = ["--jobs", jobs, "power", matrix, "analyze", "--pairs", "60"]
        out[f"power/analyze-jobs-{jobs}"] = run_cli(argv)
    out.update(criterion7_reports())
    for name, argv, files, extra in parser_cases():
        for path, text in files.items():
            write(path, text)
        out[f"parsers/{name}"] = run_cli(argv) + (
            f"--- {extra}\n{Path(extra).read_text(encoding='utf-8')}" if extra else "")
    return out


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CONTRACTION_KIT_SEED", "5")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = collect()
    assert sorted(actual) == sorted(golden)
    changed = [name for name in golden if actual[name] != golden[name]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[0]}:\n{actual[changed[0]]}"
