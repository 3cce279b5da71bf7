from fractions import Fraction as F

import pytest

from corpus import banach_corpus, cls_local_corpus
from contraction_kit import power
from contraction_kit.cli import main
from contraction_kit.cls import (
    BanachInstance,
    Solution,
    instance_to_text,
    parse_instance,
    parse_solution,
)
from contraction_kit.library import l1_distance_circuit, scaling_map_circuit
from contraction_kit.reduce import build_interpolation_circuit

CONST_HALF = "n0: const 1/2\noutputs: n0\n"

CHAIN_SELFMAP = """\
points 4
a 0 0 0
b 1 0 0
c 2 0 0
star 3 0 0
map: 1 2 3 3
fixed: 3
distances:
1
2 1
3 2 1
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_eval_const_circuit(workdir, capsys):
    path = write(workdir / "c.txt", CONST_HALF)
    assert main(["eval", path, "0", "0", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_eval_interpolation_circuit(workdir, capsys):
    path = write(workdir / "b.txt", build_interpolation_circuit(F(9, 10), 10).to_text())
    assert main(["eval", path, "-3/2"]) == 0
    assert capsys.readouterr().out.strip() == "19/18"


def test_eval_malformed_exits_two(workdir, capsys):
    path = write(workdir / "bad.txt", "n0: add n1 n2\noutputs: n0\n")
    assert main(["eval", path, "0"]) == 2
    assert "line 1" in capsys.readouterr().err


def halving_banach() -> BanachInstance:
    return BanachInstance(
        scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1), F(1, 2)
    )


def test_verify_accept_reject_and_tag_mismatch(workdir, capsys):
    inst = write(workdir / "inst.txt", instance_to_text(halving_banach()))
    good = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert main(["verify", inst, good]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    bad = write(
        workdir / "ob.txt",
        Solution("Ob", ((F(0), F(0), F(0)), (F(1), F(0), F(0)))).to_text(),
    )
    assert main(["verify", inst, bad]) == 1
    assert "REJECT" in capsys.readouterr().out
    mismatch = write(workdir / "co1.txt", Solution("CO1", ((F(0), F(0), F(0)),)).to_text())
    assert main(["verify", inst, mismatch]) == 2


def test_verify_oe_against_promise_exits_two(workdir, capsys):
    promised = halving_banach()
    promised.metric_promised = True
    inst = write(workdir / "inst.txt", instance_to_text(promised))
    oe = write(workdir / "oe.txt", Solution("Oe", ((F(0), F(0), F(0)),)).to_text())
    assert main(["verify", inst, oe]) == 2
    assert "promise" in capsys.readouterr().err


def test_reduce_membership_sidecar(workdir, capsys):
    inst = write(workdir / "banach.txt", instance_to_text(halving_banach()))
    out = str(workdir / "target.txt")
    assert main(["reduce", "--direction", "banach-to-cls-local", inst, out]) == 0
    sidecar = (workdir / "target.txt.provenance").read_text()
    assert "eps_prime 1/8" in sidecar
    produced = parse_instance((workdir / "target.txt").read_text())
    assert produced.tag == "cls-local"


def test_reduce_hardness_sidecar_constants(workdir):
    src = cls_local_corpus()[0]
    src_text = instance_to_text(src).replace(f"eps {src.eps}", "eps 1")
    inst = write(workdir / "cls.txt", instance_to_text(src))
    # eps = 1 instance gives c' = 9/10, eps' = 10/9
    inst1 = write(workdir / "cls1.txt", src_text)
    out = str(workdir / "target.txt")
    assert main(["reduce", "--direction", "cls-local-to-banach", inst1, out]) == 0
    sidecar = (workdir / "target.txt.provenance").read_text()
    assert "c_prime 9/10" in sidecar
    assert "eps_prime 10/9" in sidecar
    assert main(["reduce", "--direction", "cls-local-to-banach", "--half-eps", inst, out]) == 0


def test_reduce_rejects_large_eps(workdir, capsys):
    big = cls_local_corpus()[0]
    text = instance_to_text(big).replace(f"eps {big.eps}", "eps 12")
    inst = write(workdir / "cls.txt", text)
    assert main(["reduce", "--direction", "cls-local-to-banach", inst, str(workdir / "t.txt")]) == 2


def test_cli_roundtrip_reduce_solve_backmap_verify(workdir, capsys):
    inst_path = write(workdir / "banach.txt", instance_to_text(banach_corpus()[0]))
    target = str(workdir / "target.txt")
    assert main(["reduce", "--direction", "banach-to-cls-local", inst_path, target]) == 0
    sol_path = str(workdir / "sol.txt")
    assert main(["solve", target, "--out", sol_path]) == 0
    capsys.readouterr()
    # back-map in-process, then check the mapped solution with cmd_verify
    from contraction_kit.reduce import map_cls_local_solution_to_banach

    src = parse_instance((workdir / "banach.txt").read_text())
    sol = parse_solution((workdir / "sol.txt").read_text())
    mapped = map_cls_local_solution_to_banach(src, sol)
    mapped_path = write(workdir / "mapped.txt", mapped.to_text())
    assert main(["verify", inst_path, mapped_path]) == 0


def test_synthesize_report(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP)
    out = str(workdir / "report.txt")
    assert main(["synthesize", path, "1/2", "1", "--out", out]) == 0
    report = (workdir / "report.txt").read_text()
    assert "certificate:" in report
    assert "FAIL" not in report
    assert "sha256" in report


def test_synthesize_rejects_bad_selfmap(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP.replace("map: 1 2 3 3", "map: 0 2 3 3"))
    assert main(["synthesize", path, "1/2", "1"]) == 2


def test_bip_circuit_instance(workdir, capsys):
    inst = write(workdir / "inst.txt", instance_to_text(halving_banach()))
    csv = str(workdir / "trace.csv")
    assert main(["bip", inst, "--x0", "1,1,1", "--eps", "1/8", "--csv", csv]) == 0
    out = capsys.readouterr().out
    assert "stop_reason residual_below_eps" in out
    lines = (workdir / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2,x3,residual"


def test_bip_selfmap_with_prediction(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP)
    assert main(["bip", path, "--start", "a", "--eps", "1", "--predict-c", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "realized_steps_to_eps" in out
    assert "predicted_sound" in out


def test_power_bound_and_counterexample(workdir, capsys):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    x0 = "0.4472135954999579,0.8944271909999159"
    assert main(["power", path, "bound", "--x0", x0, "--eps", "0.25"]) == 0
    assert "predicted 3" in capsys.readouterr().out
    assert main(["power", path, "counterexample", "--norm", "2"]) == 0
    assert "expanding True" in capsys.readouterr().out


def test_power_analyze_seeded_and_parallel(workdir, capsys, monkeypatch):
    monkeypatch.setenv("CONTRACTION_KIT_SEED", "7")
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    assert main(["--jobs", "2", "power", path, "analyze", "--pairs", "40"]) == 0
    first = capsys.readouterr().out
    assert main(["--jobs", "1", "power", path, "analyze", "--pairs", "40"]) == 0
    second = capsys.readouterr().out
    assert first == second  # --jobs is accepted and has no effect


def test_power_analyze_csv_format(workdir, capsys):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    assert main(["--format", "csv", "power", path, "analyze", "--pairs", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pair,d_before,d_after,ratio"


def test_reports_are_deterministic(workdir, capsys):
    inst = write(workdir / "inst.txt", instance_to_text(halving_banach()))
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    main(["verify", inst, sol])
    first = capsys.readouterr().out
    main(["verify", inst, sol])
    assert capsys.readouterr().out == first


def test_missing_file_exits_two(workdir, capsys):
    assert main(["eval", "absent.txt", "0"]) == 2


def test_grid_flag_changes_solver_resolution(workdir, capsys):
    # with a coarse grid the tight fixed point is invisible and the solver
    # falls through to the contraction-violation clause
    from contraction_kit.cls import ContractionMapInstance
    from contraction_kit.library import affine_contraction_circuit

    inst = ContractionMapInstance(
        affine_contraction_circuit(F(1, 2), (F(1, 32), F(1, 32), F(1, 32))),
        F(1, 64), F(1), F(1, 4),
    )
    path = write(workdir / "inst.txt", instance_to_text(inst))
    assert main(["--grid", "1/32", "solve", path]) == 0
    fine = capsys.readouterr().out
    assert fine.startswith("Oa")
    assert main(["--grid", "1/4", "solve", path]) == 0
    coarse = capsys.readouterr().out
    assert coarse.startswith("Ob")


def assert_input_error(argv, capsys, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_selfmap_header_without_count_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP.replace("points 4", "points"))
    assert_input_error(["synthesize", path, "1/2", "1"], capsys, "'points <n>'")


def test_selfmap_fixed_index_out_of_range_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP.replace("fixed: 3", "fixed: 7"))
    assert_input_error(["synthesize", path, "1/2", "1"], capsys, "fixed point index 7")


def test_zero_denominator_constant_exits_two(workdir, capsys):
    text = instance_to_text(halving_banach())
    assert "\nc 1/2\n" in text
    inst = write(workdir / "inst.txt", text.replace("\nc 1/2\n", "\nc 1/0\n"))
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "zero denominator")


def test_unnamed_instance_circuit_exits_two(workdir, capsys):
    text = instance_to_text(halving_banach())
    inst = write(workdir / "inst.txt", text.replace("circuit f\n", "circuit\n", 1))
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "'circuit <name>'")


def test_repeated_constant_exits_two(workdir, capsys):
    # before, the later eps silently won and verify exited 0
    text = instance_to_text(halving_banach()) + "eps 1/3\n"
    inst = write(workdir / "inst.txt", text)
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "repeated constant 'eps'")


def test_repeated_circuit_block_exits_two(workdir, capsys):
    text = instance_to_text(halving_banach())
    block = text[text.index("circuit f\n"):text.index("circuit d\n")]
    inst = write(workdir / "inst.txt", text + block)
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "repeated circuit 'f'")


def test_circuit_line_with_trailing_token_exits_two(workdir, capsys):
    text = instance_to_text(halving_banach())
    inst = write(workdir / "inst.txt", text.replace("circuit f\n", "circuit f g\n", 1))
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "'circuit <name>'")


@pytest.mark.parametrize("entry", ["1e400", "inf", "nan"])
def test_non_finite_matrix_entry_exits_two(workdir, capsys, entry):
    path = write(workdir / "m.txt", f"2\n2.0 0.0\n0.0 {entry}\n")
    assert_input_error(["power", path, "analyze", "--pairs", "5"], capsys, "row 1, column 1")


def test_power_analyze_csv_numbers_every_pair(workdir, capsys):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    assert main(["--format", "csv", "power", path, "analyze", "--pairs", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3", "4"]


def test_stray_constant_exits_two(workdir, capsys):
    # before, a cls-local file with c and foo lines verified with exit 0
    text = instance_to_text(cls_local_corpus()[0])
    inst = write(workdir / "inst.txt", text.replace("\ncircuit f\n", "\nc 1/2\nfoo 7\ncircuit f\n"))
    sol = write(workdir / "co1.txt", Solution("CO1", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "cls-local instance takes no constant 'c'")


def test_stray_circuit_block_exits_two(workdir, capsys):
    text = instance_to_text(cls_local_corpus()[0])
    inst = write(workdir / "inst.txt", text + "circuit q\n" + CONST_HALF + "end\n")
    sol = write(workdir / "co1.txt", Solution("CO1", ((F(0), F(0), F(0)),)).to_text())
    assert_input_error(["verify", inst, sol], capsys, "cls-local instance takes no circuit 'q'")


def test_bip_selfmap_opening_with_comment(workdir, capsys):
    path = write(workdir / "m.txt", "# a chain of four points\n\n" + CHAIN_SELFMAP)
    assert main(["bip", path, "--start", "a", "--eps", "1"]) == 0
    assert "realized_steps_to_eps 2" in capsys.readouterr().out


def test_one_by_one_matrix_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", "1\n5\n")
    assert_input_error(["power", path, "analyze"], capsys, "dimension 1 is below 2")


def test_counterexample_ignores_the_matrix_file(workdir, capsys):
    path = write(workdir / "m.txt", "2\n2.0 1.0\n0.0 1.0\n")  # not symmetric
    assert main(["power", path, "counterexample", "--norm", "2"]) == 0
    assert "expanding True" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selfmap_nonpositive_point_count_exits_two(workdir, capsys, count):
    path = write(workdir / "m.txt", CHAIN_SELFMAP.replace("points 4", f"points {count}"))
    assert_input_error(["synthesize", path, "1/2", "1"], capsys,
                       f"point count must be a positive integer, got {count}")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would add stderr lines
@pytest.mark.parametrize("action", ["analyze", "bound"])
def test_overflowing_matrix_exits_two(workdir, capsys, action):
    path = write(workdir / "m.txt", "3\n1e300 0 0\n0 1 0\n0 0 0.5\n")
    assert_input_error(["power", path, action, "--x0", "0.6,0.8,0"], capsys,
                       "matrix too large for float64 arithmetic: overflow")


@pytest.mark.filterwarnings("error")
def test_huge_tau_matrix_still_exits_two(workdir, capsys):
    # jacobi_eigensolve takes this matrix; the pair sampling after it overflows
    path = write(workdir / "m.txt", "2\n1e300 1\n1 1\n")
    assert_input_error(["power", path, "analyze"], capsys,
                       "matrix too large for float64 arithmetic: overflow encountered in dot")


@pytest.mark.parametrize("x0", [
    "0.447213595,0.894427191",  # about 2.2e-10 off unit norm, past UNIT_TOL
    "2,0",  # already at v1's direction, so no power step would check it
])
def test_power_bound_non_unit_x0_exits_two(workdir, capsys, x0):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    assert_input_error(["power", path, "bound", "--x0", x0, "--eps", "0.25"], capsys,
                       "--x0 is not a unit vector: its l2 norm is ")


def test_selfmap_base_distance_not_metric_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP.replace("2 1\n", "5 1\n"))
    assert main(["synthesize", path, "1/2", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: base distance is not a metric: TRIANGLE: d(0,2) = 5 > d(0,1) + d(1,2) = 2\n"
    )


def test_power_bound_x0_length_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", "3\n2 0 0\n0 1 0\n0 0 0.5\n")
    assert_input_error(["power", path, "bound", "--x0", "1,0"], capsys,
                       "--x0 has 2 entries but the matrix has dimension 3")


@pytest.mark.filterwarnings("error")
def test_power_bound_subnormal_eps_reports(workdir, capsys):
    # d0 / eps overflows to inf at eps = 1e-320; the step count comes from logs
    path = write(workdir / "m.txt", "3\n2.0 0.5 0.0\n0.5 1.0 0.25\n0.0 0.25 0.5\n")
    code = main(["power", path, "bound", "--x0", "1,0,0", "--eps", "1e-320"])
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = dict(line.split(" ", 1) for line in captured.out.splitlines())
    assert int(lines["predicted"]) > 0
    assert code == (0 if lines["ok"] == "True" else 1)


NEGATIVE_SPECTRUM = "2\n2.0 0.0\n0.0 -1.0\n"  # rate max(lambda2, -lambda_n)/lambda1 = 1/2


@pytest.mark.filterwarnings("error")
def test_power_analyze_negative_eigenvalue_passes(workdir, capsys):
    path = write(workdir / "m.txt", NEGATIVE_SPECTRUM)
    assert main(["power", path, "analyze", "--pairs", "5"]) == 0
    out = capsys.readouterr().out
    assert "rate_bound np.float64(0.5)" in out and "violations 0" in out


@pytest.mark.filterwarnings("error")
def test_power_bound_negative_eigenvalue_reaches_eps(workdir, capsys):
    path = write(workdir / "m.txt", NEGATIVE_SPECTRUM)
    assert main(["power", path, "bound", "--x0", "0.6,0.8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "ok True" in captured.out


@pytest.mark.parametrize("action", ["analyze", "bound"])
def test_power_non_dominant_lambda1_exits_two(workdir, capsys, action):
    # |-3| > 2: the power step does not converge to v1
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 -3.0\n")
    assert_input_error(["power", path, action, "--x0", "0.6,0.8"], capsys,
                       "dominance gap too small: lambda1 - max |lambda_i|, i >= 2, is -1.000e+00")


@pytest.mark.filterwarnings("error")  # a divide-by-zero RuntimeWarning would fail the test
def test_power_bound_zero_rate_takes_one_step(workdir, capsys):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 0.0\n")
    assert main(["power", path, "bound", "--x0", "0.6,0.8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "predicted 1\n" in captured.out and "ok True" in captured.out


def test_power_bound_step_cap_exits_two_before_stepping(workdir, capsys, monkeypatch):
    # gap 1e-6 passes GAP_MIN, but eps = 1e-300 would plan about 6.9e8 steps
    def no_step(*args):
        raise AssertionError("a power step ran before the plan was refused")

    monkeypatch.setattr(power, "power_step", no_step)
    path = write(workdir / "m.txt", "2\n1.0 0.0\n0.0 0.999999\n")
    assert_input_error(["power", path, "bound", "--x0", "0.6,0.8", "--eps", "1e-300"], capsys,
                       f"--eps 1e-300 needs more than MAX_POWER_STEPS = {power.MAX_POWER_STEPS}")


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_power_bound_non_finite_eps_exits_two(workdir, capsys, eps):
    path = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    assert_input_error(["power", path, "bound", "--x0", "0.6,0.8", "--eps", eps], capsys,
                       f"--eps must be finite, got '{eps}'")


def two_point_selfmap(distance: str) -> str:
    return f"points 2\na 0 0 0\nstar 1 0 0\nmap: 1 1\nfixed: 1\ndistances:\n{distance}\n"


@pytest.mark.parametrize("distance", [str(10**400), f"1/{10**400}"])
def test_bip_prediction_outside_the_float_range(workdir, capsys, distance):
    path = write(workdir / "m.txt", two_point_selfmap(distance))
    assert main(["bip", path, "--start", "a", "--eps", "1/8", "--predict-c", "1/2"]) == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    d0, c, eps = F(lines["d0"]), F(1, 2), F(1, 8)
    n = int(lines["predicted"].split(" budget ")[1])
    assert c**n * d0 / (1 - c) <= eps / 2
    assert n == 0 or c ** (n - 1) * d0 / (1 - c) > eps / 2


def test_bip_prediction_with_c_too_close_to_one_exits_two(workdir, capsys):
    path = write(workdir / "m.txt", two_point_selfmap("1"))
    c = f"{10**400 - 1}/{10**400}"
    assert_input_error(["bip", path, "--start", "a", "--predict-c", c], capsys,
                       "no iteration budget is representable")
