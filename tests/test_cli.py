import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from corpus import banach_corpus, cls_local_corpus
from contraction_kit import cli, converse, power
from contraction_kit.cli import main
from contraction_kit.circuit import CircuitError, InputError
from contraction_kit.cls import (
    BanachInstance,
    InstanceError,
    Solution,
    instance_to_text,
    parse_instance,
    parse_solution,
)
from contraction_kit.library import l1_distance_circuit, scaling_map_circuit
from contraction_kit.converse import CertificateError, SelfMapError
from contraction_kit.reduce import ReductionBug, build_interpolation_circuit

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


def test_reduce_membership_rejects_half_eps(workdir, capsys):
    # the membership direction has no eps/2 construction to switch on
    inst = write(workdir / "banach.txt", instance_to_text(halving_banach()))
    out = workdir / "target.txt"
    argv = ["reduce", "--direction", "banach-to-cls-local", "--half-eps", inst, str(out)]
    assert_input_error(argv, capsys, "--half-eps")
    assert not out.exists()


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


@pytest.mark.parametrize("eps", [f"1/{10**100 - 1}", f"1/{'9' * 4000}"])
def test_reduce_with_tiny_eps_exits_two(workdir, capsys, eps):
    src = cls_local_corpus()[0]
    text = instance_to_text(src).replace(f"eps {src.eps}", f"eps {eps}")
    inst = write(workdir / "cls.txt", text)
    argv = ["reduce", "--direction", "cls-local-to-banach", inst, str(workdir / "t.txt")]
    assert_input_error(argv, capsys, "eps is too small")


@pytest.mark.parametrize("k, code", [(40, 0), (41, 0), (42, 2)])
def test_reduce_tiny_eps_boundary(workdir, capsys, k, code):
    # eps = 1/(10^k - 1): the lambda' bound at 128 bits has 177 bits at k = 40 and
    # 1,707 at 41, and passes the 4,300 digits format_fraction writes at 42; what
    # is written is the tight lambda' = lambda, and k >= 42 stays refused
    src = cls_local_corpus()[0]
    text = instance_to_text(src).replace(f"eps {src.eps}", f"eps 1/{10**k - 1}")
    inst = write(workdir / "cls.txt", text)
    out = workdir / "t.txt"
    assert main(["reduce", "--direction", "cls-local-to-banach", inst, str(out)]) == code
    if code:
        assert "error: eps is too small: the lambda' bound at 128 bits" in capsys.readouterr().err
    else:
        assert f"lambda_prime {src.lam}\n" in (workdir / "t.txt.provenance").read_text()


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


@pytest.mark.parametrize("argv", [["synthesize", "m.txt", "1/2", "1"],
                                  ["bip", "m.txt", "--start", "a"]])
def test_repeated_label_exits_two(workdir, capsys, argv):
    write(workdir / "m.txt", CHAIN_SELFMAP.replace("b 1 0 0", "a 1 0 0"))
    assert run_main(argv, capsys) == (2, "", "error: repeated label 'a'\n")


TWO_POINT_SELFMAP = "points 2\na 0 0 0\nb 1 0 0\nmap: {}\nfixed: {}\ndistances:\n1\n"


@pytest.mark.parametrize("text, message", [
    (TWO_POINT_SELFMAP.format("0 5", 0), "map image out of range"),
    (TWO_POINT_SELFMAP.format("1 1", 0), "declared fixed point is not fixed"),
    ("points 3\na 0 0 0\nb 1 0 0\nc 2 0 0\nmap: 1 2 2\n", "truncated self-map file"),
])
def test_selfmap_input_error_exits_two(workdir, capsys, text, message):
    write(workdir / "m.txt", text)
    assert run_main(["synthesize", "m.txt", "1/2", "1"], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of instance file"),
    (instance_to_text(halving_banach()).replace("\nc 1/2\n", "\nc 1\n"), "c must lie in (0,1)"),
])
def test_verify_instance_error_exits_two(workdir, capsys, text, message):
    write(workdir / "inst.txt", text)
    write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    assert run_main(["verify", "inst.txt", "oa.txt"], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("direction, source, message", [
    ("banach-to-cls-local", "cls-local", "source instance must be banach/banach-met"),
    ("cls-local-to-banach", "banach", "source instance must be cls-local"),
])
def test_reduce_refuses_the_other_source_kind(workdir, capsys, direction, source, message):
    instance = {"cls-local": cls_local_corpus()[0], "banach": halving_banach()}[source]
    write(workdir / "src.txt", instance_to_text(instance))
    argv = ["reduce", "--direction", direction, "src.txt", "out.txt"]
    assert run_main(argv, capsys) == (2, "", f"error: {message}\n")
    assert not (workdir / "out.txt").exists()


def test_synthesize_certificate_failure_exits_one(workdir, capsys, monkeypatch):
    write(workdir / "m.txt", CHAIN_SELFMAP)
    failing = [converse.CertificateEntry("d_c metric axioms", False, "pair (0,1)")]
    monkeypatch.setattr(converse, "_certify", lambda *args: failing)
    assert run_main(["synthesize", "m.txt", "1/2", "1"], capsys) == \
        (1, "", "certificate failure: d_c metric axioms: pair (0,1)\n")


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


@pytest.mark.parametrize("flags, message", [
    (["--start", "a", "--x0", "garbage", "--csv", "t.csv", "--max-iters", "0"],
     "--x0 applies only to circuit instances"),
    (["--start", "a", "--csv", "t.csv"], "--csv applies only to circuit instances"),
    (["--start", "a", "--max-iters", "5"], "--max-iters applies only to circuit instances"),
    (["--start", "a", "--x0", "1,1,1"], "--x0 applies only to circuit instances"),
])
def test_bip_selfmap_refuses_circuit_flags(workdir, capsys, flags, message):
    path = write(workdir / "m.txt", CHAIN_SELFMAP)
    assert main(["bip", path, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (workdir / "t.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--predict-c", "1/2", "--start", "zz"], "--start applies only to self-map files"),
    (["--predict-c", "1/2"], "--predict-c applies only to self-map files"),
    (["--start", "a", "--csv", "t.csv"], "--start applies only to self-map files"),
    (["--predict-c", ""], "--predict-c applies only to self-map files"),
])
def test_bip_circuit_refuses_selfmap_flags(workdir, capsys, flags, message):
    inst = write(workdir / "inst.txt", instance_to_text(halving_banach()))
    assert main(["bip", inst, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (workdir / "t.csv").exists()


def test_bip_selfmap_without_start_names_the_empty_label(workdir, capsys):
    path = write(workdir / "m.txt", CHAIN_SELFMAP)
    assert main(["bip", path]) == 2
    assert capsys.readouterr() == ("", "error: unknown start label ''\n")


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


# (text replaced, its replacement, the error): the file opens with a comment
# and a blank line, which count, so circuit f's block spans file lines 8-16
# ("end") and circuit d's lines 18-36
FILE_LINE_CASES = [
    pytest.param("n6: mul n2 n3", "n6: bogus n2 n3", "line 14: unknown gate 'bogus'", id="unknown-gate"),
    # a block without an outputs line names its end line
    pytest.param("outputs: n4 n5 n6\n", "", "line 15: missing outputs line", id="missing-outputs"),
    pytest.param("n16: add n15 n14", "n16: add n15 n99", "line 34: forward reference to n99",
                 id="second-block"),
    pytest.param("circuit f\ninput 0", "circuit f\ninput x", "line 8: bad input declaration 'input x'",
                 id="first-line-of-block"),
    pytest.param("n4: mul n0 n3\nn5: mul n1 n3", "# x1 halved\n\nn4: mul n0 n3  # n0 / 2\nn5: mul n1",
                 "line 15: mul takes exactly two node references", id="after-comment-and-blank-lines"),
    pytest.param("n4 n5 n6\nend", "n4 n5 n6\nn7: add n4 n5\nend", "line 16: content after outputs line",
                 id="content-after-outputs"),
    pytest.param("n6: mul n2 n3", "n5: mul n2 n3", "line 14: duplicate node id n5", id="duplicate-id"),
    pytest.param("n3: const 1/2", "n3: const 1/0", "line 11: bad rational '1/0'", id="bad-const"),
]


@pytest.mark.parametrize("old, new, message", FILE_LINE_CASES)
def test_instance_circuit_error_names_the_file_line(workdir, capsys, old, new, message):
    text = "# the halving map\n\n" + instance_to_text(halving_banach())
    assert text.count(old) == 1
    sol = write(workdir / "oa.txt", Solution("Oa", ((F(0), F(0), F(0)),)).to_text())
    path = write(workdir / "inst.txt", text.replace(old, new))
    assert_input_error(["verify", path, sol], capsys, f"error: {message}")


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


@pytest.mark.parametrize("flags, message", [
    (["--eps", "0"], "eps must be positive"),
    (["--eps", "-1"], "eps must be positive"),
    (["--predict-c", "2"], "c must lie in (0,1)"),
    (["--predict-c", "x"], "invalid literal for int()"),
])
def test_bip_selfmap_input_error_prints_no_line(workdir, capsys, flags, message):
    path = write(workdir / "m.txt", CHAIN_SELFMAP)
    assert main(["bip", path, "--start", "c", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


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


# ---------------------------------------------------------------- typed input errors

@pytest.fixture
def input_files(workdir):
    write(workdir / "c.txt", CONST_HALF)
    write(workdir / "inst.txt", instance_to_text(halving_banach()))
    write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    write(workdir / "bad-size.txt", "x\n1 0\n0 1\n")
    write(workdir / "bad-entry.txt", "2\n2.0 a\n0.0 1.0\n")
    write(workdir / "bad-count.txt", CHAIN_SELFMAP.replace("points 4", "points x"))
    write(workdir / "bad-map.txt", CHAIN_SELFMAP.replace("map: 1 2 3 3", "map: 1 x 3 3"))
    write(workdir / "bad-fixed.txt", CHAIN_SELFMAP.replace("fixed: 3", "fixed: x"))
    # str.isdigit admits '²' and '①', which int() rejects
    write(workdir / "sup-input.txt", "input \u00b2\n" + CONST_HALF)
    write(workdir / "sup-node.txt", "n\u00b2: const 1/2\noutputs: n\u00b2\n")
    write(workdir / "circled-output.txt", "n0: const 1/2\noutputs: n\u2460\n")
    write(workdir / "long-node.txt", f"n{'9' * 5000}: const 1/2\noutputs: n0\n")
    # 10**(2**14) has more digits than int-to-str conversion allows
    write(workdir / "long-output.txt", "n0: const 10\n" + "".join(
        f"n{k + 1}: mul n{k} n{k}\n" for k in range(14)) + "outputs: n14\n")
    squaring = instance_to_text(halving_banach())
    for i in range(3):
        squaring = squaring.replace(f"mul n{i} n3", f"mul n{i} n{i}")
    write(workdir / "squaring.txt", squaring)
    return workdir


INVALID_INT = "invalid literal for int() with base 10: 'x'"


# each site that a bare ValueError reached before INPUT_ERRORS stopped catching it
@pytest.mark.parametrize("argv, message", [
    (["eval", "c.txt", "1/0"], "zero denominator in '1/0'"),
    (["eval", "c.txt", "x"], INVALID_INT),
    (["bip", "inst.txt", "--eps", "0"], "eps must be positive"),
    (["bip", "inst.txt", "--max-iters", "0"], "max_iters must be at least 1"),
    (["--grid", "2", "solve", "inst.txt"], "resolution must lie in (0, 1]"),
    (["bip", "inst.txt", "--x0", "1,1"], "expected 3 coordinates, got 2"),
    (["power", "bad-size.txt", "analyze"], INVALID_INT),
    (["power", "bad-entry.txt", "analyze"], "could not convert string to float: 'a'"),
    (["power", "m.txt", "bound"], "power bound needs --x0"),
    (["power", "m.txt", "bound", "--x0", "0.6,x"],
     "--x0 must be comma-separated numbers: could not convert string to float: 'x'"),
    (["power", "m.txt", "bound", "--x0", "0.6,0.8", "--eps", "x"],
     "could not convert string to float: 'x'"),
    (["synthesize", "bad-count.txt", "1/2", "1"], INVALID_INT),
    (["synthesize", "bad-map.txt", "1/2", "1"], INVALID_INT),
    (["synthesize", "bad-fixed.txt", "1/2", "1"], INVALID_INT),
    (["eval", "sup-input.txt"], "line 1: bad input declaration 'input \u00b2'"),
    (["eval", "sup-node.txt"], "line 1: bad node reference 'n\u00b2'"),
    (["eval", "circled-output.txt"], "line 2: bad node reference 'n\u2460'"),
    (["eval", "long-node.txt"], "line 1: Exceeds the limit (4300 digits)"),
    (["eval", "long-output.txt"], "Exceeds the limit (4300 digits)"),
    (["bip", "squaring.txt", "--x0", "10,1,1", "--max-iters", "14"],
     "Exceeds the limit (4300 digits)"),
    (["bip", "squaring.txt", "--x0", "10,1,1", "--max-iters", "14", "--csv", "t.csv"],
     "Exceeds the limit (4300 digits)"),
    (["--grid", "1/100000", "solve", "inst.txt"],
     "--grid 1/100000 needs 100000 steps per axis, above the budget of 260"),
])
def test_typed_input_errors_exit_two(input_files, capsys, argv, message):
    assert_input_error(argv, capsys, message)


@pytest.mark.parametrize("seed, message", [
    ("x", INVALID_INT),
    ("-1", "CONTRACTION_KIT_SEED must be nonnegative, got -1"),
])
def test_bad_seed_exits_two(input_files, capsys, monkeypatch, seed, message):
    monkeypatch.setenv("CONTRACTION_KIT_SEED", seed)
    assert_input_error(["power", "m.txt", "analyze", "--pairs", "3"], capsys, message)


def test_bare_value_error_is_not_an_input_error(workdir, monkeypatch):
    # each module's input error is an InputError, which exit 2 answers; a ValueError
    # from a program bug must surface, not pass as exit 2, and so must a failed check
    assert issubclass(CircuitError, InputError)
    assert issubclass(InstanceError, InputError)
    assert issubclass(SelfMapError, InputError)
    assert issubclass(power.SpectralError, InputError)
    assert not issubclass(CertificateError, InputError)
    assert not issubclass(ReductionBug, InputError)
    def bug(text):
        raise ValueError("a program bug")

    path = write(workdir / "c.txt", CONST_HALF)
    monkeypatch.setattr(cli, "parse_circuit", bug)
    with pytest.raises(ValueError, match="a program bug"):
        main(["eval", path, "0"])


# ---------------------------------------------------------------- directories as paths

UNIT_X0 = "0.4472135954999579,0.8944271909999159"
REDUCE = ["reduce", "--direction", "banach-to-cls-local"]


# every input and output path of every subcommand, in turn a directory ("dir"); the
# reduce sidecar is the directory "t.provenance"
@pytest.mark.parametrize("argv", [
    ["eval", "dir"],
    ["verify", "dir", "sol.txt"],
    ["verify", "inst.txt", "dir"],
    ["verify", "inst.txt", "sol.txt", "--report", "dir"],
    [*REDUCE, "dir", "out.txt"],
    [*REDUCE, "inst.txt", "dir"],
    [*REDUCE, "inst.txt", "t"],
    ["solve", "dir"],
    ["solve", "inst.txt", "--out", "dir"],
    ["synthesize", "dir", "1/2", "1"],
    ["synthesize", "sm.txt", "1/2", "1", "--out", "dir"],
    ["power", "dir", "analyze"],
    ["power", "dir", "bound", "--x0", UNIT_X0],
    ["power", "m.txt", "analyze", "--pairs", "3", "--report", "dir"],
    ["--format", "csv", "power", "m.txt", "analyze", "--pairs", "3", "--report", "dir"],
    ["power", "m.txt", "bound", "--x0", UNIT_X0, "--report", "dir"],
    ["power", "m.txt", "counterexample", "--report", "dir"],
    ["bip", "dir"],
    ["bip", "inst.txt", "--csv", "dir"],
], ids=" ".join)
def test_directory_as_path_exits_two(input_files, capsys, argv):
    write(input_files / "sol.txt", "Oa\n0 0 0\n")
    write(input_files / "sm.txt", CHAIN_SELFMAP)
    (input_files / "dir").mkdir()
    (input_files / "t.provenance").mkdir()
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err
    if argv[0] == "reduce":  # both output files or neither
        written = input_files / argv[-1]
        assert not written.is_file() and not Path(f"{written}.provenance").is_file()


# ---------------------------------------------------------------- flag values

# every numeric flag or argument, with "{}" where the value goes, on tiny valid inputs;
# the halving map converges, so a huge --max-iters ends at once
FLAG_CASES = {
    "power --pairs": ["power", "m.txt", "analyze", "--pairs", "{}"],
    "power --eps": ["power", "m.txt", "bound", "--x0", UNIT_X0, "--eps", "{}"],
    "power --x0": ["power", "m.txt", "bound", "--x0", "{}"],
    "--grid": ["--grid", "{}", "solve", "inst.txt"],
    "bip --eps": ["bip", "inst.txt", "--eps", "{}"],
    "bip --x0": ["bip", "inst.txt", "--x0", "{}"],
    "bip --max-iters": ["bip", "inst.txt", "--max-iters", "{}"],
    "bip --predict-c": ["bip", "sm.txt", "--start", "a", "--predict-c", "{}"],
    "synthesize c": ["synthesize", "sm.txt", "{}", "1"],
    "synthesize eps": ["synthesize", "sm.txt", "1/2", "{}"],
    "eval inputs": ["eval", "double.txt", "{}"],
}
FLAG_VALUES = {
    "0": "0", "-1": "-1", "1/0": "1/0", "x": "x", "nan": "nan", "inf": "inf", "1e309": "1e309",
    "10**15": str(10**15), "2**63": str(2**63), "5000 digits": "9" * 5000,
}


@pytest.mark.parametrize("value", sorted(FLAG_VALUES))
@pytest.mark.parametrize("flag", sorted(FLAG_CASES))
def test_flag_values_exit_cleanly(input_files, capsys, flag, value):
    # a value too large to allocate for, such as --pairs 10**15, is an input error too
    write(input_files / "sm.txt", CHAIN_SELFMAP)
    write(input_files / "double.txt", "input 0\nn1: add n0 n0\noutputs: n1\n")
    argv = [FLAG_VALUES[value] if arg == "{}" else arg for arg in FLAG_CASES[flag]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        assert exc.code == 2 and ": error: " in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    assert code in (0, 1) or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)


# ---------------------------------------------------------------- one read per input file

def two_reads(path):
    """The text and report line as two separate reads of the file give them."""
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return Path(path).read_text(encoding="utf-8"), f"input {path} sha256={digest}"


# (files, argv): every file is rewritten with the newline style under test
READ_CASES = {
    "verify": ({"inst.txt": instance_to_text(halving_banach()), "sol.txt": "Oa\n0 0 0\n"},
               ["verify", "inst.txt", "sol.txt"]),
    "synthesize": ({"sm.txt": CHAIN_SELFMAP}, ["synthesize", "sm.txt", "1/2", "1"]),
    "bip": ({"sm.txt": CHAIN_SELFMAP}, ["bip", "sm.txt", "--start", "a", "--predict-c", "1/2"]),
    "power": ({"m.txt": "2\n2.0 0.0\n0.0 1.0\n"}, ["power", "m.txt", "analyze", "--pairs", "3"]),
}
NEWLINES = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "mixed": lambda data: data.replace(b"\n", b"\r", 1).replace(b"\n", b"\r\n", 1),
}


def run_main(argv, capsys):
    code = main(argv)
    return code, *capsys.readouterr()


@pytest.mark.parametrize("newline", sorted(NEWLINES))
@pytest.mark.parametrize("command", sorted(READ_CASES))
def test_one_read_matches_two_reads(workdir, capsys, monkeypatch, command, newline):
    files, argv = READ_CASES[command]
    for name, text in files.items():
        (workdir / name).write_bytes(NEWLINES[newline](text.encode("utf-8")))
    once = run_main(argv, capsys)
    monkeypatch.setattr(cli, "_read", two_reads)
    assert once == run_main(argv, capsys)
    assert once[0] in (0, 1) and once[2] == ""
    for name in files:
        assert f"input {name} sha256={hashlib.sha256((workdir / name).read_bytes()).hexdigest()}" \
            in once[1]


@pytest.mark.parametrize("command", sorted(READ_CASES))
def test_non_utf8_byte_mid_file_exits_two(workdir, capsys, command):
    files, argv = READ_CASES[command]
    for name, text in files.items():
        head, _, tail = text.partition("\n")
        (workdir / name).write_bytes(f"{head}\n# caf".encode() + b"\xe9\n" + tail.encode())
    with pytest.raises(UnicodeDecodeError) as info:
        Path(next(iter(files))).read_text(encoding="utf-8")
    assert run_main(argv, capsys) == (2, "", f"error: {info.value}\n")


@pytest.mark.parametrize("data", [
    b"", b"a\r\nb\rc\n", b"\r\r\n\n\r", b"end\r", b"\xef\xbb\xbfbom\r\n", "é\r x".encode(),
])
def test_read_decodes_like_read_text(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    text, line = two_reads(str(path))
    # a leading byte-order mark is dropped, as the utf-8-sig codec drops it
    assert cli._read(str(path)) == (text.removeprefix("\ufeff"), line)
    assert cli._read(str(path))[0] == path.read_text(encoding="utf-8-sig")


def test_byte_order_mark_is_dropped_but_digested(workdir, capsys):
    bom = b"\xef\xbb\xbf"
    (workdir / "c.txt").write_bytes(bom + CONST_HALF.encode())
    assert run_main(["eval", "c.txt", "0"], capsys) == (0, "1/2\n", "")
    # the report line digests the raw bytes, mark included
    digest = hashlib.sha256(bom + CONST_HALF.encode()).hexdigest()
    assert cli._read("c.txt") == (CONST_HALF, f"input c.txt sha256={digest}")
    # a decoding error names its position in the raw bytes
    (workdir / "c.txt").write_bytes(bom + b"n0: const 1/2\xe9\noutputs: n0\n")
    with pytest.raises(UnicodeDecodeError) as info:
        (workdir / "c.txt").read_text(encoding="utf-8")
    assert run_main(["eval", "c.txt", "0"], capsys) == (2, "", f"error: {info.value}\n")


# ---------------------------------------------------------------- one parser per process

def parser_sequence(workdir):
    circ = write(workdir / "b.txt", build_interpolation_circuit(F(9, 10), 10).to_text())
    matrix = write(workdir / "m.txt", "2\n2.0 0.0\n0.0 1.0\n")
    return [
        ["eval", circ, "-3/2", "-1/4"],  # REMAINDER keeps negative rationals as inputs
        ["verify", circ],  # argparse error: the solution file is missing
        ["--grid", "1/4", "--format", "csv", "--jobs", "3", "power", matrix, "analyze", "--pairs", "3"],
        ["power", matrix, "analyze", "--pairs", "3"],  # the global defaults are back
        ["power", matrix, "nonsense"],  # argparse error: invalid choice
        ["eval", circ, "1/2"],
    ]


def run_sequence(argvs, parse, capsys):
    """(namespace, exit code, stdout, stderr) of each argv; an argparse error gives its SystemExit."""
    results = []
    for argv in argvs:
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            namespace = ("exit", exc.code)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        results.append((namespace, code, *capsys.readouterr()))
    return results


def test_cached_parser_matches_a_fresh_parser(workdir, capsys, monkeypatch):
    argvs = parser_sequence(workdir)
    cli._parser.cache_clear()
    cached = run_sequence(argvs, lambda argv: cli._parser().parse_args(argv), capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # main builds a fresh parser per call
    assert cached == run_sequence(argvs, lambda argv: cli.build_parser().parse_args(argv), capsys)
    assert [code for _, code, _, _ in cached] == [0, ("exit", 2), 0, 0, ("exit", 2), 0]
    assert cached[0][0]["inputs"] == ["-3/2", "-1/4"]
    assert cached[1][3].startswith("usage: contraction-kit verify")
    assert [cached[i][0][k] for i in (2, 3) for k in ("jobs", "grid", "format")] == \
        [3, "1/4", "csv", 1, "1/16", "text"]


def test_main_builds_its_parser_once(workdir, capsys):
    path = write(workdir / "c.txt", CONST_HALF)
    cli._parser.cache_clear()
    for _ in range(5):
        assert main(["eval", path, "0"]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import contraction_kit.cli as cli; print(cli._parser.cache_info().misses)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout == "0\n"
