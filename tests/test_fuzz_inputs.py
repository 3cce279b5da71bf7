"""Mutated input files of every format through `cli.main`.

Each valid file (circuit, problem instance, solution, finite self-map,
matrix; every dimension at most 4) loses, repeats or truncates one line, or
has one token replaced.  Whatever the mutation, the CLI must exit 0 or 1,
or exit 2 with a single `error:` line: no other exception may escape.
"""

import contextlib
import io
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings, strategies as st

from contraction_kit.cli import main
from contraction_kit.cls import BanachInstance, CLSLocalInstance, Solution, instance_to_text
from contraction_kit.library import (
    affine_contraction_circuit,
    l1_distance_circuit,
    l1_potential_circuit,
    scaling_map_circuit,
)

ORIGIN = (F(0), F(0), F(0))
HALF = (F(1, 2), F(1, 2), F(1, 2))

CIRCUIT = """\
# (x1 + x2) * 1/2, |x3 - 1/3|
input 0
input 1
input 2
n3: const 1/2
n4: add n0 n1
n5: mul n4 n3
n6: const 1/3
n7: abs n2 n6
outputs: n5 n7
"""

SELFMAP = """\
# a chain a -> b -> c -> star
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

MATRIX = "3\n2.0 0.5 0.0\n0.5 1.0 0.25\n0.0 0.25 0.5\n"

CLS_LOCAL = instance_to_text(CLSLocalInstance(
    affine_contraction_circuit(F(1, 2), HALF), l1_potential_circuit(HALF), F(1, 4), F(1)))
BANACH = instance_to_text(BanachInstance(
    scaling_map_circuit(F(1, 2)), l1_distance_circuit(), F(1, 4), F(1), F(1, 2)))
OD = Solution("Od", (ORIGIN, HALF, ORIGIN, (F(1), F(0), F(1, 4)))).to_text()

# name -> (valid file, argv with "in.txt" for the mutated file, companion files)
FORMATS = {
    "circuit": (CIRCUIT, ["eval", "in.txt", "1/2", "1/4", "1"], {}),
    "cls-local": (CLS_LOCAL, ["verify", "in.txt", "sol.txt"], {"sol.txt": "CO1\n1/2 1/2 1/2\n"}),
    "banach": (BANACH, ["verify", "in.txt", "sol.txt"], {"sol.txt": OD}),
    "solution": (OD, ["verify", "inst.txt", "in.txt"], {"inst.txt": BANACH}),
    "selfmap": (SELFMAP, ["synthesize", "in.txt", "1/2", "1"], {}),
    "selfmap-bip": (SELFMAP, ["bip", "in.txt", "--start", "a", "--predict-c", "1/2"], {}),
    "matrix": (MATRIX, ["power", "in.txt", "analyze", "--pairs", "3"], {}),
}
TOKENS = ["0", "1", "-1", "4", "1/0", "1/3", "x", "nan", "inf", "n9", "end", "circuit", ":"]


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(FORMATS)))
    text = FORMATS[name][0]
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("drop", "duplicate", "truncate", "swap")))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    elif lines[i].split():
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(st.sampled_from(TOKENS + sorted(set(text.split()))))
        lines[i] = " ".join(tokens)
    return name, "\n".join(lines) + "\n"


@given(mutated())
@example(("matrix", "1\n5\n"))  # no second eigenvalue: must be an input error, not a crash
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_inputs_exit_by_contract(tmp_path, monkeypatch, case):
    name, text = case
    _, argv, companions = FORMATS[name]
    monkeypatch.chdir(tmp_path)
    for path, content in {**companions, "in.txt": text}.items():
        (tmp_path / path).write_text(content, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert code in (0, 1)
