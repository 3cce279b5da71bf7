"""Every name a module of the package imports is used in that module, every
module-level function and class of the package, and every member of its classes, is
read somewhere in the repository, no module of the package calls ``np.ix_``,
``np.argwhere``, ``np.isin`` or ``np.dot``, only ``circuit`` calls ``lcm`` or
splits a line on ``"#"``, only ``metrics`` and ``converse.geodesic_closure``
call ``min_plus_closure``, only ``metrics`` calls ``_describe_first_failure``,
only ``metrics`` and functions named ``*_reference`` call ``_first_failure``,
and outside ``metrics`` only ``converse.geodesic_closure`` calls
``semimetric_mask`` and only ``gridsearch._coarse_violation`` calls
``triangle_mask``."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "contraction_kit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that nothing else in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n") == [
        "line 1: field"
    ]
    assert unused_imports("import numpy as np\nimport os.path\nos.path.join(np.e)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


READERS = sorted(p for folder in ("src", "tests", "perfbench") for p in (REPO / folder).rglob("*.py"))


def read_names(source: str) -> set[str]:
    """The names ``source`` reads: identifiers, attributes, imported names and string constants.

    A string counts whole and by its last dotted part, so ``setattr(cls,
    "verify_banach", ...)`` and ``"contraction_kit.cli.main"`` both read a name.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update((node.value, node.value.rpartition(".")[2]))
    return names


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The module-level functions and classes of ``source`` whose names are not in ``read``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"line {node.lineno}: {node.name}"
        for node in ast.parse(source).body
        if isinstance(node, defs) and node.name not in read
    ]


def test_the_check_sees_an_unread_definition():
    wrapper = "def orphan_wrapper(c):\n    return c\n\ndef used():\n    pass\n\nclass Kept: pass\n"
    reader = "from m import used\nsetattr(x, 'Kept', None)\n"
    assert unread_definitions(wrapper, read_names(reader)) == ["line 1: orphan_wrapper"]
    # a definition is not a read of itself, nor is a docstring that names it
    assert "orphan_wrapper" not in read_names(wrapper + '"""Wrap a circuit; see orphan_wrapper."""\n')
    assert unread_definitions(wrapper, read_names("y.orphan_wrapper\nused()\nKept\n")) == []


def unread_members(source: str, read: set[str]) -> list[str]:
    """The methods, properties, fields and class attributes of the classes of ``source``
    whose names are not in ``read``; dunder names are left out."""
    unread = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"line {node.lineno}: {cls.name}.{name}"
                for name in names
                if not (name.startswith("__") and name.endswith("__")) and name not in read
            ]
    return unread


def test_the_check_sees_an_unread_member():
    source = (
        "@dataclass\nclass Record:\n    kept: int\n    audit: float\n    LIMIT = 3\n\n"
        "    def __repr__(self):\n        return ''\n\n    @property\n    def ratio(self):\n"
        "        return self.kept\n\n    def replay(self):\n        pass\n"
    )
    reader = "r = Record(1, audit=2.0)\nr.replay()\n"
    assert unread_members(source, read_names(source + reader)) == [
        "line 4: Record.audit", "line 5: Record.LIMIT", "line 11: Record.ratio"
    ]
    # a keyword argument names a field without reading it; an attribute or string reads it
    assert unread_members(source, read_names("x.audit\ngetattr(x, 'LIMIT')\nx.ratio\n")) == [
        "line 3: Record.kept", "line 14: Record.replay"
    ]


def test_every_definition_is_read():
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))
    texts = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    unread = {name: unread_definitions(t, read) + unread_members(t, read) for name, t in texts.items()}
    assert {name: found for name, found in unread.items() if found} == {}


# np.ix_(a, b) is x[a[:, None], b] through a dtype check and a reshape per axis,
# np.argwhere builds every hit where a caller wants the first or none, and
# np.isin(x, s) sorts where a boolean mask over the points gathers: on a 12 x 40
# table of iterates, np.isin(t, u).all(axis=0) takes about 40 us against 4.5 us
# for in_u[t].all(axis=0) (2-vCPU Xeon, NumPy 2.4).  np.dot(a, b, out=o) passes through
# the __array_function__ dispatch that a.dot(b, out=o) skips, for the same BLAS call:
# 1.6 against 1.2 us for the Jacobi row turn at n = 64, which runs once a pivot
SLOW_HELPERS = {"ix_", "argwhere", "isin", "dot"}


def slow_helper_calls(source: str) -> list[str]:
    """The calls of ``np.ix_``, ``np.argwhere``, ``np.isin`` or ``np.dot`` in ``source``."""
    return [
        f"line {node.lineno}: np.{node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in SLOW_HELPERS
    ]


def test_the_check_sees_a_slow_helper_call():
    source = "import numpy as np\nx[np.ix_(a, a)]\nnp.argwhere(m)[0]\nx[a[:, None], a]\nnp.isin(t, u)\n"
    assert sorted(slow_helper_calls(source)) == ["line 2: np.ix_", "line 3: np.argwhere", "line 5: np.isin"]
    # the array method is the same product without the dispatch
    assert slow_helper_calls("np.dot(w, v, out=o)\nw.dot(v, out=o)\nw @ v\n") == ["line 1: np.dot"]
    # a docstring or comment that names a helper is no call of it
    assert slow_helper_calls('"""As np.argwhere(mask)[0] gives it."""\n# np.ix_(a, b)\n') == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_slow_helper_calls(path):
    assert slow_helper_calls(path.read_text(encoding="utf-8")) == []


# circuit.Scaled is the one place that brings rationals to a common denominator
LCM_HOME = "circuit.py"


def lcm_calls(source: str) -> list[str]:
    """The calls of ``math.lcm`` and the imports of ``lcm`` from ``math`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import lcm" for a in node.names if a.name == "lcm"]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"
            and node.func.attr == "lcm"
        ):
            found.append(f"line {node.lineno}: math.lcm")
    return found


def test_the_check_sees_an_lcm_call():
    source = "import math\nfrom math import gcd, lcm\ns = math.lcm(a, b)\nt = lcm(a, b)\nnp.lcm(a, b)\n"
    assert lcm_calls(source) == ["line 2: from math import lcm", "line 3: math.lcm"]
    # a docstring or comment that names lcm is no call of it
    assert lcm_calls('"""Over the lcm, as math.lcm(a, b) gives it."""\n# lcm(a, b)\n') == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != LCM_HOME], ids=lambda p: p.name)
def test_only_circuit_calls_lcm(path):
    assert lcm_calls(path.read_text(encoding="utf-8")) == []


# the closure runs in metrics and in converse.geodesic_closure alone, so a
# certificate cannot quietly close its matrix again
CLOSURE_HOME = "metrics.py"
CLOSURE_CALLERS = {"converse.py": "geodesic_closure"}


def calls_of(source: str, callee: str, exempt=lambda name: False) -> list[str]:
    """The calls of ``callee`` in ``source`` outside the top-level functions whose names ``exempt`` accepts."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and exempt(top.name):
            continue
        found += [
            f"line {node.lineno}: {callee}"
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return found


def test_the_check_sees_a_closure_call():
    source = (
        "from .metrics import min_plus_closure\n"
        "def geodesic_closure(rho):\n    return min_plus_closure(rho.copy())\n"
        "def _certify(d_c):\n    return metrics.min_plus_closure(d_c.copy())\n"
    )
    exempt = lambda name: name == "geodesic_closure"
    assert calls_of(source, "min_plus_closure", exempt) == ["line 5: min_plus_closure"]
    assert calls_of(source, "min_plus_closure") == ["line 3: min_plus_closure", "line 5: min_plus_closure"]
    # a docstring or comment that names the closure is no call of it
    docs = '"""Closes d by min_plus_closure(d)."""\n# min_plus_closure(d)\n'
    assert calls_of(docs, "min_plus_closure") == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != CLOSURE_HOME], ids=lambda p: p.name)
def test_only_geodesic_closure_runs_the_closure(path):
    home = CLOSURE_CALLERS.get(path.name)
    assert calls_of(path.read_text(encoding="utf-8"), "min_plus_closure", lambda name: name == home) == []


# metrics words every metric-axiom failure, through check_metric_matrix or
# check_metric_axioms; elsewhere only the Fraction references run the scan
SCAN_HOME = "metrics.py"


def scan_calls(source: str) -> list[str]:
    """The calls of ``_describe_first_failure`` in ``source``, and of ``_first_failure``
    outside its top-level functions named ``*_reference``."""
    return calls_of(source, "_describe_first_failure") + calls_of(
        source, "_first_failure", lambda name: name.endswith("_reference")
    )


def test_the_check_sees_a_scan_call():
    source = (
        "from .metrics import _describe_first_failure, _first_failure\n"
        "def _geodesic_closure_reference(rho):\n    return _first_failure(rho, keys)\n"
        "def _certify(d_c):\n    return metrics._first_failure(d_c, keys) or _describe_first_failure(d_c)\n"
    )
    assert scan_calls(source) == ["line 5: _describe_first_failure", "line 5: _first_failure"]
    # a docstring or comment that names the scan is no call of it
    assert scan_calls('"""Words it by _describe_first_failure(d)."""\n# _first_failure(d, keys)\n') == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != SCAN_HOME], ids=lambda p: p.name)
def test_only_metrics_words_an_axiom_failure(path):
    assert scan_calls(path.read_text(encoding="utf-8")) == []


# metrics decides a whole distance matrix through check_metric_matrix or
# metric_failure_mask; outside it, geodesic_closure refuses a rho that fails an
# axiom before closing it, and the grid solver decides the triangle inequality of
# a coarse matrix whose every pair has passed
MASK_HOME = "metrics.py"
MASK_CALLERS = {
    "semimetric_mask": {"converse.py": "geodesic_closure"},
    "triangle_mask": {"gridsearch.py": "_coarse_violation"},
}


def mask_calls(name: str, source: str) -> list[str]:
    """The calls of each mask in ``source``, a module named ``name``, outside its one caller there."""
    return [
        found
        for mask, callers in MASK_CALLERS.items()
        for found in calls_of(source, mask, lambda top: top == callers.get(name))
    ]


def test_the_check_sees_a_mask_call():
    source = (
        "from .metrics import semimetric_mask, triangle_mask\n"
        "def geodesic_closure(rho):\n    return semimetric_mask(rho.num, off) or triangle_mask(rho.num)\n"
        "def _certify(d_c):\n    return metrics.semimetric_mask(d_c.num, off)\n"
    )
    assert mask_calls("converse.py", source) == ["line 5: semimetric_mask", "line 3: triangle_mask"]
    assert mask_calls("cls.py", source) == [
        "line 3: semimetric_mask", "line 5: semimetric_mask", "line 3: triangle_mask"
    ]
    # a docstring or comment that names a mask is no call of it
    assert mask_calls("cls.py", '"""Decided by triangle_mask(d)."""\n# semimetric_mask(d, off)\n') == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != MASK_HOME], ids=lambda p: p.name)
def test_only_metrics_decides_a_distance_matrix(path):
    assert mask_calls(path.name, path.read_text(encoding="utf-8")) == []


# circuit.numbered_lines is the one reader that drops "#" comments
COMMENT_HOME = "circuit.py"
SPLITS = {"split", "rsplit", "partition", "rpartition"}


def comment_splits(source: str) -> list[str]:
    """The calls in ``source`` that split a string on ``"#"``."""
    return [
        f"line {node.lineno}: {node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SPLITS
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "#"
    ]


def test_the_check_sees_a_comment_split():
    source = 'a = raw.split("#", 1)[0]\nb = ln.partition("#")\nc = ln.split(",")\nd = ln.split()\n'
    assert sorted(comment_splits(source)) == ["line 1: split", "line 2: partition"]
    # a docstring or comment that names the split is no call of it
    assert comment_splits('"""Drops what raw.split("#", 1) drops."""\n# ln.partition("#")\n') == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != COMMENT_HOME], ids=lambda p: p.name)
def test_only_circuit_splits_on_comments(path):
    assert comment_splits(path.read_text(encoding="utf-8")) == []
