"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "contraction_kit").glob("*.py"))


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
