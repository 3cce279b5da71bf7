"""The traced benchmark run patches bindings of the package by name, so each must resolve."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_is_callable(monkeypatch):
    # a renamed or deleted binding would only show in the traced run itself
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert unresolved == []
