"""perfbench's traced passes wrap package functions by name; they must all exist."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_pass_wraps_existing_names(monkeypatch):
    # imported as perfbench/run.py imports it: the module `spans` from its own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    tracer = importlib.import_module("spans").Tracer()
    with tracer.installed():  # a renamed or deleted target raises AttributeError here
        traced = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer._targets()]
    for owner, attr, fn in traced:
        assert getattr(owner, attr) is fn.__wrapped__  # wrapped inside, restored after
