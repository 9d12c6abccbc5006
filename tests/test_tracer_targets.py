"""The traced benchmark in ``perfbench/`` patches zoar's functions by
attribute name.  Its own self-tests run outside this suite, so a rename or
deletion in ``src/`` that orphans one of its targets is caught here."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [name for owner, attr, name, _, _ in tracer.TARGETS
               if not callable(tracer.lookup(owner, attr)[1])]
    assert tracer.TARGETS and missing == []
