"""The benchmark's own outputs: variant 0 of each perfbench workload, run
through ``cli.main`` as the benchmark runs it, must match the committed
digests in ``perfbench/references.json`` with no failed operation.

perfbench's ``workloads.py`` and ``outputs.py`` are loaded read-only from
their files, as ``test_cli.py`` loads ``workloads.py``.  Like the Ackley
golden traces, the verify report's digest holds only where NumPy takes
its AVX-512 ``exp`` path: elsewhere the Ackley checks' report lines round
differently.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from zoar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["desk", "wide", "verify"])
def test_variant_0_matches_the_benchmark_references(tmp_path, monkeypatch, name):
    workloads, outputs = _load("workloads", monkeypatch), _load("outputs", monkeypatch)
    workload = workloads.WORKLOADS[name]
    reference = json.loads((PERFBENCH / "references.json").read_text())[name]["0"]
    config, out = tmp_path / "workload.cfg", tmp_path / "out"
    out.mkdir()
    if workload.is_sweep:
        config.write_text(workload.config_text(0))
    monkeypatch.delenv("ZOAR_SEED", raising=False)
    rc = cli.main(workload.argv(0, config, out))
    if workload.is_sweep:
        _, failed, problems = outputs.sweep_failures(reference["files"], outputs.collect(out),
                                                     rc)
    else:
        _, failed, problems, _ = outputs.verify_failures(reference, out / "report.json", rc)
    assert (failed, problems) == (0, [])
