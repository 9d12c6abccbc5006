"""The traced benchmark in ``perfbench/`` patches zoar's functions by
attribute name.  Its own self-tests run outside this suite, so a rename or
deletion in ``src/`` that orphans one of its targets, or a call site that
binds a target before the tracer patches it, is caught here."""

import importlib.util
import sys
from pathlib import Path

from zoar import bench
from zoar.estimators import EstimatorConfig
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import EstimatorKind, OptimizerConfig, UpdateRule
from zoar.sampling import DistTag

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [name for owner, attr, name, _, _ in tracer.TARGETS
               if not callable(tracer.lookup(owner, attr)[1])]
    assert tracer.TARGETS and missing == []


def test_tracer_sees_the_optimisation_loop(monkeypatch):
    # a target resolves even when the loop calls a copy bound at import,
    # whose metrics would then read 0
    tracer = _load_tracer(monkeypatch)
    kinds = (EstimatorKind.ZOAR, EstimatorKind.ZOHS)
    with tracer.Tracer() as traced:
        for kind in kinds:
            bench.run_experiment(bench.RunConfig(
                objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, 5, noise_sigma=0.05),
                estimator_kind=kind,
                estimator=EstimatorConfig(mu=0.05, k=3, n=2, tag=DistTag.GAUSSIAN),
                optimizer=OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01),
                iterations=4, repeats=2))
    metrics = tracer.layer_metrics(traced.spans)
    silent = [name for name in ("optimizers.run_optimization", "optimizers.radazo_step",
                                "estimators.HistoryBuffer.push_block",
                                "estimators.zoar_estimate", "kernels.materialize_block",
                                "objectives.eval", "objectives.clean_value")
              if not metrics.get(f"{name}.calls")]
    assert silent == []
    for kind in kinds:
        assert metrics[f"bench.run_experiment.{kind.value}-n2.ms_per_iter"] > 0
