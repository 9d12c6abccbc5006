"""Outside-in tracing of zoar's layers.

The tracer replaces public functions of zoar's modules with wrappers that
record one span per call: name, thread id, start, end, parent span and a
few counts taken from the arguments.  Nothing inside ``src/`` is changed;
every call site listed in ``TARGETS`` resolves its callee through a module
or class attribute at call time, so patching the attribute is enough.

``bench`` imports ``run_optimization`` by name, so that wrapper sits on
``zoar.bench.run_optimization``; ``ObjectiveSpec.eval`` dispatches to the
module-level ``objectives.eval``, so wrapping the module attribute also
catches method calls.
"""

import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    tid: int
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time of its children on the same thread.

    A span opened on a worker thread may name a parent on another thread
    (the call that handed it the work); that child ran in parallel with
    the parent, so it is not subtracted.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.parent.tid == s.tid:
            covered[id(s.parent)] += s.end - s.start
    return [s.end - s.start - covered[id(s)] for s in spans]


def _rows_x_dim(args, kwargs):
    # materialize_block(seeds, tag, dim) / weighted_direction_sum(seeds, tag, dim, coeffs)
    return {"normals": len(args[0]) * int(args[2])}


def _points(args, kwargs):
    # eval(spec, theta, noise_seed) / clean_value(spec, theta)
    shape = np.shape(args[1])
    return {"points": int(np.prod(shape[:-1], dtype=np.int64))}


def _experiment_counts(args, kwargs, result):
    # run_experiment(cfg) -> one trace per repeat
    cfg = args[0]
    return {"cell": f"{cfg.estimator_kind.value}-n{cfg.estimator.n}",
            "iters": sum(len(t.rows) - 1 for t in result)}


VERIFY_CHECKS = (
    "check_objective_equivalence", "check_estimator_identity", "check_is_scaling",
    "check_history_estimator_mean", "check_optimal_baseline",
    "check_variance_scaling", "check_lr_equivalence", "check_gradient_oracle",
)

# (owner to patch, attribute, span name, counts from (args, kwargs),
#  counts from (args, kwargs, result)).  Metric names must start with a
# letter, so zoar._kernels is reported as "kernels".
TARGETS = [
    ("zoar._kernels", "materialize_block", "kernels.materialize_block", _rows_x_dim, None),
    ("zoar._kernels", "weighted_direction_sum", "kernels.weighted_direction_sum",
     _rows_x_dim, None),
    ("zoar.sampling", "direction_seed", "sampling.direction_seed", None, None),
    ("zoar.sampling", "point_digest", "sampling.point_digest", None, None),
    ("zoar.objectives", "eval", "objectives.eval", _points, None),
    ("zoar.objectives", "clean_value", "objectives.clean_value", _points, None),
    ("zoar.estimators", "zoar_estimate", "estimators.zoar_estimate", None, None),
    ("zoar.estimators", "fd_estimate", "estimators.fd_estimate", None, None),
    ("zoar.estimators:HistoryBuffer", "push_block", "estimators.HistoryBuffer.push_block",
     None, None),
    ("zoar.bench", "run_optimization", "optimizers.run_optimization", None, None),
    ("zoar.optimizers", "radazo_step", "optimizers.radazo_step", None, None),
    ("zoar.bench", "run_experiment", "bench.run_experiment", None, _experiment_counts),
    ("zoar.bench", "write_trace_csv", "bench.write_trace_csv", None, None),
    ("zoar.bench", "read_trace_csv", "bench.read_trace_csv", None, None),
    ("zoar.bench", "read_aggregate_csv", "bench.read_aggregate_csv", None, None),
    ("zoar.bench", "aggregate", "bench.aggregate", None, None),
    ("zoar.verify", "run_suite", "verify.run_suite", None, None),
    *[("zoar.verify", name, f"verify.{name}", None, None) for name in VERIFY_CHECKS],
    ("zoar.cli", "parse_config", "cli.parse_config", None, None),
    ("zoar.cli", "build_run_config", "cli.build_run_config", None, None),
    ("zoar.cli", "main", "cli.main", None, None),
]


def lookup(owner: str, attr: str):
    """(object to patch, its current attribute or None); owner is
    ``module`` or ``module:Class``."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    # a class's raw dict entry, so that a restored method stays a plain function
    return obj, (obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None))


class Tracer:
    """Collects spans from wrapped functions while installed.

    Use as a context manager: entering patches every target that exists,
    leaving restores each original attribute, even on error.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stacks: dict[int, list[Span]] = {}
        self._root_tid: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        spans, stacks, root_tid = self.spans, self._stacks, self._root_tid
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # work handed to a pool thread: the caller is the root
                # thread's innermost open span
                root = stacks.get(root_tid)
                parent = root[-1] if root and tid != root_tid else None
            counts = before(args, kwargs) if before else {}
            span = Span(name, tid, clock(), parent=parent, counts=counts)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after:
                span.counts.update(after(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self):
        self._root_tid = threading.get_ident()
        try:
            for owner, attr, name, before, after in self.targets:
                obj, original = lookup(owner, attr)
                if original is None:
                    self.missing.append(name)
                    continue
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(name, original, before, after))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals: ``<name>.calls``, ``<name>.self_s`` and summed counts,
    plus ``bench.run_experiment.<kind>-n<n>.ms_per_iter`` per sweep cell."""
    out: dict[str, float] = defaultdict(float)
    cells: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += self_s
        counts = dict(span.counts)
        if "cell" in counts:
            cell = cells[counts.pop("cell")]
            cell[0] += span.end - span.start
            cell[1] += counts.pop("iters")
        for key, value in counts.items():
            out[f"{span.name}.{key}"] += value
    for cell, (seconds, iters) in cells.items():
        if iters:
            out[f"bench.run_experiment.{cell}.ms_per_iter"] = 1000.0 * seconds / iters
    return dict(out)


SWEEP_CELLS = ("vanilla-n1", "vanilla-n6", "zoar-n1", "zoar-n6")
_COUNTS = {"kernels.materialize_block": "normals", "kernels.weighted_direction_sum": "normals",
           "objectives.eval": "points", "objectives.clean_value": "points"}


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for _, _, name, _, _ in TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in _COUNTS:
            names.append(f"{name}.{_COUNTS[name]}")
    names += [f"bench.run_experiment.{cell}.ms_per_iter" for cell in SWEEP_CELLS]
    names += ["cli.main.cpu_per_wall", "trace.overhead"]
    return names


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    return {"self_s": "s", "ms_per_iter": "ms", "cpu_per_wall": "s/s",
            "overhead": "ratio"}.get(stat, "count")
