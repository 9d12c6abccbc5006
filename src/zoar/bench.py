"""Experiment orchestration: multi-seed runs, aggregation, speedups, output.

Query accounting: the vanilla and historical-gradient estimators spend
k+1 evaluations per iteration (k perturbed points plus the centre); the
reuse estimator spends k, since its gradient is computed from buffered
records without a centre query.
"""

import enum
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from . import sampling
from .estimators import EstimatorConfig
from .objectives import ObjectiveSpec
from .optimizers import (EstimatorKind, OptimizerConfig, Trace, TraceRow,
                         run_optimization)

TRACE_HEADER = "iter,queries_cum,f_clean,gap,wall_ms"
AGGREGATE_HEADER = "iter,mean_gap,std_gap,n"
LOG_FLOOR = 1e-16  # gap values are clamped here before log-scale plotting
# history-ring bytes one lockstep group of repeats may hold: a group of
# rings grows peak memory by its size, and past this the per-step Python
# overhead that lockstep saves is small beside the arithmetic
LOCKSTEP_BUDGET = 1 << 20


class Theta0Mode(enum.Enum):
    FIXED = "fixed"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Theta0Spec:
    mode: Theta0Mode = Theta0Mode.UNIFORM
    value: float = 0.0  # fixed mode: every coordinate
    lo: float = -2.0
    hi: float = 2.0

    def build(self, dim: int, seed: int) -> np.ndarray:
        if self.mode is Theta0Mode.FIXED:
            return np.full(dim, self.value)
        u = kernels.uniform_doubles(seed, dim)
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True)
class RunConfig:
    objective: ObjectiveSpec
    estimator_kind: EstimatorKind
    estimator: EstimatorConfig
    optimizer: OptimizerConfig
    iterations: int
    repeats: int = 5
    master_seed: int = 0
    theta0: Theta0Spec = Theta0Spec()

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    def fingerprint(self) -> str:
        blob = json.dumps({
            "objective": [self.objective.kind.value, self.objective.dim,
                          self.objective.noise_sigma],
            "estimator_kind": self.estimator_kind.value,
            "estimator": [self.estimator.mu, self.estimator.k, self.estimator.n,
                          self.estimator.tag.name],
            "optimizer": [self.optimizer.rule.value, self.optimizer.eta,
                          self.optimizer.beta1, self.optimizer.beta2,
                          self.optimizer.zeta, self.optimizer.bias_correction],
            "iterations": self.iterations,
            "repeats": self.repeats,
            "master_seed": self.master_seed,
            "theta0": [self.theta0.mode.value, self.theta0.value,
                       self.theta0.lo, self.theta0.hi],
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_experiment(cfg: RunConfig) -> list[Trace]:
    """One trace per repeat, with per-repeat derived seeds.

    The repeat's initial point and query streams depend only on
    (master_seed, repeat index), so different estimators compared under
    the same master seed see matched initial points and directions.
    Repeats advance in lockstep groups of as many as fit their history
    rings in ``LOCKSTEP_BUDGET`` bytes, and at least one; a repeat's
    trace does not depend on the group it ran in.
    """
    seeds = [sampling.repeat_seed(cfg.master_seed, r) for r in range(cfg.repeats)]
    ring_bytes = cfg.estimator.n * cfg.estimator.k * cfg.objective.dim * 8
    group = max(1, LOCKSTEP_BUDGET // ring_bytes)
    traces = []
    for lo in range(0, cfg.repeats, group):
        run_seeds = seeds[lo:lo + group]
        theta0 = [cfg.theta0.build(cfg.objective.dim, sampling.theta0_seed(s))
                  for s in run_seeds]
        traces += run_optimization(cfg.objective, cfg.estimator_kind, cfg.estimator,
                                   cfg.optimizer, cfg.iterations, run_seeds, theta0)
    return traces


@dataclass(frozen=True)
class Aggregate:
    """Per-iteration mean/std of the gap across completed repeats."""

    iters: np.ndarray
    mean_gap: np.ndarray
    std_gap: np.ndarray
    n: int
    excluded: int = 0

    def final_mean_gap(self) -> float:
        return float(self.mean_gap[-1])


def aggregate(traces: list[Trace]) -> Aggregate:
    """Elementwise mean and population std across repeats; diverged
    traces are excluded (their count is reported)."""
    kept = [t for t in traces if t.completed]
    excluded = len(traces) - len(kept)
    if not kept:
        raise ValueError("no completed traces to aggregate")
    lengths = {len(t.rows) for t in kept}
    if len(lengths) != 1:
        raise ValueError("completed traces disagree on length")
    gaps = np.array([[row.gap for row in t.rows] for t in kept])
    iters = np.array([row.iter for row in kept[0].rows])
    return Aggregate(iters=iters, mean_gap=gaps.mean(axis=0),
                     std_gap=gaps.std(axis=0), n=len(kept), excluded=excluded)


def _first_at_or_below(agg: Aggregate, target: float) -> int | None:
    hits = np.nonzero(agg.mean_gap <= target)[0]
    return int(agg.iters[hits[0]]) if hits.size else None


def speedup(reference: Aggregate, candidate: Aggregate, target_gap: float) -> float | None:
    """Iterations for the reference to reach the target gap divided by
    iterations for the candidate; None when either never reaches it."""
    ref = _first_at_or_below(reference, target_gap)
    cand = _first_at_or_below(candidate, target_gap)
    if ref is None or cand is None:
        return None
    if cand == 0:
        return 1.0 if ref == 0 else float("inf")
    return ref / cand


def queries_speedup(reference: Aggregate, reference_traces: list[Trace],
                    candidate: Aggregate, candidate_traces: list[Trace],
                    target_gap: float) -> float | None:
    """Speedup measured in cumulative queries instead of iterations."""
    def queries_at(agg, traces, target):
        it = _first_at_or_below(agg, target)
        if it is None:
            return None
        kept = [t for t in traces if t.completed and len(t.rows) > it]
        if not kept:
            return None
        return float(np.mean([t.rows[it].queries_cum for t in kept]))

    ref = queries_at(reference, reference_traces, target_gap)
    cand = queries_at(candidate, candidate_traces, target_gap)
    if ref is None or cand is None:
        return None
    if cand == 0.0:
        return 1.0 if ref == 0.0 else float("inf")
    return ref / cand


# ---------------------------------------------------------------------------
# file output

def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: Trace, path) -> None:
    lines = [TRACE_HEADER]
    for row in trace.rows:
        lines.append(f"{row.iter},{row.queries_cum},{_fmt(row.f_clean)},"
                     f"{_fmt(row.gap)},{_fmt(row.wall_ms)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for line in fh:
            it, q, f, g, w = line.strip().split(",")
            rows.append(TraceRow(int(it), int(q), float(f), float(g), float(w)))
    return Trace(rows=rows)


def write_aggregate_csv(agg: Aggregate, path) -> None:
    lines = [AGGREGATE_HEADER]
    for i in range(agg.iters.shape[0]):
        lines.append(f"{int(agg.iters[i])},{_fmt(agg.mean_gap[i])},"
                     f"{_fmt(agg.std_gap[i])},{agg.n}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_aggregate_csv(path) -> Aggregate:
    iters, means, stds, ns = [], [], [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != AGGREGATE_HEADER:
            raise ValueError(f"line 1: unexpected aggregate header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                iters.append(int(parts[0]))
                means.append(float(parts[1]))
                stds.append(float(parts[2]))
                ns.append(int(parts[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed numeric field") from None
    if not iters:
        raise ValueError("line 2: aggregate file has no data rows")
    return Aggregate(iters=np.array(iters), mean_gap=np.array(means),
                     std_gap=np.array(stds), n=ns[0])


# ---------------------------------------------------------------------------
# plotting (self-contained SVG, no plotting dependency)

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f"]


def emit_plot_svg(named_aggregates: list[tuple[str, Aggregate]], path,
                  log_y: bool = False) -> None:
    """Write a line chart of mean gap vs iteration, one polyline per series."""
    if not named_aggregates:
        raise ValueError("nothing to plot")
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb

    def ymap(values: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(values, LOG_FLOOR)) if log_y else values

    all_y = np.concatenate([ymap(agg.mean_gap) for _, agg in named_aggregates])
    all_x = np.concatenate([agg.iters for _, agg in named_aggregates])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
             f'stroke="#444"/>']
    for i in range(5):
        yv = y_lo + (y_hi - y_lo) * i / 4
        label = f"1e{yv:.1f}" if log_y else f"{yv:.3g}"
        parts.append(f'<line x1="{ml}" x2="{ml + pw}" y1="{py(yv):.1f}" '
                     f'y2="{py(yv):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 6}" y="{py(yv) + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
        xv = x_lo + (x_hi - x_lo) * i / 4
        parts.append(f'<text x="{px(xv):.1f}" y="{mt + ph + 16}" font-size="11" '
                     f'text-anchor="middle">{xv:.5g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" font-size="12" '
                 f'text-anchor="middle">iteration</text>')
    for idx, (name, agg) in enumerate(named_aggregates):
        color = _PALETTE[idx % len(_PALETTE)]
        ys = ymap(agg.mean_gap)
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                       for x, y in zip(agg.iters, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{ml + 8}" x2="{ml + 30}" y1="{ly}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + 36}" y="{ly + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
