"""Experiment orchestration: multi-seed runs, aggregation, speedups, output."""

import enum
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from . import sampling
from .estimators import EstimatorConfig
from .objectives import ObjectiveSpec
from .optimizers import Arm, EstimatorKind, OptimizerConfig, Trace, run_optimization

TRACE_HEADER = "iter,queries_cum,f_clean,gap,wall_ms"
AGGREGATE_HEADER = "iter,mean_gap,std_gap,n"
LOG_FLOOR = 1e-16  # gap values are clamped here before log-scale plotting


class Theta0Mode(enum.Enum):
    FIXED = "fixed"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Theta0Spec:
    mode: Theta0Mode = Theta0Mode.UNIFORM
    value: float = 0.0  # fixed mode: every coordinate
    lo: float = -2.0
    hi: float = 2.0

    def __post_init__(self):
        for name in ("value", "lo", "hi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"theta0 {name} must be finite, got {value}")
        if self.lo > self.hi:
            raise ValueError(f"theta0 lo must not exceed hi, got lo={self.lo}, hi={self.hi}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"theta0 range hi - lo overflows: lo={self.lo}, hi={self.hi}")

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
        for name in ("iterations", "repeats", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 0 or self.repeats < 1:
            raise ValueError("iterations must be >= 0 and repeats >= 1")
        if not 0 <= self.master_seed <= kernels.MASK64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")

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


def _starts(cfg: RunConfig, seeds: list[int]) -> np.ndarray:
    return np.array([cfg.theta0.build(cfg.objective.dim, sampling.theta0_seed(s))
                     for s in seeds])


def run_experiment(cfg: RunConfig) -> list[Trace]:
    """One trace per repeat: the sweep of one cell (:func:`run_sweep`).
    No command calls it; it stays for perfbench's tracer and the tests."""
    return run_sweep([cfg])[0]


def _stream(cfg: RunConfig) -> tuple:
    """What fixes a cell's run seeds: the repeats of its master seed, and
    how many iterations each draws."""
    return (cfg.master_seed, cfg.repeats, cfg.iterations)


def run_sweep(cfgs: list[RunConfig]) -> list[list[Trace]]:
    """Each cell's traces, one per repeat, with per-repeat derived seeds.

    A repeat's initial point and query streams depend only on
    (master_seed, repeat index), so different estimators compared under
    the same master seed see matched initial points and directions.  The
    cells that share a :func:`_stream` run as the arms of one
    :func:`run_optimization` call, which takes every repeat's seed and
    start and decides which arms share each chunk of directions and which
    arms and repeats advance in lockstep.  A repeat's trace does not
    depend on the cells it ran with.
    """
    streams: dict = {}
    for i, cfg in enumerate(cfgs):
        streams.setdefault(_stream(cfg), []).append(i)
    traces: list[list[Trace]] = [[] for _ in cfgs]
    for cells in streams.values():
        first = cfgs[cells[0]]
        seeds = [sampling.repeat_seed(first.master_seed, r) for r in range(first.repeats)]
        arms = [Arm(c.objective, c.estimator_kind, c.estimator, c.optimizer, _starts(c, seeds))
                for c in (cfgs[i] for i in cells)]
        for i, arm_traces in zip(cells, run_optimization(arms, first.iterations, seeds)):
            traces[i] = arm_traces
    return traces


@dataclass(frozen=True)
class Aggregate:
    """Per-iteration mean/std of the gap across completed repeats (entry i: iteration i)."""

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
    lengths = {t.f_clean.size for t in kept}
    if len(lengths) != 1:
        raise ValueError("completed traces disagree on length")
    # every objective's minimum is 0, so the gap is the clean value
    gaps = np.array([t.f_clean for t in kept])
    return Aggregate(mean_gap=gaps.mean(axis=0), std_gap=gaps.std(axis=0), n=len(kept),
                     excluded=excluded)


def _first_at_or_below(agg: Aggregate, target: float) -> int | None:
    hits = np.nonzero(agg.mean_gap <= target)[0]
    return int(hits[0]) if hits.size else None


def _ratio(ref, cand) -> float | None:
    """ref / cand; None when either is None, 1 when both are 0, inf when
    only cand is."""
    if ref is None or cand is None:
        return None
    if cand == 0:
        return 1.0 if ref == 0 else float("inf")
    return ref / cand


def speedup(reference: Aggregate, candidate: Aggregate, target_gap: float) -> float | None:
    """Iterations for the reference to reach the target gap divided by
    iterations for the candidate; None when either never reaches it."""
    return _ratio(_first_at_or_below(reference, target_gap),
                  _first_at_or_below(candidate, target_gap))


def queries_speedup(reference: Aggregate, reference_traces: list[Trace],
                    candidate: Aggregate, candidate_traces: list[Trace],
                    target_gap: float) -> float | None:
    """Speedup measured in cumulative queries instead of iterations."""
    def queries_at(agg, traces, target):
        # one run's repeats share the per-iteration count
        it = _first_at_or_below(agg, target)
        done = [t.queries_per_iter for t in traces if t.completed]
        return None if it is None or not done else float(it * done[0])

    return _ratio(queries_at(reference, reference_traces, target_gap),
                  queries_at(candidate, candidate_traces, target_gap))


# ---------------------------------------------------------------------------
# file output

def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: Trace, path) -> None:
    """One line per iteration i: i, i*q, f, its gap (f, since every
    objective's minimum is 0) and wall_ms; a diverged trace's last line
    holds the value that stopped it, so its reader sees the divergence."""
    q = trace.queries_per_iter
    lines = [TRACE_HEADER]
    for i, (f, w) in enumerate(zip(trace.f_clean.tolist(), trace.wall_ms.tolist())):
        f = _fmt(f)
        lines.append(f"{i},{i * q},{f},{f},{_fmt(w)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Read a trace file back; its rows must agree with the columns they
    are written from (``write_trace_csv``)."""
    f_clean, wall_ms, q = [], [], 0
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"line 1: unexpected trace header: {header!r}")
        for i, line in enumerate(fh):
            try:
                it, queries, f, gap, w = line.strip().split(",")
                it, queries, f, gap, w = int(it), int(queries), float(f), float(gap), float(w)
            except ValueError:
                raise ValueError(f"line {i + 2}: expected 5 numeric fields") from None
            q = queries if it == 1 else q
            if it != i or queries != it * q or gap != f:
                raise ValueError(f"line {i + 2}: want iter = row index, queries_cum = "
                                 f"iter * row 1's and gap = f_clean, got {line.strip()!r}")
            f_clean.append(f)
            wall_ms.append(w)
    return Trace(np.array(f_clean), np.array(wall_ms), q)


def write_aggregate_csv(agg: Aggregate, path) -> None:
    lines = [AGGREGATE_HEADER]
    for i in range(agg.mean_gap.shape[0]):
        lines.append(f"{i},{_fmt(agg.mean_gap[i])},"
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
            # every objective's minimum is 0, so a gap and its spread are >= 0
            if not (0.0 <= means[-1] < math.inf and 0.0 <= stds[-1] < math.inf):
                raise ValueError(f"line {lineno}: mean_gap and std_gap must be finite and >= 0")
            if iters[-1] != lineno - 2:
                raise ValueError(f"line {lineno}: expected iter {lineno - 2}, got {iters[-1]}")
            if ns[-1] < 1 or ns[-1] != ns[0]:
                raise ValueError(f"line {lineno}: n must be the same integer >= 1 on every "
                                 f"row, got {ns[-1]}")
    if not iters:
        raise ValueError("line 2: aggregate file has no data rows")
    return Aggregate(mean_gap=np.array(means), std_gap=np.array(stds), n=ns[0])


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
    x_lo, x_hi = 0.0, float(max(agg.mean_gap.shape[0] for _, agg in named_aggregates) - 1)
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
                       for x, y in enumerate(ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{ml + 8}" x2="{ml + 30}" y1="{ly}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + 36}" y="{ly + 4}" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
