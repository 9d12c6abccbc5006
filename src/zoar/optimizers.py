"""Parameter update rules and the query-driven optimization loop, whose
one entry is :func:`run_optimization`: a list of arms run in lockstep."""

import dataclasses
import enum
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, HistoryBuffer

DIVERGENCE_LIMIT = 1e12

# direction entries (runs x iterations x k x d) drawn per chunk for every
# run of a lockstep group; a chunk holds at least one iteration.
# Directions depend on seeds alone, so the loop draws a chunk of
# iterations' directions in one kernel call, which spreads the call's
# fixed cost over small steps.  The chunk sets the loop's peak memory: on
# a d=100, k=10, 5-repeat sweep (pure backend) 2**14 draws 3 iterations
# at a time and raised the peak RSS 0.6 %; 2**16 (13 iterations) raised
# it 4.3 % for about 3 % more speed.
CHUNK_ELEMENTS = 1 << 14

# point entries (points x d) per objective evaluation: each step writes the
# queries of the running arms that share an objective into one buffer and
# evaluates them in one call, as many arms as fit this or the largest of
# those arms (:func:`pack`), so small steps share the evaluation's fixed
# cost (validation, point digests, seed fold and noise draw).  A d=100,
# k=10, 5-repeat sweep of four arms (21 000 entries) makes one call per
# step; at d=10**4 two arms' queries exceed the larger one's, and each
# arm is evaluated alone.
BATCH_ELEMENTS = 2 * CHUNK_ELEMENTS

# history and direction entries (1 MiB) a lockstep group of runs may hold
# (run_optimization): a group grows peak memory by its size, and past this the
# per-step Python overhead that lockstep saves is small beside the arithmetic
LOCKSTEP_ELEMENTS = 1 << 17


class UpdateRule(enum.Enum):
    SGD = "sgd"
    ADAMM = "adamm"
    RADAZO = "radazo"

    @classmethod
    def parse(cls, name: str) -> "UpdateRule":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown update rule: {name!r}") from None


class EstimatorKind(enum.Enum):
    VANILLA = "vanilla"
    ZOHS = "zohs"
    ZOAR = "zoar"

    @classmethod
    def parse(cls, name: str) -> "EstimatorKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown estimator kind: {name!r}") from None


@dataclass(frozen=True)
class OptimizerConfig:
    rule: UpdateRule = UpdateRule.RADAZO
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    zeta: float = 1e-8
    bias_correction: bool = False  # adaptive rules only; off mirrors the moment loop

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not (self.zeta > 0 and math.isfinite(self.zeta)):
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")


def sgd_step(theta: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    return theta - cfg.eta * grad


def adamm_step(theta: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
               cfg: OptimizerConfig, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam-style step t (from 1): the second moment tracks squared
    gradients.  Returns the new (theta, m, v)."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
    if cfg.bias_correction:
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
    else:
        m_hat, v_hat = m, v
    return theta - cfg.eta * m_hat / np.sqrt(v_hat + cfg.zeta), m, v


def radazo_step(theta: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray,
                cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance-refined adaptive step: the second moment is an EMA of the
    *squared first moment*, and no bias correction is applied.  Returns
    the new (theta, m, v).

    Since v_t >= (1-beta2) m_t^2 elementwise, each coordinate moves by at
    most eta / sqrt(1 - beta2) per step.
    """
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * m * m
    return theta - cfg.eta * m / np.sqrt(v + cfg.zeta), m, v


@dataclass
class Trace:
    """One run's log as columns: entry t of ``f_clean`` and ``wall_ms`` is
    iteration t (entry 0 the start), and every iteration spends
    ``queries_per_iter`` evaluations.  A run stops after the first value
    past the divergence limit (``inf`` for non-finite parameters), so its
    outcome is read from the last row: a last value past the limit makes
    the run diverged at that row's iteration."""

    f_clean: np.ndarray
    wall_ms: np.ndarray
    queries_per_iter: int

    @property
    def diverged_at(self) -> int | None:
        f = self.f_clean
        return f.size - 1 if f.size and not abs(f[-1]) <= DIVERGENCE_LIMIT else None

    @property
    def completed(self) -> bool:
        return self.diverged_at is None

    @property
    def status(self) -> str:
        return "completed" if self.completed else "diverged"

    @property
    def rows(self) -> range:
        """The logged iterations (the ``iter`` column), which perfbench counts."""
        return range(self.f_clean.size)


@dataclass(frozen=True, eq=False)
class Arm:
    """One estimator configuration of a lockstep loop with its R runs'
    (R, d) starts ``theta0``; every arm of a loop draws the same seeds."""

    obj: objectives.ObjectiveSpec
    kind: EstimatorKind
    est_cfg: EstimatorConfig
    opt_cfg: OptimizerConfig
    theta0: np.ndarray

    @property
    def queries_per_iter(self) -> int:
        # the difference estimators query k points and the centre; the reuse
        # estimator reads the ring, so it needs no centre
        return self.est_cfg.k if self.kind is EstimatorKind.ZOAR else self.est_cfg.k + 1

    @property
    def history_elements(self) -> int:
        # one run's ZoAR ring of n*k*d entries or ZOHS window of n*d (_start)
        n, k, d = self.est_cfg.n, self.est_cfg.k, self.obj.dim
        return {EstimatorKind.ZOAR: n * k * d, EstimatorKind.ZOHS: n * d}.get(self.kind, 0)


@dataclass
class LoopState:
    """One arm mid-loop; row i of each row array is run ``live[i]``'s:
    ``theta``, ``m``, ``v`` (R, d), the ZOHS window ``grads`` (R, n, d) of
    the latest gradients, oldest first (shorter for the first n-1 steps,
    (R, 0, d) for other kinds), and the ZoAR ``ring``.  The log is indexed
    by run: ``f_clean`` (R, T+1), the shared ``wall_ms`` (T+1,) column and
    ``ends``, the entries each run logs."""

    live: np.ndarray
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grads: np.ndarray
    ring: HistoryBuffer | None
    f_clean: np.ndarray
    wall_ms: np.ndarray
    ends: np.ndarray

    def keep(self, ok: np.ndarray) -> None:
        """Drop the rows whose ``ok`` entry is False."""
        if ok.all():
            return
        self.live, self.theta = self.live[ok], self.theta[ok]
        self.m, self.v, self.grads = self.m[ok], self.v[ok], self.grads[ok]
        if self.ring is not None:
            self.ring.keep(ok)


def _step(s: LoopState, arm: Arm, t: int, dirs: np.ndarray, values: np.ndarray) -> None:
    """Move every row of ``s`` through iteration t with its (R, k, d)
    ``dirs`` and the (R, q) observed values of its queries: estimate,
    update."""
    est_cfg, opt_cfg = arm.est_cfg, arm.opt_cfg
    if arm.kind is EstimatorKind.ZOAR:
        s.ring.push_block(dirs, values)
        grad = estimators.zoar_estimate(s.ring, est_cfg.mu)
    else:
        grad = estimators.difference_gradient(values, dirs, est_cfg)
        if arm.kind is EstimatorKind.ZOHS:
            full = s.grads.shape[1] == est_cfg.n  # then the oldest drops out
            s.grads = np.concatenate((s.grads[:, int(full):], grad[:, None]), axis=1)
            grad = estimators.zohs_estimate(s.grads)
    if opt_cfg.rule is UpdateRule.SGD:
        s.theta = sgd_step(s.theta, grad, opt_cfg)
    elif opt_cfg.rule is UpdateRule.ADAMM:
        s.theta, s.m, s.v = adamm_step(s.theta, s.m, s.v, grad, opt_cfg, t)
    else:
        s.theta, s.m, s.v = radazo_step(s.theta, s.m, s.v, grad, opt_cfg)


def _start(arm: Arm, R: int, iterations: int) -> LoopState:
    """The arm's state at iteration 0, its start logged and checked like
    any iteration's value (:func:`_check`): a start past the divergence
    limit is diverged at iteration 0 and never queried."""
    theta, d = np.array(arm.theta0, dtype=np.float64), arm.obj.dim
    ring = (HistoryBuffer(arm.est_cfg.k, arm.est_cfg.n, arm.est_cfg.tag, d, rows=R)
            if arm.kind is EstimatorKind.ZOAR else None)
    s = LoopState(np.arange(R), theta, np.zeros((R, d)), np.zeros((R, d)),
                  np.empty((R, 0, d)), ring, np.empty((R, iterations + 1)),
                  np.zeros(iterations + 1), np.full(R, iterations + 1))
    _check([s], arm.obj, 0)
    return s


def pack(keys, sizes, budget: int) -> list[list[int]]:
    """Indices of the items grouped by equal key, in first-seen order, and
    cut into consecutive bins whose sizes sum to at most the larger of
    ``budget`` and that key's largest item; every bin holds one item or
    more."""
    by_key: dict = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    bins = []
    for items in by_key.values():
        cap = max(budget, max(sizes[i] for i in items))
        bin_, used = [], 0
        for i in items:
            if bin_ and used + sizes[i] > cap:
                bins.append(bin_)
                bin_, used = [], 0
            bin_.append(i)
            used += sizes[i]
        bins.append(bin_)
    return bins


def _query(batch: list, dirs: np.ndarray, noise: np.ndarray, d: int) -> list:
    """Evaluate one iteration's queries of the (arm, state) pairs ``batch``
    in one ``objectives.eval`` call, from every run's (R, k, d) ``dirs``
    and (R,) ``noise`` seeds: each row's k points (and the centre for the
    difference estimators) go into one buffer with their row's noise
    seed.  Returns each arm's directions of its live rows (views while it
    runs all R) and (R, q) values; the buffer goes when this returns,
    before any estimate is formed."""
    reads = [(dirs, noise) if s.live.size == dirs.shape[0] else (dirs[s.live], noise[s.live])
             for _, s in batch]
    counts = [s.live.size * arm.queries_per_iter for arm, s in batch]
    points = np.empty((sum(counts), d))
    seeds = np.empty(sum(counts), dtype=np.uint64)
    bounds = list(itertools.accumulate(counts, initial=0))
    for (arm, s), (dirs, noise), lo, hi in zip(batch, reads, bounds, bounds[1:]):
        q = arm.queries_per_iter
        estimators.write_points(points[lo:hi].reshape(-1, q, d), s.theta, arm.est_cfg.mu,
                                dirs, centre=arm.kind is not EstimatorKind.ZOAR)
        seeds[lo:hi].reshape(-1, q)[:] = noise[:, None]
    values = objectives.eval(batch[0][0].obj, points, seeds)
    return [(dirs, values[lo:hi].reshape(-1, arm.queries_per_iter))
            for (arm, _), (dirs, _), lo, hi in zip(batch, reads, bounds, bounds[1:])]


def _check(states: list[LoopState], obj: objectives.ObjectiveSpec, t: int) -> None:
    """Log iteration t's clean values of ``states``, all on ``obj``, from
    one ``clean_value`` call, ``inf`` for parameters gone non-finite, and
    stop the rows whose value is past the divergence limit: that value is
    their last row."""
    oks = [np.all(np.isfinite(s.theta), axis=1) for s in states]
    values = objectives.clean_value(obj, np.concatenate([s.theta[ok]
                                                         for s, ok in zip(states, oks)]))
    bounds = list(itertools.accumulate((np.count_nonzero(ok) for ok in oks), initial=0))
    for s, ok, lo, hi in zip(states, oks, bounds, bounds[1:]):
        f = np.full(s.live.size, np.inf)
        f[ok] = values[lo:hi]
        ok &= np.abs(f) <= DIVERGENCE_LIMIT
        s.f_clean[s.live, t] = f
        s.ends[s.live[~ok]] = t + 1
        s.keep(ok)


def _advance(running: list, dirs: np.ndarray, noise: np.ndarray, t: int,
             d: int) -> tuple[list[float], float]:
    """Move the running (arm, state) pairs through iteration t, with every
    run's (R, k, d) ``dirs`` and (R,) ``noise`` seeds, a batch at a time:
    one evaluation, each arm's :func:`_step`, one check.  Returns each
    arm's own time (its step) and the batches' shared time.  Nothing here
    outlives the call, so no view of the chunk or of a batch buffer is
    kept while the loop draws the next chunk."""
    own, shared = [0.0] * len(running), 0.0
    for batch in pack([arm.obj for arm, _ in running],
                      [s.live.size * arm.queries_per_iter * d for arm, s in running],
                      BATCH_ELEMENTS):
        tic = time.perf_counter()
        queried = _query([running[i] for i in batch], dirs, noise, d)
        shared += time.perf_counter() - tic
        for i, (arm_dirs, values) in zip(batch, queried):
            tic = time.perf_counter()
            _step(running[i][1], running[i][0], t, arm_dirs, values)
            own[i] = time.perf_counter() - tic
        tic = time.perf_counter()
        _check([running[i][1] for i in batch], running[batch[0]][0].obj, t)
        shared += time.perf_counter() - tic
    return own, shared


def run_optimization(arms, iterations: int, seeds) -> list[list[Trace]]:
    """Run the loop (sample, query, estimate, update, log) of every arm
    for R ``seeds``; returns each arm's R traces.  This is the loop's one
    entry: one estimator is a list of one arm, and a call takes every run
    of a seed stream.

    Run r of every arm draws from seed r's streams; the arms that share
    k, the direction law and the dimension share one draw of its
    directions.  The call cuts its lockstep groups itself: it packs the
    arms (:func:`pack`) by that direction stream, each bin holding the
    history a run of its arms keeps up to ``LOCKSTEP_ELEMENTS`` or its
    largest arm's, and a group takes as many runs as fit that budget with
    one iteration's k*d directions, and at least one.  Each run gets the
    trace it would get alone.  A run stops after the first clean value
    past the divergence limit (``inf`` when its parameters go non-finite),
    which is its trace's last row; the start is checked by the same rule,
    so a start past the limit is diverged at iteration 0 and never
    queried.  A non-finite query value, of any kind, ends its run like any
    non-finite number, and the loop reports no RuntimeWarning for it.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not arms:
        raise ValueError("a loop needs at least one arm")
    if not seeds.size:
        raise ValueError("a loop needs at least one run seed")
    R = seeds.size
    for arm in arms:
        shape, want = np.shape(arm.theta0), (R, arm.obj.dim)
        if seeds.ndim != 1 or shape != want:
            raise ValueError(f"expected a sequence of run seeds and initial points of shape "
                             f"{want}, got seeds of shape {seeds.shape} and {shape}")
        if not np.all(np.isfinite(arm.theta0)):
            raise ValueError("initial point contains non-finite entries")
        if arm.kind is EstimatorKind.ZOAR:
            arm.est_cfg.require_reusable()

    traces: list[list[Trace]] = [[] for _ in arms]
    history = [arm.history_elements for arm in arms]
    streams = [(arm.est_cfg.k, arm.est_cfg.tag, arm.obj.dim) for arm in arms]
    for group in pack(streams, history, LOCKSTEP_ELEMENTS):
        k, _, d = streams[group[0]]
        rows = max(1, LOCKSTEP_ELEMENTS // (k * d + sum(history[i] for i in group)))
        for lo in range(0, R, rows):
            runs = _run_group([dataclasses.replace(arms[i], theta0=arms[i].theta0[lo:lo + rows])
                               for i in group], iterations, seeds[lo:lo + rows])
            for i, arm_traces in zip(group, runs):
                traces[i] += arm_traces
    return traces


def _run_group(arms, iterations: int, seeds: np.ndarray) -> list[list[Trace]]:
    """One lockstep group of :func:`run_optimization`, whose arms share
    one direction stream (k, law, d): every arm's R runs advance
    together.  Directions are drawn a chunk of iterations at a time (at
    most ``CHUNK_ELEMENTS`` entries, at least one iteration) for all R
    runs, once for all arms, even for a run that stopped in every arm.
    Each step evaluates the queries of the arms that share an objective
    with one ``objectives.eval`` call (at most ``BATCH_ELEMENTS`` point
    entries or the largest arm's), moves each arm's live runs with
    :func:`_step` and checks them with one ``clean_value`` call.  An
    arm's ``wall_ms`` is its own step's time plus an equal share, among
    the running arms, of the step's shared work (draw, evaluations,
    checks), divided by its rows still running."""
    R, k, tag, d = seeds.size, arms[0].est_cfg.k, arms[0].est_cfg.tag, arms[0].obj.dim
    roots = sampling.stream_roots(seeds)
    per_chunk = max(1, CHUNK_ELEMENTS // (R * k * d))
    with np.errstate(over="ignore", invalid="ignore"):
        states = [_start(arm, R, iterations) for arm in arms]
        for t in range(1, iterations + 1):
            running = [(arm, s) for arm, s in zip(arms, states) if s.live.size]
            if not running:
                break
            tic = time.perf_counter()
            c = (t - 1) % per_chunk
            if c == 0:
                dirs = None  # release the old chunk before drawing the next
                dir_seeds, noise = sampling.iteration_seeds(
                    roots, range(t, min(t + per_chunk, iterations + 1)), k)
                dirs = estimators.directions(dir_seeds, tag, d)
            drawing = time.perf_counter() - tic
            rows = [s.live.size for _, s in running]
            own, shared = _advance(running, dirs[:, c], noise[:, c], t, d)
            share = (drawing + shared) / len(running)
            for (_, s), n, spent in zip(running, rows, own):
                s.wall_ms[t] = (spent + share) * 1000.0 / n

    return [[Trace(s.f_clean[r, :end], s.wall_ms[:end], arm.queries_per_iter)
             for r, end in enumerate(s.ends.tolist())]
            for arm, s in zip(arms, states)]
