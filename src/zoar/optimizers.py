"""Parameter update rules and the query-driven optimization loop."""

import enum
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, HistoryBuffer
from .sampling import DistTag

DIVERGENCE_LIMIT = 1e12

# direction entries (rows x iterations x k x d) drawn per chunk; a chunk
# holds at least one iteration.  Directions depend on seeds alone, so the
# loop draws a chunk of iterations' directions in one kernel call, which
# spreads the call's fixed cost over small steps.  The chunk sets the
# loop's peak memory: on a d=100, k=10, 5-repeat sweep (pure backend)
# 2**14 draws 3 iterations at a time and raised the peak RSS 0.6 %;
# 2**16 (13 iterations) raised it 4.3 % for about 3 % more speed.
CHUNK_ELEMENTS = 1 << 14

# point entries (points x d) per objective evaluation: each step writes the
# queries of the running arms that share an objective into one buffer and
# evaluates them in one call, as many arms as fit and at least one, so
# small steps share the evaluation's fixed cost (validation, point
# digests, seed fold and noise draw).  A d=100, k=10, 5-repeat sweep of
# four arms (21 000 entries) makes one call per step; at d=10**4 one
# arm's queries exceed it, and each arm is evaluated alone.
BATCH_ELEMENTS = 2 * CHUNK_ELEMENTS


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
    REINFORCE_GS = "reinforce_gs"
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
    ``queries_per_iter`` evaluations.  A run that diverged at iteration
    ``diverged_at`` logs iterations 0 to ``diverged_at - 1``."""

    f_clean: np.ndarray
    wall_ms: np.ndarray
    queries_per_iter: int
    diverged_at: int | None = None

    @property
    def completed(self) -> bool:
        return self.diverged_at is None

    @property
    def status(self) -> str:
        return "completed" if self.diverged_at is None else "diverged"

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


@dataclass
class Chunk:
    """Seeds and directions drawn for the runs ``rows`` (sorted): ``dirs``
    (R, C, k, d) and ``noise_seeds`` (R, C) of iterations ``first`` to
    ``first + C - 1``."""

    rows: np.ndarray
    dirs: np.ndarray
    noise_seeds: np.ndarray
    first: int = 1

    def read(self, live: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Iteration t's (R, k, d) directions and (R,) noise seeds of the
        runs ``live``, a subset of ``rows``; views while no row has left."""
        c = t - self.first
        if live.size == self.rows.size:
            return self.dirs[:, c], self.noise_seeds[:, c]
        at = np.searchsorted(self.rows, live)
        return self.dirs[at, c], self.noise_seeds[at, c]


def _draw(roots: np.ndarray, rows: np.ndarray, t: int, iterations: int, k: int,
          tag: DistTag, d: int) -> Chunk:
    """The chunk of runs ``rows`` from iteration t: as many iterations as
    fit ``CHUNK_ELEMENTS`` direction entries, at least one."""
    size = min(iterations + 1 - t, max(1, CHUNK_ELEMENTS // (rows.size * k * d)))
    dir_seeds, noise_seeds = sampling.iteration_seeds(roots[:, rows], range(t, t + size), k)
    return Chunk(rows, estimators.directions(dir_seeds, tag, d), noise_seeds, t)


def _step(s: LoopState, arm: Arm, t: int, dirs: np.ndarray, values: np.ndarray) -> None:
    """Move every row of ``s`` through iteration t with its (R, k, d)
    ``dirs`` and the (R, q) observed values of its queries: estimate,
    update."""
    est_cfg, opt_cfg = arm.est_cfg, arm.opt_cfg
    if arm.kind is EstimatorKind.ZOAR:
        s.ring.push_block(dirs, values)
        # k = 1 warm-up: a single query pins the baseline to its own value,
        # so the estimate is identically zero
        grad = (estimators.zoar_estimate(s.ring, est_cfg.mu) if len(s.ring) >= 2
                else np.zeros_like(s.theta))
    else:
        # vanilla and the score-function twin share one kernel
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
    """The arm's state at iteration 0, its start logged; a start past the
    divergence limit is diverged at iteration 1."""
    theta, d = np.array(arm.theta0, dtype=np.float64), arm.obj.dim
    ring = (HistoryBuffer(arm.est_cfg.k, arm.est_cfg.n, arm.est_cfg.tag, d, rows=R)
            if arm.kind is EstimatorKind.ZOAR else None)
    s = LoopState(np.arange(R), theta, np.zeros((R, d)), np.zeros((R, d)),
                  np.empty((R, 0, d)), ring, np.empty((R, iterations + 1)),
                  np.zeros(iterations + 1), np.full(R, iterations + 1))
    s.f_clean[:, 0] = objectives.clean_value(arm.obj, theta)
    ok = np.abs(s.f_clean[:, 0]) <= DIVERGENCE_LIMIT
    s.ends[~ok] = 1
    s.keep(ok)
    return s


def _batches(running: list, d: int) -> list[list[int]]:
    """Indices into ``running`` of the arms evaluated together: arms with
    equal objectives, in arm order, at most ``BATCH_ELEMENTS`` point
    entries per batch and at least one arm."""
    by_obj: dict[objectives.ObjectiveSpec, list[int]] = {}
    for i, (arm, _) in enumerate(running):
        by_obj.setdefault(arm.obj, []).append(i)
    batches = []
    for arms in by_obj.values():
        batch, size = [], 0
        for i in arms:
            arm, s = running[i]
            entries = s.live.size * arm.queries_per_iter * d
            if batch and size + entries > BATCH_ELEMENTS:
                batches.append(batch)
                batch, size = [], 0
            batch.append(i)
            size += entries
        batches.append(batch)
    return batches


def _query(batch: list, chunk: Chunk, t: int, d: int) -> list:
    """Evaluate iteration t's queries of the (arm, state) pairs ``batch``
    in one ``objectives.eval`` call: each row's k points (and the centre
    for the difference estimators) go into one buffer with their row's
    noise seed.  Returns each arm's (R, k, d) directions and (R, q) values;
    the buffer goes when this returns, before any estimate is formed."""
    reads = [chunk.read(s.live, t) for _, s in batch]
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
    one ``clean_value`` call, and stop the rows whose parameters went
    non-finite or whose value passed the divergence limit."""
    oks = [np.all(np.isfinite(s.theta), axis=1) for s in states]
    values = objectives.clean_value(obj, np.concatenate([s.theta[ok]
                                                         for s, ok in zip(states, oks)]))
    bounds = list(itertools.accumulate((np.count_nonzero(ok) for ok in oks), initial=0))
    for s, ok, lo, hi in zip(states, oks, bounds, bounds[1:]):
        f = np.full(s.live.size, np.inf)
        f[ok] = values[lo:hi]
        ok &= np.abs(f) <= DIVERGENCE_LIMIT
        s.f_clean[s.live, t] = f
        s.ends[s.live[~ok]] = t
        s.keep(ok)


def _advance(running: list, chunk: Chunk, t: int, d: int) -> tuple[list[float], float]:
    """Move the running (arm, state) pairs through iteration t, a batch
    at a time: one evaluation, each arm's :func:`_step`, one check.
    Returns each arm's own time (its step) and the batches' shared time.
    Nothing here outlives the call, so no view of ``chunk`` or of a batch
    buffer is kept while the loop draws the next chunk."""
    own, shared = [0.0] * len(running), 0.0
    for batch in _batches(running, d):
        tic = time.perf_counter()
        queried = _query([running[i] for i in batch], chunk, t, d)
        shared += time.perf_counter() - tic
        for i, (dirs, values) in zip(batch, queried):
            tic = time.perf_counter()
            _step(running[i][1], running[i][0], t, dirs, values)
            own[i] = time.perf_counter() - tic
        tic = time.perf_counter()
        _check([running[i][1] for i in batch], running[batch[0]][0].obj, t)
        shared += time.perf_counter() - tic
    return own, shared


def run_arms(arms, iterations: int, seeds) -> list[list[Trace]]:
    """Run the loop (sample, query, estimate, update, log) of every arm
    for R ``seeds`` in lockstep; returns each arm's R traces.

    Run r of every arm draws the directions and noise seeds of seed r, so
    the arms must agree on k, the direction law and the dimension.  They
    are drawn a chunk of iterations at a time (at most ``CHUNK_ELEMENTS``
    direction entries, at least one iteration) for the runs that some arm
    still runs, once for all arms.  Each step evaluates the queries of
    the arms that share an objective with one ``objectives.eval`` call
    (at most ``BATCH_ELEMENTS`` point entries, at least one arm), then
    each :func:`_step` moves an arm's live runs one iteration, and one
    ``clean_value`` call checks those arms' runs; each run gets the trace
    it would get alone.  An arm's ``wall_ms`` is its own step's time plus
    an equal share, among the running arms, of the step's shared work
    (draw, evaluations, checks), divided by its rows still running.  A run
    whose parameters go non-finite or whose clean value exceeds the
    divergence limit stops with that iteration recorded, and the others
    carry on; a start that fails this test is diverged at iteration 1 and
    is never queried.  Overflow inside the loop is expected there, so it
    is not reported.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    R = seeds.size
    k, tag, d = arms[0].est_cfg.k, arms[0].est_cfg.tag, arms[0].obj.dim
    for arm in arms:
        shape = np.shape(arm.theta0)
        if seeds.ndim != 1 or shape != (R, d):
            raise ValueError(f"expected a sequence of run seeds and initial points of shape "
                             f"{(R, d)}, got seeds of shape {seeds.shape} and {shape}")
        if (arm.est_cfg.k, arm.est_cfg.tag, arm.obj.dim) != (k, tag, d):
            raise ValueError("the arms of one loop must share k, the direction law "
                             "and the dimension")
        if not np.all(np.isfinite(arm.theta0)):
            raise ValueError("initial point contains non-finite entries")
        if arm.kind is EstimatorKind.ZOAR:
            arm.est_cfg.require_reusable()
        elif arm.kind is EstimatorKind.REINFORCE_GS:
            arm.est_cfg.require_gaussian()

    roots = sampling.stream_roots(seeds)
    with np.errstate(over="ignore"):
        states = [_start(arm, R, iterations) for arm in arms]
        chunk = Chunk(np.arange(0), np.empty((0, 0, k, d)), np.empty((0, 0), np.uint64))
        for t in range(1, iterations + 1):
            running = [(arm, s) for arm, s in zip(arms, states) if s.live.size]
            if not running:
                break
            tic = time.perf_counter()
            if t == chunk.first + chunk.dirs.shape[1]:
                # a mask, not np.unique, whose first call alone adds about
                # 1 MiB to the process's resident memory
                drawn = np.zeros(R, dtype=bool)
                for _, s in running:
                    drawn[s.live] = True
                chunk = None  # release the old chunk before drawing the next
                chunk = _draw(roots, np.flatnonzero(drawn), t, iterations, k, tag, d)
            drawing = time.perf_counter() - tic
            rows = [s.live.size for _, s in running]
            own, shared = _advance(running, chunk, t, d)
            share = (drawing + shared) / len(running)
            for (_, s), n, spent in zip(running, rows, own):
                s.wall_ms[t] = (spent + share) * 1000.0 / n

    return [[Trace(s.f_clean[r, :end], s.wall_ms[:end], arm.queries_per_iter,
                   None if end == iterations + 1 else end)
             for r, end in enumerate(s.ends.tolist())]
            for arm, s in zip(arms, states)]


def run_optimization(obj: objectives.ObjectiveSpec, estimator_kind: EstimatorKind,
                     est_cfg: EstimatorConfig, opt_cfg: OptimizerConfig,
                     iterations: int, seeds, theta0) -> list[Trace]:
    """Run one estimator for R ``seeds`` from their (R, d) ``theta0`` in
    lockstep: the one-arm case of :func:`run_arms`; returns the R traces."""
    [traces] = run_arms([Arm(obj, estimator_kind, est_cfg, opt_cfg, theta0)],
                        iterations, seeds)
    return traces
