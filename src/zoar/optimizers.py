"""Parameter update rules and the query-driven optimization loop."""

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, HistoryBuffer

DIVERGENCE_LIMIT = 1e12

# direction entries (rows x iterations x k x d) drawn per chunk; a chunk
# holds at least one iteration.  Directions depend on seeds alone, so the
# loop draws a chunk of iterations' directions in one kernel call, which
# spreads the call's fixed cost over small steps.  The chunk sets the
# loop's peak memory: on a d=100, k=10, 5-repeat sweep (pure backend)
# 2**14 draws 3 iterations at a time and raised the peak RSS 0.6 %;
# 2**16 (13 iterations) raised it 4.3 % for about 3 % more speed.
CHUNK_ELEMENTS = 1 << 14


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


@dataclass
class LoopState:
    """A lockstep group mid-loop; row i of each array is run ``live[i]``'s:
    stream ``roots`` (2, R), ``theta``, ``m``, ``v`` (R, d), the ZOHS window
    ``grads`` (R, n, d) of the latest gradients, oldest first (shorter for
    the first n-1 steps, (R, 0, d) for other kinds), the ZoAR ``ring``, and
    the drawn chunk ``dirs`` (R, C, k, d) and ``noise_seeds`` (R, C) of
    iterations ``first`` to ``first + C - 1``."""

    live: np.ndarray
    roots: np.ndarray
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grads: np.ndarray
    ring: HistoryBuffer | None
    dirs: np.ndarray
    noise_seeds: np.ndarray
    first: int = 1

    def keep(self, ok: np.ndarray) -> None:
        """Drop the rows whose ``ok`` entry is False."""
        if ok.all():
            return
        self.live, self.roots, self.theta = self.live[ok], self.roots[:, ok], self.theta[ok]
        self.m, self.v, self.grads = self.m[ok], self.v[ok], self.grads[ok]
        self.dirs, self.noise_seeds = self.dirs[ok], self.noise_seeds[ok]
        if self.ring is not None:
            self.ring.keep(ok)


def _step(s: LoopState, t: int, obj: objectives.ObjectiveSpec, kind: EstimatorKind,
          est_cfg: EstimatorConfig, opt_cfg: OptimizerConfig, iterations: int) -> None:
    """Move every row of ``s`` through iteration t: draw the next chunk of
    seeds and directions when it is due, estimate, update."""
    if t == s.first + s.dirs.shape[1]:
        s.dirs = s.noise_seeds = None  # release the old chunk before drawing the next
        size = min(iterations + 1 - t,
                   max(1, CHUNK_ELEMENTS // (s.live.size * est_cfg.k * obj.dim)))
        dir_seeds, s.noise_seeds = sampling.iteration_seeds(s.roots, range(t, t + size),
                                                            est_cfg.k)
        s.dirs, s.first = estimators.directions(dir_seeds, est_cfg.tag, obj.dim), t
    dirs, noise = s.dirs[:, t - s.first], s.noise_seeds[:, t - s.first]
    if kind is EstimatorKind.ZOAR:
        s.ring.push_block(dirs, estimators.query_block(obj, s.theta, est_cfg, dirs, noise))
        # k = 1 warm-up: a single query pins the baseline to its own value,
        # so the estimate is identically zero
        grad = (estimators.zoar_estimate(s.ring, est_cfg.mu) if len(s.ring) >= 2
                else np.zeros_like(s.theta))
    else:
        # vanilla and the score-function twin share one kernel
        grad = estimators.difference_estimate(obj, s.theta, est_cfg, dirs, noise)
        if kind is EstimatorKind.ZOHS:
            full = s.grads.shape[1] == est_cfg.n  # then the oldest drops out
            s.grads = np.concatenate((s.grads[:, int(full):], grad[:, None]), axis=1)
            grad = estimators.zohs_estimate(s.grads)
    if opt_cfg.rule is UpdateRule.SGD:
        s.theta = sgd_step(s.theta, grad, opt_cfg)
    elif opt_cfg.rule is UpdateRule.ADAMM:
        s.theta, s.m, s.v = adamm_step(s.theta, s.m, s.v, grad, opt_cfg, t)
    else:
        s.theta, s.m, s.v = radazo_step(s.theta, s.m, s.v, grad, opt_cfg)


def run_optimization(obj: objectives.ObjectiveSpec, estimator_kind: EstimatorKind,
                     est_cfg: EstimatorConfig, opt_cfg: OptimizerConfig,
                     iterations: int, seeds, theta0) -> list[Trace]:
    """Run the loop (sample, query, estimate, update, log) for R ``seeds``
    from their (R, d) ``theta0`` in lockstep; returns the R traces.

    Each :func:`_step` of the group's :class:`LoopState` moves every live
    run one iteration, and each run gets the trace it would get alone
    (``wall_ms`` is the step's time divided by the rows still running).
    Seeds and directions are drawn a chunk of iterations at a time (at
    most ``CHUNK_ELEMENTS`` direction entries, at least one iteration),
    and the step that draws one carries its kernel time.  Clean values
    go into one (R, T+1) array and ``wall_ms`` into one shared column;
    each trace is cut from them at the end.  A run whose parameters go
    non-finite or whose clean value exceeds the divergence limit stops
    with that iteration recorded, and the others carry on; a start that
    fails this test is diverged at iteration 1 and is never queried.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    theta = np.array(theta0, dtype=np.float64)
    R, d = seeds.size, obj.dim
    if seeds.ndim != 1 or theta.shape != (R, d):
        raise ValueError(f"expected a sequence of run seeds and initial points of shape "
                         f"{(R, d)}, got seeds of shape {seeds.shape} and {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("initial point contains non-finite entries")
    if estimator_kind is EstimatorKind.ZOAR:
        est_cfg.require_reusable()
    elif estimator_kind is EstimatorKind.REINFORCE_GS:
        est_cfg.require_gaussian()

    # evaluations per iteration: the difference estimators query k points and
    # the centre; the reuse estimator reads the ring, so it needs no centre
    queries = est_cfg.k if estimator_kind is EstimatorKind.ZOAR else est_cfg.k + 1

    ring = (HistoryBuffer(est_cfg.k, est_cfg.n, est_cfg.tag, d, rows=R)
            if estimator_kind is EstimatorKind.ZOAR else None)
    state = LoopState(np.arange(R), sampling.stream_roots(seeds), theta, np.zeros((R, d)),
                      np.zeros((R, d)), np.empty((R, 0, d)), ring,
                      np.empty((R, 0, est_cfg.k, d)), np.empty((R, 0), np.uint64))
    f_clean = np.empty((R, iterations + 1))
    f_clean[:, 0] = objectives.clean_value(obj, theta)
    wall_ms = np.zeros(iterations + 1)
    ends = np.full(R, iterations + 1)  # entries each run logs
    ok = np.abs(f_clean[:, 0]) <= DIVERGENCE_LIMIT
    ends[~ok] = 1
    state.keep(ok)

    for t in range(1, iterations + 1):
        if state.live.size == 0:
            break
        tic = time.perf_counter()
        _step(state, t, obj, estimator_kind, est_cfg, opt_cfg, iterations)
        wall_ms[t] = (time.perf_counter() - tic) * 1000.0 / state.live.size
        ok = np.all(np.isfinite(state.theta), axis=1)
        f = np.full(state.live.size, np.inf)
        f[ok] = objectives.clean_value(obj, state.theta[ok])
        ok &= np.abs(f) <= DIVERGENCE_LIMIT
        f_clean[state.live, t] = f
        ends[state.live[~ok]] = t
        state.keep(ok)

    return [Trace(f_clean[r, :end], wall_ms[:end], queries,
                  None if end == iterations + 1 else end)
            for r, end in enumerate(ends.tolist())]
