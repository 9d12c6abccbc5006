"""Parameter update rules and the query-driven optimization loop."""

import enum
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, HistoryBuffer

DIVERGENCE_LIMIT = 1e12


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


@dataclass
class MomentState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "MomentState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)


def sgd_step(theta: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    return theta - cfg.eta * grad


def adamm_step(theta: np.ndarray, state: MomentState, grad: np.ndarray,
               cfg: OptimizerConfig) -> tuple[np.ndarray, MomentState]:
    """Adam-style step: second moment tracks squared gradients."""
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grad * grad
    if cfg.bias_correction:
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
    else:
        m_hat, v_hat = m, v
    theta_new = theta - cfg.eta * m_hat / np.sqrt(v_hat + cfg.zeta)
    return theta_new, MomentState(m=m, v=v, t=t)


def radazo_step(theta: np.ndarray, state: MomentState, grad: np.ndarray,
                cfg: OptimizerConfig) -> tuple[np.ndarray, MomentState]:
    """Variance-refined adaptive step: the second moment is an EMA of the
    *squared first moment*, and no bias correction is applied.

    Since v_t >= (1-beta2) m_t^2 elementwise, each coordinate moves by at
    most eta / sqrt(1 - beta2) per step.
    """
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * m * m
    theta_new = theta - cfg.eta * m / np.sqrt(v + cfg.zeta)
    return theta_new, MomentState(m=m, v=v, t=t)


class TraceRow(NamedTuple):
    iter: int
    queries_cum: int
    f_clean: float
    gap: float
    wall_ms: float


@dataclass
class Trace:
    """Per-iteration log of one optimization run."""

    rows: list[TraceRow]
    status: str = "completed"  # "completed" | "diverged"
    diverged_at: int | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def run_optimization(obj: objectives.ObjectiveSpec, estimator_kind: EstimatorKind,
                     est_cfg: EstimatorConfig, opt_cfg: OptimizerConfig,
                     iterations: int, master_seed, theta0) -> Trace | list[Trace]:
    """Run the full loop: sample, query, estimate, update, log.

    ``master_seed`` is one run's seed, or a sequence of R run seeds with
    ``theta0`` of shape (R, d); the R runs then advance in lockstep, one
    Python step per iteration for all of them, and each gets the trace it
    would get alone (``wall_ms`` is its share of the shared step: the
    step's time divided by the rows still running).  Returns a Trace for
    one seed and a list of R Traces for a sequence.

    A trace has iterations+1 rows when the run completes (row 0 is the
    initial state); a run whose parameters go non-finite or whose clean
    value exceeds the divergence limit stops early with the offending
    iteration recorded, and the others carry on without it.
    """
    single = np.ndim(master_seed) == 0
    seeds = np.atleast_1d(np.asarray(master_seed, dtype=np.uint64))
    theta = np.array(theta0, dtype=np.float64, ndmin=2)
    if theta.shape != (seeds.size, obj.dim):
        raise ValueError(f"expected initial points of shape {(seeds.size, obj.dim)}, "
                         f"got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("initial point contains non-finite entries")
    if estimator_kind is EstimatorKind.ZOAR:
        est_cfg.require_reusable()
        buffer = HistoryBuffer(est_cfg.k, est_cfg.n, est_cfg.tag, obj.dim,
                               rows=seeds.size)
    elif estimator_kind is EstimatorKind.REINFORCE_GS:
        est_cfg.require_gaussian()
    grad_history: list[np.ndarray] = []

    roots = sampling.stream_roots(seeds)
    live = np.arange(seeds.size)  # the run each row of theta belongs to
    state = MomentState.zeros(theta.shape)
    traces = [Trace(rows=[TraceRow(0, 0, f0, f0 - 0.0, 0.0)])
              for f0 in objectives.clean_value(obj, theta).tolist()]
    queries_cum = 0

    for t in range(1, iterations + 1):
        if live.size == 0:
            break
        tic = time.perf_counter()
        dir_seeds, noise_seeds = sampling.iteration_seeds(roots, t, est_cfg.k)
        if estimator_kind is EstimatorKind.ZOAR:
            buffer.push_block(*estimators.query_block(obj, theta, est_cfg, dir_seeds,
                                                      noise_seeds))
            queries = est_cfg.k
            if len(buffer) >= 2:
                grad = estimators.zoar_estimate(buffer, est_cfg.mu)
            else:
                # k = 1 warm-up: a single query pins the baseline to its
                # own value, so the estimate is identically zero
                grad = np.zeros_like(theta)
        else:
            # vanilla and the score-function twin share one kernel
            grad = estimators.difference_estimate(obj, theta, est_cfg, dir_seeds,
                                                  noise_seeds)
            queries = est_cfg.k + 1
            if estimator_kind is EstimatorKind.ZOHS:
                grad_history.append(grad)
                if len(grad_history) > est_cfg.n:
                    grad_history.pop(0)
                grad = estimators.zohs_estimate(grad_history)

        if opt_cfg.rule is UpdateRule.SGD:
            theta = sgd_step(theta, grad, opt_cfg)
        elif opt_cfg.rule is UpdateRule.ADAMM:
            theta, state = adamm_step(theta, state, grad, opt_cfg)
        else:
            theta, state = radazo_step(theta, state, grad, opt_cfg)

        queries_cum += queries
        wall_ms = (time.perf_counter() - tic) * 1000.0 / live.size
        ok = np.all(np.isfinite(theta), axis=1)
        f_clean = np.full(live.size, np.inf)
        f_clean[ok] = objectives.clean_value(obj, theta[ok])
        ok &= np.abs(f_clean) <= DIVERGENCE_LIMIT
        for r, f, good in zip(live.tolist(), f_clean.tolist(), ok.tolist()):
            if good:
                traces[r].rows.append(TraceRow(t, queries_cum, f, f - 0.0, wall_ms))
            else:
                traces[r].status, traces[r].diverged_at = "diverged", t
        if not ok.all():
            live, theta, roots = live[ok], theta[ok], roots[:, ok]
            state = MomentState(m=state.m[ok], v=state.v[ok], t=state.t)
            grad_history = [g[ok] for g in grad_history]
            if estimator_kind is EstimatorKind.ZOAR:
                buffer.keep(ok)

    return traces[0] if single else traces
