"""Gradient estimators built from black-box queries.

All difference-style estimators (plain finite differences, the
score-function form, and its importance-weighted generalisation) are
computed by one shared kernel, so the algebraic identity between the
finite-difference and score-function formulations holds bit-for-bit,
not just within a tolerance.

Scaling convention: directions drawn on the unit sphere enter every
estimate multiplied by the dimension ``d``.  Without that factor the
sphere estimator's expectation is the smoothed gradient divided by
``d`` (the second moment of a unit-sphere direction is ``I/d``); with
it, the estimator is unbiased for the ball-smoothed gradient, which is
what the averaged-history expectation and optimal-baseline checks rely
on.  Gaussian directions need no correction (their second moment is the
identity) and coordinate directions follow the plain averaged form.

Every estimator draws an iteration's k queries through
:func:`query_block`.  The history-reuse estimator keeps the n*k most
recent queries in a :class:`HistoryBuffer` of two arrays, the
materialised directions and their observed values, so forming the
estimate materialises nothing: each direction is built once, when it is
queried.  Every estimate reduces its directions through one j-ordered
sum, the operation sequence of ``_kernels.weighted_direction_sum``.

The array-level functions (:func:`query_block`, :func:`difference_estimate`,
:func:`zoar_estimate`, :func:`zohs_estimate` and the ring) take any
leading axes before the last one: the optimisation loop passes R runs at
once as (R, d) parameters, and every row gets the bits it would get
alone.  ``fd_estimate`` and the score-function forms are the one-run case,
keyed on (iteration, master seed).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels as kernels
from . import sampling
from .sampling import DistTag


class InsufficientHistoryError(ValueError):
    """Raised when a history-based estimate needs more records."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing radius, queries per iteration, history depth, direction law."""

    mu: float
    k: int
    n: int = 1
    tag: DistTag = DistTag.GAUSSIAN

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def require_reusable(self) -> None:
        # the history estimate divides by |H|-1, so a full buffer of one is unusable
        if self.n * self.k < 2:
            raise ValueError("history reuse requires n*k >= 2")

    def require_gaussian(self) -> None:
        if self.tag is not DistTag.GAUSSIAN:
            raise ValueError("the score-function estimator requires Gaussian directions")


class HistoryBuffer:
    """Ring of the n*k most recent queries as two arrays, oldest first.

    ``dirs`` (n*k, dim) and ``values`` (n*k,) hold one row per query, all
    drawn from one direction law ``tag``; both are views that the next
    ``push_block`` overwrites.  ``push_block`` appends exactly one
    iteration's block of k queries and drops the oldest block once the
    ring holds n*k rows.

    With ``rows=R`` the ring serves R runs in lockstep: ``dirs`` is
    (R, n*k, dim), ``values`` (R, n*k), and every block carries one row
    per run.  Directions are stored query-major, so the query-j slice of
    all R runs is one contiguous (R, dim) array and the ring shifts block
    by block over non-overlapping memory.
    """

    def __init__(self, block_size: int, depth: int, tag: DistTag, dim: int,
                 rows: int | None = None):
        if block_size < 1 or depth < 1:
            raise ValueError("block_size and depth must be >= 1")
        self.block_size = block_size
        self.depth = depth
        self.tag = DistTag(tag)
        self.dim = dim
        self._lead = () if rows is None else (rows,)
        self._dirs = np.zeros((block_size * depth,) + self._lead + (dim,))
        self._values = np.zeros(self._lead + (block_size * depth,))
        self._filled = 0

    def __len__(self) -> int:
        return self._filled

    @property
    def dirs(self) -> np.ndarray:
        return np.moveaxis(self._dirs[self._dirs.shape[0] - self._filled:], 0, -2)

    @property
    def values(self) -> np.ndarray:
        return self._values[..., self._values.shape[-1] - self._filled:]

    def push_block(self, dirs, values) -> None:
        k = self.block_size
        if (np.shape(dirs) != self._lead + (k, self.dim)
                or np.shape(values) != self._lead + (k,)):
            raise ValueError(f"expected {k} directions of dimension {self.dim} and "
                             f"{k} values per row, got {np.shape(dirs)} and "
                             f"{np.shape(values)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("query values must be finite")
        # block by block: one overlapping assignment would make NumPy copy
        # the whole ring into a temporary first
        for lo in range(0, self._dirs.shape[0] - k, k):
            self._dirs[lo:lo + k] = self._dirs[lo + k:lo + 2 * k]
        self._dirs[-k:] = np.moveaxis(np.asarray(dirs), -2, 0)
        self._values[..., :-k] = self._values[..., k:]
        self._values[..., -k:] = values
        self._filled = min(self._filled + k, self._dirs.shape[0])

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows of a lockstep ring whose ``mask`` entry is False."""
        self._dirs = self._dirs[:, mask]
        self._values = self._values[mask]
        self._lead = (self._values.shape[0],)


def direction_scale(tag: DistTag, dim: int) -> float:
    """Estimator prefactor for the direction law (see module docstring)."""
    return float(dim) if tag is DistTag.SPHERE else 1.0


def query_block(obj, theta: np.ndarray, cfg: EstimatorConfig, dir_seeds: np.ndarray,
                noise_seeds) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one iteration's k perturbed points theta + mu*u_j.

    ``theta`` is (..., d), ``dir_seeds`` (..., k) and ``noise_seeds`` has
    the leading shape (...).  Returns (dirs, values): the (..., k, d)
    directions of the seeds and the (..., k) observed values; a row's k
    points share its noise seed.  All directions are materialised in one
    kernel call.
    """
    d = theta.shape[-1]
    dirs = kernels.materialize_block(dir_seeds.reshape(-1), int(cfg.tag), d)
    dirs = dirs.reshape(dir_seeds.shape + (d,))
    values = obj.eval(theta[..., None, :] + cfg.mu * dirs, noise_seeds)
    return dirs, values


def _weighted_sum(coeffs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] * dirs[..., j, :], accumulated in j order."""
    grad = np.zeros(dirs.shape[:-2] + dirs.shape[-1:])
    for j in range(dirs.shape[-2]):
        grad += coeffs[..., j, None] * dirs[..., j, :]
    return grad


def difference_estimate(obj, theta: np.ndarray, cfg: EstimatorConfig,
                        dir_seeds: np.ndarray, noise_seeds,
                        gamma: float | None = None) -> np.ndarray:
    """Shared evaluation path for the difference-style estimators.

    Queries the k perturbed points and the centre of each row of
    ``theta`` (..., d) under :func:`query_block`'s seeds and returns the
    (..., d) gradients.  ``gamma`` multiplies each per-direction
    coefficient before the reduction, which is how the
    importance-weighted form enters.
    """
    dirs, yk = query_block(obj, theta, cfg, dir_seeds, noise_seeds)
    y0 = np.asarray(obj.eval(theta, noise_seeds))
    coeffs = (yk - y0[..., None]) / cfg.mu
    if gamma is not None:
        coeffs = gamma * coeffs
    grad = _weighted_sum(coeffs, dirs)
    grad *= direction_scale(cfg.tag, theta.shape[-1]) / cfg.k
    return grad


def _difference_kernel(obj, theta, cfg: EstimatorConfig, iteration: int,
                       master_seed: int, gamma: float | None = None):
    """One run's difference estimate; returns (gradient, queries_used)."""
    grad = difference_estimate(obj, sampling.as_params(theta), cfg,
                               sampling.direction_seeds(master_seed, iteration, cfg.k),
                               sampling.noise_seed(master_seed, iteration), gamma)
    return grad, cfg.k + 1


def fd_estimate(obj, theta, cfg: EstimatorConfig, iteration: int,
                master_seed: int) -> tuple[np.ndarray, int]:
    """Finite-difference gradient estimate averaged over k directions.

    Uses k perturbed queries plus one centre query, all sharing the
    iteration's noise seed.
    """
    return _difference_kernel(obj, theta, cfg, iteration, master_seed)


def reinforce_gs_estimate(obj, theta, cfg: EstimatorConfig, iteration: int,
                          master_seed: int) -> tuple[np.ndarray, int]:
    """Score-function estimate with the centre value as baseline.

    For Gaussian directions, (x_k - theta)/mu^2 * (f(x_k) - f(theta))
    with x_k = theta + mu*u_k reduces algebraically to the
    finite-difference form; both run through the same kernel, so the two
    estimates are identical floating-point numbers.
    """
    cfg.require_gaussian()
    return _difference_kernel(obj, theta, cfg, iteration, master_seed)


def gamma_factor(tag: DistTag, dim: int, mu: float) -> tuple[float, float]:
    """Importance ratio linking the score-function form under a Gaussian
    policy to samples from the given direction law.

    Returns (gamma, ln_gamma); gamma may overflow or underflow to
    inf/0.0 at large dimension while ln_gamma stays finite.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if tag is DistTag.GAUSSIAN:
        return 1.0, 0.0
    if tag is DistTag.SPHERE:
        ln_gamma = ((1.0 - dim / 2.0) * math.log(2.0) - 0.5
                    - math.log(mu) - math.lgamma(dim / 2.0))
    else:  # coordinate basis
        ln_gamma = math.log(dim) - 0.5 - (dim / 2.0) * math.log(2.0 * math.pi * mu * mu)
    try:
        gamma = math.exp(ln_gamma)
    except OverflowError:
        gamma = math.inf
    return gamma, ln_gamma


@dataclass(frozen=True)
class ISEstimate:
    """Importance-weighted score-function estimate.

    When gamma overflows (or underflows to zero), ``gradient`` holds the
    unscaled finite-difference estimate, ``scaled`` is False, and the
    caller can apply ``ln_gamma`` in log space.
    """

    gradient: np.ndarray
    queries_used: int
    gamma: float
    ln_gamma: float
    scaled: bool


def reinforce_is_estimate(obj, theta, cfg: EstimatorConfig, iteration: int,
                          master_seed: int) -> ISEstimate:
    """Importance-weighted score-function estimate for any direction law.

    Equals gamma * fd_estimate with shared directions; the ratio is
    applied per direction inside the reduction, following the explicit
    importance-sampled form.
    """
    gamma, ln_gamma = gamma_factor(cfg.tag, len(np.asarray(theta)), cfg.mu)
    if not (math.isfinite(gamma) and gamma > 0.0):
        grad, queries = _difference_kernel(obj, theta, cfg, iteration, master_seed)
        return ISEstimate(grad, queries, gamma, ln_gamma, scaled=False)
    grad, queries = _difference_kernel(obj, theta, cfg, iteration, master_seed,
                                       gamma=gamma)
    return ISEstimate(grad, queries, gamma, ln_gamma, scaled=True)


def zoar_estimate(buffer: HistoryBuffer, mu: float) -> np.ndarray:
    """History-reuse gradient estimate from all buffered queries.

    (scale / (|H|-1)) * sum over (u, y) of (y - b)/mu * u with b the
    averaged baseline, the mean of every stored value; the stored
    directions are summed in ring order.  Consumes no new queries.  A
    lockstep ring gives one (dim,) estimate per row.
    """
    m = len(buffer)
    if m < 2:
        raise InsufficientHistoryError(
            f"history estimate needs at least 2 records, buffer holds {m}")
    values = buffer.values
    baseline = values.mean(axis=-1)
    coeffs = (values - baseline[..., None]) / mu
    grad = _weighted_sum(coeffs, buffer.dirs)
    grad *= direction_scale(buffer.tag, buffer.dim) / (m - 1)
    return grad


def zohs_estimate(recent_grads: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of the most recent finite-difference gradients, oldest first;
    each may be (d,) or a (..., d) stack of rows."""
    if len(recent_grads) == 0:
        raise ValueError("no gradients to average")
    return np.mean(np.stack(recent_grads, axis=-2), axis=-2)


def c_n_constant(beta1: float, n: int) -> float:
    """History-depth constant from the moment-variance analysis.

    [2(1-b)^2 N^2 - 3(1-b)(1-3b) N - b(2-13b) + 1] / [6b(1+b)], written
    in the factored form 1 + (N-1)(aN + a + bb)/(6b(1+b)) so the N = 1
    value is exactly 1.0 in floating point.
    """
    if not 0.0 < beta1 < 1.0:
        raise ValueError(f"beta1 must lie in (0, 1), got {beta1}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = 2.0 * (1.0 - beta1) ** 2
    bb = -3.0 * (1.0 - beta1) * (1.0 - 3.0 * beta1)
    return 1.0 + (n - 1) * (a * n + (a + bb)) / (6.0 * beta1 * (1.0 + beta1))
