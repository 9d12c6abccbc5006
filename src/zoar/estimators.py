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

A query's direction depends on its seed alone, never on the parameters,
so directions are materialised apart from their evaluation: callers draw
the directions of many iterations (the optimisation loop) or trials (the
verifier) with one :func:`directions` call.  :func:`write_points` is the
one path from an iteration's (..., k, d) block of them to its points
theta + mu*u_j (and the centre): into a buffer of the caller's, which
the loop shares among the arms that it evaluates in one call, or into
one of :func:`query_block`, which also evaluates them.  The difference
estimators evaluate the centre in the same call as its k points, and
:func:`difference_gradient` turns the values into the gradient.  The
history-reuse estimator keeps the n*k most recent queries in a
:class:`HistoryBuffer`, the materialised directions and their observed
values, so forming the estimate materialises nothing: each direction is
built once.

Every estimate reduces its directions through one j-ordered sum, the
operation sequence of ``_kernels.weighted_direction_sum``: each entry is
0.0 + c_0 u_0 + c_1 u_1 + ..., added left to right.  The verifier's
reuse estimates and S_yu sums take the same sum, over a chunk of trials'
histories at once.  The sum has two forms with the same bits.  While the
products hold at most ``SUM_ELEMENTS`` (2**16) entries, all c_j u_j go
into one buffer (a ring's at most two slot ranges, oldest first, written
straight from the ring) and one ``np.add.reduce`` over the term axis
adds them, which NumPy does term after term for every entry; above that,
and for one-entry terms, which NumPy would add pairwise, a loop adds one
term at a time.
A desk step (d = 100, 5 runs, a ring of 60) takes the single pass; a
d = 10**4 ring takes the loop, whose (d,) temporaries stay in cache.

The array-level functions (:func:`query_block`, :func:`difference_gradient`
and :func:`zohs_estimate`) take any leading axes before the last one: the
optimisation loop passes R runs at once as (R, d) parameters, and every
row gets the bits it would get alone.  The ring holds R runs (R = 1 for
one), and :func:`zoar_estimate` gives one row per run.  ``fd_estimate``
and the score-function forms are the one-run case, keyed on (iteration,
master seed).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from . import objectives, sampling
from .sampling import DistTag


# the largest |u_i| a direction law draws: a Gaussian entry is the normal
# quantile of an open-(0, 1) draw, which lies at least 2**-53 from 0 and 1
LARGEST_ENTRY = {DistTag.GAUSSIAN: 8.21, DistTag.SPHERE: 1.0, DistTag.COORDINATE: 1.0}


@dataclass(frozen=True)
class EstimatorConfig:
    """Smoothing radius, queries per iteration, history depth, direction law."""

    mu: float
    k: int
    n: int = 1
    tag: DistTag = DistTag.GAUSSIAN

    def __post_init__(self):
        limit = np.finfo(np.float64).max / LARGEST_ENTRY[self.tag]
        if not 0 < self.mu <= limit:
            raise ValueError(f"mu must be positive and at most {limit:.6g} for mu*u to stay "
                             f"finite with {self.tag.name.lower()} u, got {self.mu}")
        for name in ("k", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    """Ring of the n*k most recent queries of R runs in lockstep, read
    oldest first.

    All queries are drawn from one direction law ``tag``.  ``values``
    (R, n*k) holds their observed values, a view that the next
    ``push_block`` overwrites; ``spans()`` gives the matching directions
    as at most two (count, R, dim) views.  ``push_block`` appends exactly
    one iteration's block of k queries per run and drops the oldest block
    once the ring holds n*k queries.  The new directions go into the
    oldest block's slot, so a stored direction never moves; only the
    values, k per block, shift.  Directions are stored query-major, so
    the query-j slice of all R runs is one contiguous (R, dim) array.
    Values are stored as they come, non-finite ones too (the loop stops those runs).
    """

    def __init__(self, block_size: int, depth: int, tag: DistTag, dim: int, rows: int):
        if block_size < 1 or depth < 1:
            raise ValueError("block_size and depth must be >= 1")
        self.block_size = block_size
        self.depth = depth
        self.tag = DistTag(tag)
        self.dim = dim
        self._dirs = np.zeros((block_size * depth, rows, dim))
        self._values = np.zeros((rows, block_size * depth))
        self._filled = 0
        self._next = 0  # slot of the next block, the oldest once the ring is full

    def __len__(self) -> int:
        return self._filled

    def spans(self) -> list[np.ndarray]:
        """The stored directions oldest first, as at most two contiguous
        (count, R, dim) views of the ring: the oldest block's slot to the
        end, then the start up to it."""
        lo = self._next * self.block_size
        if self._filled < self._dirs.shape[0]:
            return [self._dirs[:lo]]  # not yet wrapped: slots fill from 0
        return [span for span in (self._dirs[lo:], self._dirs[:lo]) if len(span)]

    @property
    def values(self) -> np.ndarray:
        return self._values[:, self._values.shape[1] - self._filled:]

    def push_block(self, dirs, values) -> None:
        rows, k = self._values.shape[0], self.block_size
        if np.shape(dirs) != (rows, k, self.dim) or np.shape(values) != (rows, k):
            raise ValueError(f"expected {k} directions of dimension {self.dim} and "
                             f"{k} values for each of {rows} rows, got "
                             f"{np.shape(dirs)} and {np.shape(values)}")
        lo = self._next * k
        self._dirs[lo:lo + k] = np.moveaxis(np.asarray(dirs), 1, 0)
        self._values[:, :-k] = self._values[:, k:]
        self._values[:, -k:] = values
        self._next = (self._next + 1) % self.depth
        self._filled = min(self._filled + k, self._dirs.shape[0])

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows whose ``mask`` entry is False."""
        self._dirs = self._dirs[:, mask]
        self._values = self._values[mask]


# product entries (terms x ... x d) up to which _weighted_sum forms a
# block's products in one buffer and adds them with one call; above it,
# the j-loop.  Timed per reduction (2-vCPU Xeon VM, best of 5 x 200): a
# (5, 100) lockstep ring of 60 terms 229 us in the loop, 68 us in one
# pass; a (1, 10**4) ring of 60 terms 715 us in the loop, 782 us in one
# pass, whose 4.8 MB buffer no longer fits in cache.
SUM_ELEMENTS = 1 << 16


def direction_scale(tag: DistTag, dim: int) -> float:
    """Estimator prefactor for the direction law (see module docstring)."""
    return float(dim) if tag is DistTag.SPHERE else 1.0


def directions(dir_seeds: np.ndarray, tag: DistTag, dim: int) -> np.ndarray:
    """The (..., dim) directions of an array of seeds, from one kernel call."""
    dirs = kernels.materialize_block(dir_seeds.reshape(-1), int(tag), dim)
    return dirs.reshape(dir_seeds.shape + (dim,))


def write_points(out: np.ndarray, theta: np.ndarray, mu: float, dirs: np.ndarray,
                 centre: bool = False) -> None:
    """Write one iteration's k query points theta + mu*u_j into ``out``.

    ``theta`` is (..., d), ``dirs`` (..., k, d) and ``out`` (..., k, d),
    a caller's buffer or a slice of one.  With ``centre`` ``out`` is
    (..., k+1, d) and the centre theta goes in as point k.
    """
    k = dirs.shape[-2]
    perturbed = out[..., :k, :]
    np.multiply(dirs, mu, out=perturbed)
    perturbed += theta[..., None, :]
    if centre:
        out[..., k, :] = theta


def query_block(obj, theta: np.ndarray, cfg: EstimatorConfig, dirs: np.ndarray,
                noise_seeds, centre: bool = False) -> np.ndarray:
    """Evaluate one iteration's k perturbed points theta + mu*u_j.

    ``theta`` is (..., d), ``dirs`` (..., k, d) and ``noise_seeds`` has
    the leading shape (...).  Returns the (..., k) observed values; a
    row's points share its noise seed.  With ``centre`` the centre theta
    is evaluated in the same call, as point k, and the (..., k+1) values
    are returned; evaluation is shape-invariant, so the centre gets the
    bits of a lone ``objectives.eval(obj, theta, noise_seeds)``.
    """
    k, d = dirs.shape[-2:]
    lead = np.broadcast_shapes(theta.shape[:-1], dirs.shape[:-2])
    points = np.empty(lead + (k + int(centre), d))
    write_points(points, theta, cfg.mu, dirs, centre)
    return objectives.eval(obj, points, noise_seeds)


def _weighted_sum(coeffs: np.ndarray, spans) -> np.ndarray:
    """sum_j coeffs[..., j] * u_j, accumulated in j order from 0.0, over
    the rows u_j of ``spans``, a sequence of (count, ..., d) arrays taken
    one after another, with the leading axes of ``coeffs`` (..., m); in
    one pass or term by term (module docstring)."""
    c = coeffs.transpose((-1,) + tuple(range(coeffs.ndim - 1)))[..., None]  # (m, ..., 1)
    shape = spans[0].shape[1:]
    size = math.prod(shape)
    # NumPy reduces a lone column pairwise, so one-entry terms take the loop
    if 1 < size and c.shape[0] * size <= SUM_ELEMENTS:
        terms = np.empty(c.shape[:1] + shape)
        lo = 0
        for span in spans:
            hi = lo + span.shape[0]
            np.multiply(c[lo:hi], span, out=terms[lo:hi])
            lo = hi
        return np.add.reduce(terms, axis=0, initial=0.0)
    grad = np.zeros(shape)
    for cj, u in zip(c, (u for span in spans for u in span)):
        grad += cj * u
    return grad


def difference_gradient(values: np.ndarray, dirs: np.ndarray, cfg: EstimatorConfig,
                        gamma: float | None = None) -> np.ndarray:
    """The (..., d) difference-style gradients from one iteration's
    (..., k+1) values, the k points of the (..., k, d) ``dirs`` and the
    centre last.  ``gamma`` multiplies each per-direction coefficient
    before the reduction, which is how the importance-weighted form enters.
    """
    coeffs = (values[..., :-1] - values[..., -1:]) / cfg.mu
    if gamma is not None:
        coeffs = gamma * coeffs
    grad = _weighted_sum(coeffs, [np.moveaxis(dirs, -2, 0)])
    grad *= direction_scale(cfg.tag, dirs.shape[-1]) / cfg.k
    return grad


def _difference_kernel(obj, theta, cfg: EstimatorConfig, iteration: int,
                       master_seed: int, gamma: float | None = None):
    """One run's difference estimate; returns (gradient, queries_used)."""
    theta = sampling.as_params(theta)
    dirs = directions(sampling.direction_seeds(master_seed, iteration, cfg.k),
                      cfg.tag, theta.shape[-1])
    values = query_block(obj, theta, cfg, dirs, sampling.noise_seed(master_seed, iteration),
                         centre=True)
    return difference_gradient(values, dirs, cfg, gamma), cfg.k + 1


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


def gamma_factor(tag: DistTag, dim: int, mu: float) -> float:
    """Importance ratio linking the score-function form under a Gaussian
    policy to samples from the given direction law.

    Computed in log space; at large dimension gamma overflows to inf or
    underflows to 0.0.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if tag is DistTag.GAUSSIAN:
        return 1.0
    if tag is DistTag.SPHERE:
        ln_gamma = ((1.0 - dim / 2.0) * math.log(2.0) - 0.5
                    - math.log(mu) - math.lgamma(dim / 2.0))
    else:  # coordinate basis
        ln_gamma = math.log(dim) - 0.5 - (dim / 2.0) * math.log(2.0 * math.pi * mu * mu)
    try:
        return math.exp(ln_gamma)
    except OverflowError:
        return math.inf


def reinforce_is_estimate(obj, theta, cfg: EstimatorConfig, iteration: int,
                          master_seed: int) -> tuple[np.ndarray, int]:
    """Importance-weighted score-function estimate for any direction law.

    Equals gamma * fd_estimate with shared directions; the ratio is
    applied per direction inside the reduction, following the explicit
    importance-sampled form.  A gamma that overflows or underflows at this
    dimension is a ``ValueError``.
    """
    dim = len(np.asarray(theta))
    gamma = gamma_factor(cfg.tag, dim, cfg.mu)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma is {gamma} at d={dim}: it overflows or underflows")
    return _difference_kernel(obj, theta, cfg, iteration, master_seed, gamma)


def zoar_estimate(buffer: HistoryBuffer, mu: float) -> np.ndarray:
    """History-reuse gradient estimate from all buffered queries.

    (scale / (|H|-1)) * sum over (u, y) of (y - b)/mu * u with b the
    averaged baseline, the mean of every stored value; the stored
    directions are summed oldest first.  Consumes no new queries.
    Returns the (R, dim) estimates, one row per run of the ring, non-finite
    for a row with a non-finite value; a ring of one query (the k = 1
    warm-up) is its own baseline, so its estimate is zero whatever the value.
    """
    m = len(buffer)
    values = buffer.values
    if m < 2:
        return np.zeros((values.shape[0], buffer.dim))
    baseline = values.mean(axis=-1)
    coeffs = (values - baseline[..., None]) / mu
    grad = _weighted_sum(coeffs, buffer.spans())
    grad *= direction_scale(buffer.tag, buffer.dim) / (m - 1)
    return grad


def zohs_estimate(window: np.ndarray) -> np.ndarray:
    """Mean of a (..., m, d) window of the m most recent finite-difference
    gradients, oldest first: one (..., d) estimate."""
    if window.shape[-2] == 0:
        raise ValueError("no gradients to average")
    return np.mean(window, axis=-2)


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
