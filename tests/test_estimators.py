import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoar._kernels as kernels
from zoar import estimators, objectives, sampling, verify
from zoar.estimators import (EstimatorConfig, HistoryBuffer, c_n_constant, fd_estimate,
                             gamma_factor, reinforce_gs_estimate, reinforce_is_estimate,
                             zoar_estimate, zohs_estimate)
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.sampling import DistTag


def coord_seed(dim: int, index: int) -> int:
    """Search for a seed whose coordinate direction is e_index."""
    for seed in range(100000):
        if kernels.materialize(seed, int(DistTag.COORDINATE), dim)[index] == 1.0:
            return seed
    raise AssertionError("no seed found")


def master_for_coord_dirs(dim: int, indices, iteration: int = 1) -> int:
    """Master seed whose derived directions hit the requested basis vectors."""
    for master in range(1000000):
        ok = True
        for k, idx in enumerate(indices, start=1):
            seed = sampling.direction_seed(master, iteration, k)
            u = kernels.materialize(seed, int(DistTag.COORDINATE), dim)
            if u[idx] != 1.0:
                ok = False
                break
        if ok:
            return master
    raise AssertionError("no master seed found")


def formula_objective(monkeypatch, formula, dim):
    """A clean spec evaluated by ``formula`` (points (..., dim) to values
    (...)), for hand-checking estimators through objectives.eval."""
    monkeypatch.setitem(objectives._FORMULAS, ObjectiveKind.QUADRATIC, formula)
    return ObjectiveSpec(ObjectiveKind.QUADRATIC, dim)


# ---------------------------------------------------------------------------
# finite differences and the score-function twin

def test_fd_hand_example_forced_direction():
    # quadratic at the origin, one forced e_1 direction, mu = 1
    master = master_for_coord_dirs(2, [0])
    cfg = EstimatorConfig(mu=1.0, k=1, tag=DistTag.COORDINATE)
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 2)
    grad, queries = fd_estimate(spec, np.zeros(2), cfg, 1, master)
    assert queries == 2
    assert np.array_equal(grad, np.array([0.5, 0.0]))


def test_fd_constant_objective_zero(monkeypatch):
    cfg = EstimatorConfig(mu=0.3, k=5, tag=DistTag.GAUSSIAN)
    spec = formula_objective(monkeypatch, lambda theta: np.full(theta.shape[:-1], 4.2), 6)
    grad, _ = fd_estimate(spec, np.ones(6), cfg, 1, 99)
    assert np.array_equal(grad, np.zeros(6))


def test_fd_linear_objective_forced_direction(monkeypatch):
    master = master_for_coord_dirs(2, [0])
    cfg = EstimatorConfig(mu=0.7, k=1, tag=DistTag.COORDINATE)
    spec = formula_objective(monkeypatch, lambda theta: theta @ np.array([2.0, 3.0]), 2)
    grad, _ = fd_estimate(spec, np.zeros(2), cfg, 1, master)
    assert np.allclose(grad, [2.0, 0.0], rtol=0, atol=1e-12)


def test_score_function_identity_is_exact():
    for d, k in [(1, 1), (5, 4), (50, 16), (100, 8)]:
        spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d, noise_sigma=0.2)
        theta = kernels.uniform_doubles(d, d) * 2 - 1
        cfg = EstimatorConfig(mu=0.05, k=k, tag=DistTag.GAUSSIAN)
        g1, q1 = fd_estimate(spec, theta, cfg, 2, 77)
        g2, q2 = reinforce_gs_estimate(spec, theta, cfg, 2, 77)
        assert q1 == q2 == k + 1
        assert np.array_equal(g1, g2)


UNIT_ROUNDOFF = 2.0 ** -53


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_literal_score_function_matches_fd_within_ulp_bound(kind, sigma):
    """The paper's identity, computed literally on the score-function side.

    With x_k = theta + mu*u_k the score-function estimate is
    (1/k) sum_k (x_k - theta)/mu^2 * (f(x_k) - f(theta)).  In floating
    point x_k - theta recovers mu*u_k only up to the rounding of mu*u_k,
    of theta + mu*u_k and of the subtraction, so per component j

        |x_kj - theta_j - mu*u_kj| <= u * (mu|u_kj| + 2|x_kj| + |theta_j|)

    to first order in the unit roundoff u.  Each side adds at most three
    roundings per term, k - 1 in the sum over k and two in the 1/k
    scaling, every one below u times the same magnitude.  Hence

        |score_j - fd_j| <= (2k + 8) * u * (1/k) * sum_k T_kj,
        T_kj = |f(x_k) - f(theta)| / mu^2 * (mu|u_kj| + 2|x_kj| + |theta_j|).
    """
    for case in range(6):
        d = 2 + 3 * case
        k = 1 + 2 * case
        mu = (0.5, 0.05, 0.01)[case % 3]
        spec = ObjectiveSpec(kind, d, noise_sigma=sigma)
        theta = 2.0 * kernels.uniform_doubles(100 + case, d) - 1.0
        cfg = EstimatorConfig(mu=mu, k=k, tag=DistTag.GAUSSIAN)
        master, t = 4242 + case, 3
        g, _ = fd_estimate(spec, theta, cfg, t, master)

        seeds = np.array([sampling.direction_seed(master, t, j) for j in range(1, k + 1)],
                         dtype=np.uint64)
        dirs = kernels.materialize_block(seeds, int(DistTag.GAUSSIAN), d)
        nseed = sampling.noise_seed(master, t)
        x = theta + mu * dirs
        dy = objectives.eval(spec, x, nseed) - objectives.eval(spec, theta, nseed)
        score = np.sum((x - theta) / (mu * mu) * dy[:, None], axis=0) / k

        terms = (np.abs(dy)[:, None] / (mu * mu)
                 * (mu * np.abs(dirs) + 2.0 * np.abs(x) + np.abs(theta)))
        bound = (2 * k + 8) * UNIT_ROUNDOFF * terms.sum(axis=0) / k
        assert np.all(np.abs(score - g) <= bound), (case, np.abs(score - g) / bound)
        # the bound is tight enough to catch a relative error of 1e-9
        assert np.all(bound <= 1e-9 * np.abs(g).max())


def test_score_function_requires_gaussian():
    cfg = EstimatorConfig(mu=0.1, k=2, tag=DistTag.SPHERE)
    with pytest.raises(ValueError):
        reinforce_gs_estimate(ObjectiveSpec(ObjectiveKind.QUADRATIC, 2),
                              np.zeros(2), cfg, 1, 1)


# ---------------------------------------------------------------------------
# importance scaling

def test_gamma_factor_values():
    assert gamma_factor(DistTag.GAUSSIAN, 123, 0.3) == 1.0
    assert abs(gamma_factor(DistTag.SPHERE, 2, 0.1) - 6.0653066) < 1e-6
    assert abs(gamma_factor(DistTag.COORDINATE, 2, 0.1) - 19.3064705) < 1e-6
    assert abs(gamma_factor(DistTag.COORDINATE, 3, 0.5) - 0.9242601) < 1e-6


# up to d = 6 every gamma is finite; at d = 400 the sphere law's
# underflows for every mu here and the coordinate law's overflows at mu = 0.05
@pytest.mark.parametrize("tag", [DistTag.SPHERE, DistTag.COORDINATE])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 20, 100, 300, 400])
def test_gamma_factor_against_mpmath(tag, dim):
    for mu in (0.05, 0.1, 0.5):
        gamma = gamma_factor(tag, dim, mu)
        if tag is DistTag.SPHERE:
            ref = (mpmath.mpf(2) ** (1 - mpmath.mpf(dim) / 2) * mpmath.exp(-0.5)
                   / (mpmath.mpf(mu) * mpmath.gamma(mpmath.mpf(dim) / 2)))
        else:
            ref = (dim * mpmath.exp(-0.5)
                   / (2 * mpmath.pi * mpmath.mpf(mu) ** 2) ** (mpmath.mpf(dim) / 2))
        if ref > sys.float_info.max:
            assert gamma == math.inf
        elif ref < sys.float_info.min:
            # no case here lands among the subnormals, where a relative
            # bound would not hold: each rounds to 0.0 (below 2**-1075)
            assert ref < mpmath.mpf(2) ** -1075
            assert gamma == 0.0
        else:
            assert abs(gamma - float(ref)) <= 1e-12 * float(ref)


@pytest.mark.parametrize("tag", [DistTag.GAUSSIAN, DistTag.SPHERE, DistTag.COORDINATE])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_is_scaling_identity(tag, dim):
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, dim)
    for mu in (0.05, 0.1, 0.5):
        cfg = EstimatorConfig(mu=mu, k=4, tag=tag)
        theta = kernels.uniform_doubles(dim + 1, dim) - 0.5
        g_fd, _ = fd_estimate(spec, theta, cfg, 1, 5)
        g_is, queries = reinforce_is_estimate(spec, theta, cfg, 1, 5)
        assert queries == cfg.k + 1
        if tag is DistTag.GAUSSIAN:
            assert np.array_equal(g_is, g_fd)
        ref = gamma_factor(tag, dim, mu) * g_fd
        mask = np.abs(g_fd) > 1e-15
        if mask.any():
            rel = np.abs(g_is[mask] - ref[mask]) / np.abs(ref[mask])
            assert rel.max() < 1e-9


@pytest.mark.parametrize("tag,dim,mu", [(DistTag.COORDINATE, 400, 0.05),
                                        (DistTag.SPHERE, 400, 0.05)],
                         ids=["overflow", "underflow"])
def test_is_gamma_out_of_range_raises(tag, dim, mu):
    assert gamma_factor(tag, dim, mu) in (0.0, math.inf)
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, dim)
    cfg = EstimatorConfig(mu=mu, k=2, tag=tag)
    with pytest.raises(ValueError, match="d=400"):
        reinforce_is_estimate(spec, np.ones(dim), cfg, 1, 3)


# ---------------------------------------------------------------------------
# history buffer

def _ring(k, n, dim=2):
    """A ring of one run."""
    return HistoryBuffer(block_size=k, depth=n, tag=DistTag.COORDINATE, dim=dim, rows=1)


def _rows(labels, dim=2):
    """One run's (1, len(labels), dim) block, every entry of direction j
    equal to label j."""
    return np.repeat(np.asarray(labels, dtype=np.float64)[None, :, None], dim, axis=2)


def _coord_rows(dim, *indices):
    """One run's block of the basis directions e_i, materialised from
    seeds that select them."""
    seeds = np.array([coord_seed(dim, i) for i in indices], dtype=np.uint64)
    return kernels.materialize_block(seeds, int(DistTag.COORDINATE), dim)[None]


def _stacked(buf):
    """The ring's directions oldest first, as one (R, n*k, dim) array."""
    return np.moveaxis(np.concatenate(buf.spans()), 0, -2)


def test_push_block_ring_semantics():
    buf = _ring(3, 2)
    buf.push_block(_rows([0, 1, 2]), [[0.0, 1.0, 2.0]])
    assert len(buf) == 3
    assert _stacked(buf).shape == (1, 3, 2)
    buf.push_block(_rows([3, 4, 5]), [[3.0, 4.0, 5.0]])
    assert len(buf) == 6
    buf.push_block(_rows([6, 7, 8]), [[6.0, 7.0, 8.0]])
    assert len(buf) == 6
    assert buf.values.tolist() == [[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]
    assert np.array_equal(_stacked(buf), _rows([3, 4, 5, 6, 7, 8]))
    assert _stacked(buf).dtype == np.float64


def test_push_block_size_checked():
    buf = _ring(2, 2)
    with pytest.raises(ValueError):
        buf.push_block(_rows([1]), [[1.0]])
    with pytest.raises(ValueError):
        buf.push_block(_rows([1, 2]), [[1.0]])
    with pytest.raises(ValueError):
        buf.push_block(_rows([1, 2], dim=3), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        buf.push_block(_rows([1, 2])[0], [1.0, 2.0])
    assert len(buf) == 0


def test_depth_one_keeps_latest_block():
    buf = _ring(2, 1)
    for t in range(1, 5):
        buf.push_block(_rows([t, t]), [[float(t), float(t)]])
        assert np.array_equal(_stacked(buf), _rows([t, t]))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(1, 5), total=st.integers(1, 20))
def test_buffer_holds_most_recent_iterations(k, n, total):
    # each block's directions carry the iteration that pushed it
    buf = _ring(k, n)
    for t in range(1, total + 1):
        buf.push_block(_rows([t] * k), [[0.0] * k])
    kept = sorted(set(_stacked(buf)[0, :, 0].tolist()))
    assert kept == list(range(max(1, total - n + 1), total + 1))
    assert len(buf) == k * min(n, total)


def test_zoar_baseline_is_mean_of_ring():
    # one coordinate direction per query: component i of the estimate is
    # the sum of (y - b)/mu over the queries along e_i, so it exposes b
    buf = _ring(2, 2)
    buf.push_block(_coord_rows(2, 0, 1), [[1.0, 3.0]])
    assert np.array_equal(zoar_estimate(buf, mu=1.0), [[1.0 - 2.0, 3.0 - 2.0]])
    buf.push_block(_coord_rows(2, 0, 0), [[0.0, 2.0]])
    # b = 1.5 over all four values, oldest block included
    assert np.allclose(zoar_estimate(buf, mu=1.0), [[-0.5, 0.5]], rtol=1e-15, atol=0)
    const = _ring(2, 1)
    const.push_block(_coord_rows(2, 0, 1), [[4.25, 4.25]])
    assert np.array_equal(zoar_estimate(const, mu=1.0), np.zeros((1, 2)))


def test_push_block_shift_allocates_less_than_a_block():
    # an overlapping shift of the whole ring would copy it into a
    # temporary of (n-1)*k*d floats first
    k, n, dim = 10, 6, 10_000
    buf = _ring(k, n, dim=dim)
    block = np.ones((1, k, dim))
    for _ in range(n):
        buf.push_block(block, np.zeros((1, k)))
    tracemalloc.start()
    try:
        buf.push_block(block, np.zeros((1, k)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * dim * 8


# ---------------------------------------------------------------------------
# the reuse estimator

def test_zoar_hand_example():
    # two queries: (e1, y=1), (e2, y=3), mu = 0.5 -> baseline 2, g = (-2, 2)
    buf = _ring(1, 2)
    buf.push_block(_coord_rows(2, 0), [[1.0]])
    buf.push_block(_coord_rows(2, 1), [[3.0]])
    grad = zoar_estimate(buf, mu=0.5)
    assert np.array_equal(grad, np.array([[-2.0, 2.0]]))


def test_zoar_equal_values_gives_zero():
    buf = _ring(2, 2, dim=3)
    buf.push_block(_coord_rows(3, 0, 1), [[5.0, 5.0]])
    buf.push_block(_coord_rows(3, 2, 1), [[5.0, 5.0]])
    assert np.array_equal(zoar_estimate(buf, mu=0.1), np.zeros((1, 3)))


def test_zoar_single_record_gives_zero():
    # the k = 1 warm-up: one query is its own baseline, whatever its value
    for value in (1.0, float("inf"), float("nan")):
        buf = _ring(1, 4)
        buf.push_block(_rows([0]), [[value]])
        grad = zoar_estimate(buf, mu=0.1)
        assert grad.shape == (1, 2) and np.array_equal(grad, np.zeros((1, 2)))
        assert not np.signbit(grad).any()


@pytest.mark.parametrize("tag", list(DistTag))
def test_zoar_reduction_matches_seeded_weighted_sum_bitwise(tag):
    # the ring's directions, reduced in ring order, give the bits the
    # kernel's seeded reduction gives on the same seeds
    k, n, dim, mu = 3, 4, 7, 0.05
    buf = HistoryBuffer(block_size=k, depth=n, tag=tag, dim=dim, rows=1)
    seeds = kernels.np_fold(np.uint64(21), np.arange(k * (n + 2), dtype=np.uint64))
    values = kernels.uniform_doubles(5, seeds.size) - 0.5
    for b in range(n + 2):
        block = seeds[b * k:(b + 1) * k]
        buf.push_block(kernels.materialize_block(block, int(tag), dim)[None],
                       values[None, b * k:(b + 1) * k])
    kept = values[-k * n:]
    coeffs = (kept - kept.mean()) / mu
    ref = kernels.weighted_direction_sum(seeds[-k * n:], int(tag), dim, coeffs)
    ref *= (dim if tag is DistTag.SPHERE else 1.0) / (k * n - 1)
    assert np.array_equal(zoar_estimate(buf, mu), ref[None])


def _loop_sum(coeffs, rows):
    """grad += coeffs[..., j] * u_j for each row u_j in order, from zeros."""
    grad = np.zeros(coeffs.shape[:-1] + rows[0].shape[-1:])
    for j, u in enumerate(rows):
        grad += coeffs[..., j, None] * u
    return grad


def _awkward_coeffs(rng, shape):
    """Eight draws of coefficients over four decades with signed zeros,
    where a large term and its negation sit far apart, so partial sums
    cancel and another summation order rounds differently; and all -0.0,
    whose terms sum to +0.0 only from a +0.0 start."""
    draws = []
    for _ in range(8):
        c = rng.standard_normal(shape) * 10.0 ** rng.integers(0, 4, size=shape)
        c[..., 1], c[..., 2] = -0.0, 0.0
        c[..., -1] = -c[..., 0]
        draws.append(c)
    return draws + [np.full(shape, -0.0)]


@pytest.mark.parametrize("dim", [1, 7, 1000])
@pytest.mark.parametrize("rows", [None, 1, 5], ids=["ring-1d", "R1", "R5"])
@pytest.mark.parametrize("tag", list(DistTag))
def test_one_pass_sum_matches_the_loop_bitwise(monkeypatch, tag, rows, dim):
    # a partly filled ring (one slot range) and a wrapped one (two), and a
    # difference step's (k, ..., d) block; each under the default size
    # limit (dim 1000 at R = 5 lies above it), forced to the loop, and
    # forced to one pass.  ring-1d sums a one-run ring's spans without
    # their row axis, the (k, d) shape of a one-run difference step
    k, n = 4, 5
    lead = () if rows is None else (rows,)
    rng = np.random.default_rng(dim)
    seeds = kernels.np_fold(np.uint64(dim), np.arange(7 * k * (rows or 1), dtype=np.uint64))
    blocks = kernels.materialize_block(seeds, int(tag), dim).reshape((7,) + lead + (k, dim))
    cases = []
    for pushes in (3, 7):
        buf = HistoryBuffer(k, n, tag, dim, rows=rows or 1)
        for block in blocks[:pushes]:
            buf.push_block(block.reshape(-1, k, dim), np.zeros((rows or 1, k)))
        spans = [span.reshape(span.shape[:1] + lead + (dim,)) for span in buf.spans()]
        assert len(spans) == (1 if pushes <= n else 2)
        kept = [block[..., j, :] for block in blocks[max(0, pushes - n):pushes]
                for j in range(k)]
        cases += [(c, spans, kept) for c in _awkward_coeffs(rng, lead + (len(kept),))]
    step = blocks[0]
    cases += [(c, [np.moveaxis(step, -2, 0)], [step[..., j, :] for j in range(k)])
              for c in _awkward_coeffs(rng, lead + (k,))]
    for coeffs, spans, kept in cases:
        ref = _loop_sum(coeffs, kept)
        for limit in (estimators.SUM_ELEMENTS, 0, 1 << 40):
            monkeypatch.setattr(estimators, "SUM_ELEMENTS", limit)
            assert estimators._weighted_sum(coeffs, spans).tobytes() == ref.tobytes(), limit
    # the data tell the orders apart: NumPy's pairwise sum along a
    # contiguous axis rounds some draw of the wrapped ring's terms
    # differently
    pairwise = []
    for coeffs, _, kept in cases[9:17]:
        terms = np.stack([coeffs[..., j, None] * u for j, u in enumerate(kept)], axis=-1)
        pairwise.append(np.add.reduce(terms, axis=-1).tobytes()
                        != _loop_sum(coeffs, kept).tobytes())
    assert any(pairwise) or tag is DistTag.COORDINATE


def test_zoar_monte_carlo_mean_is_smoothed_gradient():
    # frozen point on the quadratic: the sphere-smoothed gradient equals theta
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    theta = np.array([0.8, -0.4, 0.1])
    cfg = EstimatorConfig(mu=0.05, k=2, n=1, tag=DistTag.SPHERE)
    est, = verify._history_estimates([spec], theta[None, :], cfg, trials=100000, seed=31)
    se = est.std(axis=0, ddof=1) / math.sqrt(est.shape[0])
    assert np.all(np.abs(est.mean(axis=0) - theta) < 4.0 * se)


def test_zohs_examples():
    g = np.array([1.0, -2.0])
    assert np.array_equal(zohs_estimate(g[None]), g)
    assert np.array_equal(zohs_estimate(np.array([g, -g])), np.zeros(2))
    got = zohs_estimate(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(got, [2 / 3, 2 / 3], rtol=0, atol=1e-16)
    # a lockstep (R, m, d) window gives one mean per row
    window = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [g, -g, g]])
    assert np.array_equal(zohs_estimate(window), [got, zohs_estimate(np.array([g, -g, g]))])
    with pytest.raises(ValueError):
        zohs_estimate(np.empty((3, 0, 2)))


# ---------------------------------------------------------------------------
# history-depth constant

def test_c_n_is_exactly_one_at_depth_one():
    for beta1 in (0.1, 0.5, 0.9, 0.3, 0.77):
        assert c_n_constant(beta1, 1) == 1.0


def test_c_n_value_and_monotonicity():
    assert abs(c_n_constant(0.9, 2) - 1.0555555555555556) < 1e-12
    for beta1 in (0.1, 0.5, 0.9):
        values = [c_n_constant(beta1, n) for n in range(1, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_c_n_factored_form_matches_direct_formula_exactly():
    # rational arithmetic: factored rewrite == the published closed form
    for beta_frac in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(3, 7)):
        for n in range(1, 12):
            b = beta_frac
            direct = (2 * (1 - b) ** 2 * n ** 2 - 3 * (1 - b) * (1 - 3 * b) * n
                      - b * (2 - 13 * b) + 1) / (6 * b * (1 + b))
            a = 2 * (1 - b) ** 2
            bb = -3 * (1 - b) * (1 - 3 * b)
            factored = 1 + (n - 1) * (a * n + (a + bb)) / (6 * b * (1 + b))
            assert direct == factored
            assert abs(c_n_constant(float(b), n) - float(direct)) < 1e-10 * float(direct)


def test_c_n_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            c_n_constant(bad, 2)
    with pytest.raises(ValueError):
        c_n_constant(0.5, 0)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mu=0.0, k=1)
    with pytest.raises(ValueError):
        EstimatorConfig(mu=0.1, k=0)
    with pytest.raises(ValueError):
        EstimatorConfig(mu=0.1, k=1, n=1).require_reusable()
    EstimatorConfig(mu=0.1, k=2, n=1).require_reusable()


def test_mu_is_bounded_so_that_every_perturbation_is_finite():
    # the open-(0, 1) draws nearest 0 and 1 give the largest Gaussian entries
    extremes = kernels.pure.normal_icdf(np.array([2.0 ** -53, 1.0 - 2.0 ** -53]))
    assert np.max(np.abs(extremes)) <= estimators.LARGEST_ENTRY[DistTag.GAUSSIAN]
    for tag in DistTag:
        top = sys.float_info.max / estimators.LARGEST_ENTRY[tag]
        assert EstimatorConfig(mu=top, k=1, tag=tag).mu == top
        u = extremes if tag is DistTag.GAUSSIAN else np.array([-1.0, 1.0])
        assert np.all(np.isfinite(top * u))
        with pytest.raises(ValueError, match="mu must be positive and at most"):
            EstimatorConfig(mu=math.nextafter(top, math.inf), k=1, tag=tag)
    EstimatorConfig(mu=1e300, k=1)
    with pytest.raises(ValueError, match="mu must be"):
        EstimatorConfig(mu=1e308, k=1)
