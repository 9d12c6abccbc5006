"""Statistical and exact oracles that run the estimator theory as checks.

Each check returns a :class:`CheckReport` and is deterministic given its
(seed, trials) arguments.  Monte-Carlo acceptance bands are sized from
measured standard errors (5 SE unless a check documents otherwise);
only the algebraic identities use absolute tolerances (0 exactly, or
1e-9 for the importance-scaling ratio).

The history checks draw directions with :func:`estimators.directions`
and turn them into points, values and noise through
:func:`estimators.query_block`, the optimisation loop's own query path;
only their reduction over each trial's history is the verifier's own.

The Monte-Carlo checks walk their trials in chunks of at most
``TRIAL_CHUNK_ELEMENTS`` direction entries (trials x queries x d), so
that one chunk's directions, points, values and noise digests (512 KiB
each at 2**16 float64 entries) stay in a core's L2 cache while the pure
kernel's few dozen elementwise passes run over them.  Every trial's work
is independent and each reduction over trials runs on the assembled
(trials, ...) array, so the reports do not depend on the chunk size.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels as kernels
from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, direction_scale, gamma_factor
from .objectives import ObjectiveKind, ObjectiveSpec
from .sampling import DistTag

_NS_STREAM_A = 0x10
_NS_STREAM_B = 0x11
_NS_BLOCK = 0x12
_NS_THETA = 0x13
_NS_MASTER = 0x14
_NS_NOISEROOT = 0x15

# direction entries per trial chunk, chosen by timing the statistical
# suite (pure backend, 2-vCPU Xeon with 2 MiB L2 per core, median of 4):
# 2**14 1.63 s, 2**15 1.28 s, 2**16 1.08 s, 2**17 1.13 s, 2**18 1.35 s
TRIAL_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    statistic: float
    threshold: float
    trials: int
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# vectorised history sampling: the loop's query_block draws the queries;
# the reduction is this module's, pinned to estimators.zoar_estimate by a
# unit test

def _chunked(trials: int, per_trial: int):
    """(start, size) chunks of ``trials`` with at most
    ``TRIAL_CHUNK_ELEMENTS`` entries each, given ``per_trial`` entries
    per trial (at least one trial per chunk)."""
    per_chunk = max(1, TRIAL_CHUNK_ELEMENTS // max(1, per_trial))
    start = 0
    while start < trials:
        size = min(per_chunk, trials - start)
        yield start, size
        start += size


def _history_estimates(spec: ObjectiveSpec, theta_seq: np.ndarray,
                       cfg: EstimatorConfig, trials: int, seed: int,
                       baseline_grid: np.ndarray | None = None):
    """Reuse-estimator samples over independent history fills.

    ``theta_seq`` has shape (n_blocks, d); block b of every trial is
    drawn at theta_seq[b] with its own noise seed by
    :func:`estimators.query_block`, as one iteration of the optimization
    loop draws it.  Returns estimates of shape
    (trials, d), or (len(baseline_grid), trials, d) when an explicit
    baseline grid overrides the averaged baseline.

    Trials are generated ``TRIAL_CHUNK_ELEMENTS // (n_blocks·k·d)`` at a
    time (at least one), so the chunk's direction and point arrays fit in
    L2; each trial's estimate depends on its own seeds alone, so the
    output bits do not depend on the chunk size.
    """
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    n_blocks, d = theta_seq.shape
    m = n_blocks * cfg.k
    scale = direction_scale(cfg.tag, d) / ((m - 1) * cfg.mu)

    grid = None if baseline_grid is None else np.asarray(baseline_grid, dtype=np.float64)
    out = (np.empty((trials, d)) if grid is None
           else np.empty((grid.shape[0], trials, d)))

    trial_root = sampling.fold(seed, sampling.NS_TRIAL)
    for start, size in _chunked(trials, m * d):
        roots = kernels.np_fold(np.uint64(trial_root),
                                np.arange(start, start + size, dtype=np.uint64))
        block_roots = kernels.np_fold(roots[:, None], np.arange(n_blocks, dtype=np.uint64))
        dir_seeds = kernels.np_fold(block_roots[:, :, None], np.arange(cfg.k, dtype=np.uint64))
        noise_roots = kernels.np_fold(block_roots, np.uint64(_NS_NOISEROOT))
        dirs = estimators.directions(dir_seeds, cfg.tag, d)
        values = estimators.query_block(spec, theta_seq, cfg, dirs, noise_roots)
        values = values.reshape(size, m)
        dirs = dirs.reshape(size, m, d)
        if grid is None:
            coeffs = values - values.mean(axis=1, keepdims=True)
            out[start:start + size] = scale * np.einsum("tm,tmd->td", coeffs, dirs)
        else:
            s_yu = np.einsum("tm,tmd->td", values, dirs)
            s_u = dirs.sum(axis=1)
            for gi, b in enumerate(grid):
                out[gi, start:start + size] = scale * (s_yu - b * s_u)
    return out


# ---------------------------------------------------------------------------
# checks

def check_objective_equivalence(spec: ObjectiveSpec, theta, mu: float,
                                tag: DistTag, trials: int, seed: int) -> CheckReport:
    """Two Monte-Carlo phrasings of the smoothed objective must agree.

    Stream A samples the policy's action x = theta + mu*u and averages
    F(x); stream B averages F(theta + mu*u) directly.  Passes when the
    means differ by less than 5 combined standard errors.
    """
    theta = sampling.as_params(theta, spec.dim)
    if mu == 0.0:
        value = objectives.clean_value(spec, theta)
        return CheckReport("objective_equivalence", True, 0.0, 0.0, trials,
                           detail=f"mu=0 degenerate case, F(theta)={value:.6g}")
    root_a = np.uint64(sampling.fold(seed, _NS_STREAM_A))
    root_b = np.uint64(sampling.fold(seed, _NS_STREAM_B))
    values_a = np.empty(trials)
    values_b = np.empty(trials)
    for start, size in _chunked(trials, spec.dim):
        counters = np.arange(start, start + size, dtype=np.uint64)
        seeds_a = kernels.np_fold(root_a, counters)
        seeds_b = kernels.np_fold(root_b, counters)
        actions = theta[None, :] + mu * kernels.materialize_block(seeds_a, int(tag), spec.dim)
        values_a[start:start + size] = objectives.clean_value(spec, actions)
        dirs = kernels.materialize_block(seeds_b, int(tag), spec.dim)
        values_b[start:start + size] = objectives.clean_value(spec, theta[None, :] + mu * dirs)
    diff = abs(float(values_a.mean()) - float(values_b.mean()))
    se = math.sqrt(values_a.var(ddof=1) / trials + values_b.var(ddof=1) / trials)
    return CheckReport("objective_equivalence", diff <= 5.0 * se, diff, 5.0 * se,
                       trials,
                       detail=f"policy mean {values_a.mean():.6g}, "
                              f"smoothing mean {values_b.mean():.6g}")


def check_estimator_identity(dim: int, k: int, mu: float, trials: int,
                             seed: int) -> CheckReport:
    """Finite-difference vs score-function estimates over random Gaussian
    configurations; passes only on exact (bitwise) agreement."""
    worst = 0.0
    kinds = [ObjectiveKind.QUADRATIC, ObjectiveKind.ACKLEY,
             ObjectiveKind.LEVY, ObjectiveKind.ROSENBROCK]
    for i in range(trials):
        root = sampling.trial_seed(seed, i)
        u = kernels.uniform_doubles(root, 4)
        d_i = 2 + int(u[0] * (dim - 1))
        k_i = 1 + int(u[1] * k)
        mu_i = 0.01 + u[2] * (mu - 0.01)
        sigma_i = 0.1 if u[3] < 0.5 else 0.0
        spec = ObjectiveSpec(kinds[i % 4], d_i, noise_sigma=sigma_i)
        theta = 2.0 * kernels.uniform_doubles(sampling.fold(root, _NS_THETA), d_i) - 1.0
        cfg = EstimatorConfig(mu=mu_i, k=k_i, tag=DistTag.GAUSSIAN)
        master = sampling.fold(root, _NS_MASTER)
        g_fd, _ = estimators.fd_estimate(spec, theta, cfg, 1, master)
        g_rf, _ = estimators.reinforce_gs_estimate(spec, theta, cfg, 1, master)
        worst = max(worst, float(np.max(np.abs(g_fd - g_rf))))
    return CheckReport("estimator_identity", worst == 0.0, worst, 0.0, trials,
                       detail=f"max componentwise |fd - score| over {trials} configs")


def check_is_scaling(tag: DistTag, dim: int, mu: float, trials: int,
                     seed: int) -> CheckReport:
    """Importance-weighted estimate must equal gamma times the
    finite-difference estimate, componentwise, within 1e-9 relative."""
    gamma, _ = gamma_factor(tag, dim, mu)
    worst = 0.0
    for i in range(trials):
        root = sampling.trial_seed(seed, i)
        spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, dim)
        theta = 2.0 * kernels.uniform_doubles(sampling.fold(root, _NS_THETA), dim) - 1.0
        cfg = EstimatorConfig(mu=mu, k=4, tag=tag)
        master = sampling.fold(root, _NS_MASTER)
        g_fd, _ = estimators.fd_estimate(spec, theta, cfg, 1, master)
        est = estimators.reinforce_is_estimate(spec, theta, cfg, 1, master)
        if not est.scaled:
            return CheckReport("is_scaling", False, math.inf, 1e-9, trials,
                               detail=f"gamma overflowed at d={dim}")
        ref = gamma * g_fd
        mask = np.abs(g_fd) > 1e-15
        if np.any(mask):
            rel = np.max(np.abs(est.gradient[mask] - ref[mask]) / np.abs(ref[mask]))
            worst = max(worst, float(rel))
    return CheckReport("is_scaling", worst < 1e-9, worst, 1e-9, trials,
                       detail=f"tag={tag.name} d={dim} mu={mu} gamma={gamma:.8g}")


def check_history_estimator_mean(spec: ObjectiveSpec, theta_seq, cfg: EstimatorConfig,
                    trials: int, seed: int) -> CheckReport:
    """Monte-Carlo mean of the reuse estimator over independent history
    fills at a frozen parameter sequence, against the analytic average of
    smoothed gradients (Quadratic only: each equals theta)."""
    if spec.kind is not ObjectiveKind.QUADRATIC:
        raise ValueError("the bias check uses the quadratic analytic gradient")
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    target = theta_seq.mean(axis=0)
    est = _history_estimates(spec, theta_seq, cfg, trials, seed)
    se = est.std(axis=0, ddof=1) / math.sqrt(trials)
    z = np.abs(est.mean(axis=0) - target) / se
    stat = float(z.max())
    return CheckReport("bias_history_mean", stat <= 5.0, stat, 5.0, trials,
                       detail=f"n={theta_seq.shape[0]} k={cfg.k} tag={cfg.tag.name}; "
                              f"max per-coordinate z-score")


def check_optimal_baseline(spec: ObjectiveSpec, theta_seq,
                                cfg: EstimatorConfig, baseline_grid,
                                trials: int, seed: int) -> CheckReport:
    """Empirical estimator variance over a baseline grid must bottom out
    within one grid cell of the averaged smoothed value, and sit strictly
    below the variance at b = 0 and b = b* + 1."""
    if cfg.tag is not DistTag.SPHERE:
        raise ValueError("the optimal-baseline analysis assumes unit-sphere directions")
    if spec.kind is not ObjectiveKind.QUADRATIC:
        raise ValueError("the optimal-baseline check uses quadratic closed forms")
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    grid = np.sort(np.asarray(baseline_grid, dtype=np.float64))
    b_star = float(np.mean(0.5 * np.sum(theta_seq ** 2, axis=1) + 0.5 * cfg.mu ** 2))
    target = theta_seq.mean(axis=0)
    probes = np.concatenate([grid, [b_star, 0.0, b_star + 1.0]])
    est = _history_estimates(spec, theta_seq, cfg, trials, seed, baseline_grid=probes)
    # one probe row at a time: a (probes, trials, d) temporary would
    # double the peak
    var = np.array([np.mean(np.sum((row - target[None, :]) ** 2, axis=1))
                    for row in est])
    grid_var = var[:grid.shape[0]]
    v_star, v_zero, v_plus = var[-3], var[-2], var[-1]
    cell = float(np.min(np.diff(grid))) if grid.shape[0] > 1 else math.inf
    minimizer = float(grid[int(np.argmin(grid_var))])
    stat = abs(minimizer - b_star) / cell
    ordered = v_star < v_zero and v_star < v_plus
    return CheckReport("optimal_baseline", bool(stat <= 1.0 and ordered), stat, 1.0,
                       trials,
                       detail=f"b*={b_star:.6g} minimizer={minimizer:.6g} "
                              f"var(b*)={v_star:.4g} var(0)={v_zero:.4g} "
                              f"var(b*+1)={v_plus:.4g}")


def _frozen_variance(spec: ObjectiveSpec, theta: np.ndarray, cfg: EstimatorConfig,
                     depth: int, trials: int, seed: int) -> float:
    theta_seq = np.repeat(theta[None, :], depth, axis=0)
    est = _history_estimates(spec, theta_seq, cfg, trials, seed)
    return float(est.var(axis=0, ddof=1).mean())


def check_variance_scaling(spec: ObjectiveSpec, theta, cfg: EstimatorConfig,
                           depths, trials: int, seed: int) -> CheckReport:
    """Frozen-parameter variance of the reuse estimator.

    Verifies Var(depth)/Var(1) within +-25% of 1/depth for every
    requested depth, that doubling the per-iteration query count at
    depth 1 halves the variance within the same band, and that switching
    on observation noise strictly inflates the variance.
    """
    theta = sampling.as_params(theta, spec.dim)
    var1 = _frozen_variance(spec, theta, cfg, 1, trials, sampling.fold(seed, 1))
    stat = 0.0
    lines = []
    for depth in depths:
        var_n = _frozen_variance(spec, theta, cfg, depth, trials,
                                 sampling.fold(seed, depth))
        dev = abs(var_n / var1 * depth - 1.0)
        stat = max(stat, dev)
        lines.append(f"N={depth}: ratio*N={var_n / var1 * depth:.4f}")
    cfg2 = EstimatorConfig(mu=cfg.mu, k=2 * cfg.k, n=cfg.n, tag=cfg.tag)
    var_2k = _frozen_variance(spec, theta, cfg2, 1, trials, sampling.fold(seed, 101))
    dev_k = abs(var_2k / var1 * 2.0 - 1.0)
    stat = max(stat, dev_k)
    lines.append(f"2K: ratio*2={var_2k / var1 * 2.0:.4f}")
    noisy = ObjectiveSpec(spec.kind, spec.dim, noise_sigma=0.1)
    var_noisy = _frozen_variance(noisy, theta, cfg, 1, trials, sampling.fold(seed, 1))
    lines.append(f"noise: {var_noisy:.4g} vs clean {var1:.4g}")
    passed = stat <= 0.25 and var_noisy > var1
    return CheckReport("variance_scaling", bool(passed), stat, 0.25, trials,
                       detail="; ".join(lines))


def check_lr_equivalence(spec: ObjectiveSpec, dim: int, tag: DistTag,
                              eta_z: float, steps: int, seed: int) -> CheckReport:
    """Plain gradient descent driven by the finite-difference estimate at
    eta_z must match descent driven by the importance-weighted estimate
    at eta_z / gamma, iterate for iterate."""
    if dim != spec.dim:
        raise ValueError("dim must match the objective dimension")
    cfg = EstimatorConfig(mu=0.05, k=4, tag=tag)
    gamma, _ = gamma_factor(tag, dim, cfg.mu)
    eta_r = eta_z / gamma
    theta_z = 2.0 * kernels.uniform_doubles(sampling.fold(seed, _NS_THETA), dim) - 1.0
    theta_r = theta_z.copy()
    master = sampling.fold(seed, _NS_MASTER)
    worst = 0.0
    for t in range(1, steps + 1):
        g_z, _ = estimators.fd_estimate(spec, theta_z, cfg, t, master)
        est = estimators.reinforce_is_estimate(spec, theta_r, cfg, t, master)
        theta_z = theta_z - eta_z * g_z
        theta_r = theta_r - eta_r * est.gradient
        worst = max(worst, float(np.max(np.abs(theta_z - theta_r))))
    return CheckReport("lr_equivalence", worst < 1e-9, worst, 1e-9, steps,
                       detail=f"tag={tag.name} d={dim} gamma={gamma:.8g}")


def check_gradient_oracle(spec: ObjectiveSpec, theta, seed: int) -> CheckReport:
    """Directional finite differences against the gradient oracle."""
    theta = sampling.as_params(theta, spec.dim)
    grad = objectives.grad_oracle(spec, theta)
    h = 1e-5
    worst = 0.0
    for i in range(8):
        v = kernels.materialize(sampling.trial_seed(seed, i), kernels.SPHERE, spec.dim)
        directional = (objectives.clean_value(spec, theta + h * v)
                       - objectives.clean_value(spec, theta - h * v)) / (2.0 * h)
        ref = float(np.dot(grad, v))
        denom = max(1.0, abs(ref))
        worst = max(worst, abs(directional - ref) / denom)
    return CheckReport("gradient_oracle", worst < 1e-4, worst, 1e-4, 8,
                       detail=f"{spec.kind.value} d={spec.dim}")


# ---------------------------------------------------------------------------
# suite

def run_suite(suite: str, seed: int) -> list[CheckReport]:
    """Run the named check suite ('exact', 'statistical', or 'all')."""
    if suite not in ("all", "exact", "statistical"):
        raise ValueError(f"unknown suite: {suite!r}")
    reports: list[CheckReport] = []
    if suite in ("all", "exact"):
        reports.append(check_estimator_identity(
            dim=64, k=8, mu=1.0, trials=150, seed=sampling.fold(seed, 1)))
        for i, (tag, d, mu) in enumerate([(DistTag.GAUSSIAN, 10, 0.1),
                                          (DistTag.SPHERE, 2, 0.1),
                                          (DistTag.SPHERE, 5, 0.05),
                                          (DistTag.COORDINATE, 3, 0.5),
                                          (DistTag.COORDINATE, 6, 0.5)]):
            reports.append(check_is_scaling(tag, d, mu, trials=10,
                                            seed=sampling.fold(seed, 10 + i)))
        for i, (tag, d) in enumerate([(DistTag.GAUSSIAN, 3), (DistTag.SPHERE, 2),
                                      (DistTag.COORDINATE, 3)]):
            reports.append(check_lr_equivalence(
                ObjectiveSpec(ObjectiveKind.QUADRATIC, d), d, tag, eta_z=0.05,
                steps=100, seed=sampling.fold(seed, 20 + i)))
        for i, kind in enumerate(ObjectiveKind):
            spec = ObjectiveSpec(kind, 10)
            theta = 0.5 + 0.1 * np.arange(10)
            reports.append(check_gradient_oracle(spec, theta,
                                                 seed=sampling.fold(seed, 30 + i)))
    if suite in ("all", "statistical"):
        reports.append(check_objective_equivalence(
            ObjectiveSpec(ObjectiveKind.QUADRATIC, 4), np.zeros(4), mu=1.0,
            tag=DistTag.SPHERE, trials=20000, seed=sampling.fold(seed, 40)))
        reports.append(check_objective_equivalence(
            ObjectiveSpec(ObjectiveKind.ACKLEY, 5), 0.3 * np.ones(5), mu=0.05,
            tag=DistTag.GAUSSIAN, trials=100000, seed=sampling.fold(seed, 41)))
        theta = np.linspace(0.2, 1.0, 5)
        reports.append(check_history_estimator_mean(
            ObjectiveSpec(ObjectiveKind.QUADRATIC, 5), theta[None, :],
            EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
            trials=30000, seed=sampling.fold(seed, 42)))
        seq = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        reports.append(check_history_estimator_mean(
            ObjectiveSpec(ObjectiveKind.QUADRATIC, 3), seq,
            EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
            trials=30000, seed=sampling.fold(seed, 43)))
        theta_unit = np.zeros(10)
        theta_unit[0] = 1.0
        b_star = 0.5 + 0.5 * 0.05 ** 2
        grid = b_star + 0.05 * np.arange(-10, 11)
        reports.append(check_optimal_baseline(
            ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), theta_unit[None, :],
            EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE), grid,
            trials=10000, seed=sampling.fold(seed, 44)))
        reports.append(check_variance_scaling(
            ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), np.full(10, 0.5),
            EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE), depths=[2, 4, 6],
            trials=10000, seed=sampling.fold(seed, 45)))
    return reports


def reports_to_json(reports: list[CheckReport], suite: str, seed: int) -> str:
    doc = {
        "suite": suite,
        "seed": seed,
        "all_passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_reports(reports: list[CheckReport]) -> str:
    lines = []
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"{flag} {r.name}: statistic={r.statistic:.6g} "
                     f"threshold={r.threshold:.6g} trials={r.trials} ({r.detail})")
    return "\n".join(lines) + "\n"
