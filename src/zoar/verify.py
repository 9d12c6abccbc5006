"""Statistical and exact oracles that run the estimator theory as checks.

Each check returns a :class:`CheckReport` and is deterministic given its
(seed, trials) arguments.  Monte-Carlo acceptance bands are sized from
measured standard errors (5 SE unless a check documents otherwise);
only the algebraic identities use absolute tolerances (0 exactly, or
1e-9 for the importance-scaling ratio).

The history checks draw directions with :func:`estimators.directions`
and turn them into points, values and noise through
:func:`estimators.query_block`, the optimisation loop's own query path,
in one sampler, :func:`_history_queries`, and sum them with the loop's
``estimators._weighted_sum``.  Only the coefficients are the verifier's
own: the averaged-baseline ones (:func:`_history_estimates`) and the raw
values behind the squared error at fixed baselines
(:func:`_baseline_variances`).

The Monte-Carlo checks walk their trials in chunks of at most
``TRIAL_CHUNK_ELEMENTS`` direction entries (trials x queries x d), so
that one chunk's directions, points, values and noise digests (512 KiB
each at 2**16 float64 entries) stay in a core's L2 cache while the pure
kernel's few dozen elementwise passes run over them.  Every trial's work
is independent: a chunk reduces each trial to a row of its own, and each
reduction over trials runs on the assembled (trials, ...) array, so the
reports do not depend on the chunk size.  No check holds more than a
few (trials, d), (probes, trials) or (trials,) arrays besides one chunk:
each chunk's arrays are dropped before the next chunk is drawn, also
between the two seed streams of the objective-equivalence check.

The checks of a suite depend only on their own arguments, so
:func:`run_suite` runs them on one forked worker process per usable core
and puts their reports back in suite order: the report has the bytes of
a serial run.
"""

import json
import math
import os
import signal
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import _kernels as kernels
from . import estimators, objectives, sampling
from .estimators import EstimatorConfig, gamma_factor
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
# 2**14 1.63 s, 2**15 1.28 s, 2**16 1.08 s, 2**17 1.13 s, 2**18 1.35 s;
# at most the loop sum's one-pass size, so a chunk's sums take that form
TRIAL_CHUNK_ELEMENTS = estimators.SUM_ELEMENTS


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
# vectorised history sampling through the loop's query_block and
# _weighted_sum; the averaged-baseline coefficients are pinned to
# estimators.zoar_estimate by a unit test

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


def _reuse_scale(cfg: EstimatorConfig, theta_seq: np.ndarray) -> float:
    """Factor of the reuse estimate over a full history of
    ``theta_seq.shape[0]`` blocks of ``cfg.k`` queries."""
    n_blocks, d = theta_seq.shape
    return estimators.direction_scale(cfg.tag, d) / ((n_blocks * cfg.k - 1) * cfg.mu)


def _history_queries(specs: list[ObjectiveSpec], theta_seq: np.ndarray,
                     cfg: EstimatorConfig, trials: int, seed: int):
    """Independent history fills, one chunk of trials at a time, each
    evaluated on every objective of ``specs``.

    ``theta_seq`` has shape (n_blocks, d); block b of every trial is
    drawn at theta_seq[b] with its own noise seed by
    :func:`estimators.query_block`, as one iteration of the optimization
    loop draws it.  Yields ``(start, values, dirs)`` per chunk, with
    values a list of one (size, m) array per objective, all at the same
    points and noise seeds, and dirs of shape (size, m, d), m =
    n_blocks·k, for trials start .. start + size - 1.

    Trials are drawn ``TRIAL_CHUNK_ELEMENTS // (m·d)`` at a time (at
    least one), so the chunk's direction and point arrays fit in L2; each
    trial's queries depend on its own seeds alone, so their bits do not
    depend on the chunk size.  A consumer drops its references to a chunk
    before it asks for the next, so no chunk is held during a draw.
    """
    n_blocks, d = theta_seq.shape
    m = n_blocks * cfg.k
    trial_root = sampling.fold(seed, sampling.NS_TRIAL)
    for start, size in _chunked(trials, m * d):
        roots = kernels.np_fold(np.uint64(trial_root),
                                np.arange(start, start + size, dtype=np.uint64))
        block_roots = kernels.np_fold(roots[:, None], np.arange(n_blocks, dtype=np.uint64))
        dir_seeds = kernels.np_fold(block_roots[:, :, None], np.arange(cfg.k, dtype=np.uint64))
        noise_roots = kernels.np_fold(block_roots, np.uint64(_NS_NOISEROOT))
        dirs = estimators.directions(dir_seeds, cfg.tag, d)
        values = [estimators.query_block(spec, theta_seq, cfg, dirs, noise_roots)
                  .reshape(size, m) for spec in specs]
        yield start, values, dirs.reshape(size, m, d)
        del dirs, values  # before the next chunk is drawn


def _history_estimates(specs: list[ObjectiveSpec], theta_seq: np.ndarray,
                       cfg: EstimatorConfig, trials: int, seed: int) -> list[np.ndarray]:
    """Reuse-estimator samples, one (trials, d) array per objective of
    ``specs``, over the independent history fills of
    :func:`_history_queries`, each reduced with the averaged baseline
    (the mean of its trial's values)."""
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    scale = _reuse_scale(cfg, theta_seq)
    out = [np.empty((trials, theta_seq.shape[1])) for _ in specs]
    for start, values, dirs in _history_queries(specs, theta_seq, cfg, trials, seed):
        spans = [dirs.swapaxes(0, 1)]
        for est, v in zip(out, values):
            coeffs = v - v.mean(axis=1, keepdims=True)
            est[start:start + v.shape[0]] = scale * estimators._weighted_sum(coeffs, spans)
        del values, dirs, spans, v, coeffs
    return out


def _baseline_variances(spec: ObjectiveSpec, theta_seq: np.ndarray,
                        cfg: EstimatorConfig, probes: np.ndarray,
                        target: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Mean over trials of the squared distance ||g(b) - target||^2 of the
    reuse estimate g(b) = scale·(S_yu - b·S_u) from ``target``, for each
    fixed baseline b in ``probes``.

    S_yu = sum_j y_j u_j and S_u = sum_j u_j are formed per chunk of
    :func:`_history_queries`, and each trial's squared error at each
    probe is reduced over d there, so only a (probes, trials) array is
    held, never the (probes, trials, d) estimates.
    """
    scale = _reuse_scale(cfg, theta_seq)
    sq = np.empty((probes.shape[0], trials))
    for start, (values,), dirs in _history_queries([spec], theta_seq, cfg, trials, seed):
        stop = start + values.shape[0]
        s_yu = estimators._weighted_sum(values, [dirs.swapaxes(0, 1)])
        s_u = dirs.sum(axis=1)
        for pi, b in enumerate(probes):
            sq[pi, start:stop] = np.sum((scale * (s_yu - b * s_u) - target) ** 2, axis=1)
        del values, dirs, s_yu, s_u
    return sq.mean(axis=1)


def _perturbed_values(spec: ObjectiveSpec, theta: np.ndarray, mu: float,
                      tag: DistTag, root: np.uint64, counters: np.ndarray) -> np.ndarray:
    """F(theta + mu*u) for the direction u of each seed ``fold(root, c)``,
    c in ``counters``.

    The points are written over the directions' own array by
    ``estimators.write_points``, and only the values outlive the call, so
    one stream's chunk is gone before the other's is drawn.
    """
    u = kernels.materialize_block(kernels.np_fold(root, counters), int(tag), spec.dim)
    estimators.write_points(u, theta, mu, u)
    return objectives.clean_value(spec, u)


def _require_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"a Monte-Carlo check needs at least 2 trials, got {trials}")


# ---------------------------------------------------------------------------
# checks

def check_objective_equivalence(spec: ObjectiveSpec, theta, mu: float,
                                tag: DistTag, trials: int, seed: int) -> CheckReport:
    """Two Monte-Carlo phrasings of the smoothed objective must agree.

    Stream A samples the policy's action x = theta + mu*u and averages
    F(x); stream B averages F(theta + mu*u) directly.  Passes when the
    means differ by less than 5 combined standard errors.
    """
    _require_trials(trials)
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
        values_a[start:start + size] = _perturbed_values(spec, theta, mu, tag, root_a, counters)
        values_b[start:start + size] = _perturbed_values(spec, theta, mu, tag, root_b, counters)
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
    gamma = gamma_factor(tag, dim, mu)
    if not 0.0 < gamma < math.inf:
        direction = "overflowed" if gamma else "underflowed"
        return CheckReport("is_scaling", False, math.inf, 1e-9, trials,
                           detail=f"gamma {direction} at d={dim}")
    worst = 0.0
    for i in range(trials):
        root = sampling.trial_seed(seed, i)
        spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, dim)
        theta = 2.0 * kernels.uniform_doubles(sampling.fold(root, _NS_THETA), dim) - 1.0
        cfg = EstimatorConfig(mu=mu, k=4, tag=tag)
        master = sampling.fold(root, _NS_MASTER)
        g_fd, _ = estimators.fd_estimate(spec, theta, cfg, 1, master)
        g_is, _ = estimators.reinforce_is_estimate(spec, theta, cfg, 1, master)
        ref = gamma * g_fd
        mask = np.abs(g_fd) > 1e-15
        if np.any(mask):
            rel = np.max(np.abs(g_is[mask] - ref[mask]) / np.abs(ref[mask]))
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
    _require_trials(trials)
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    target = theta_seq.mean(axis=0)
    est, = _history_estimates([spec], theta_seq, cfg, trials, seed)
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
    below the variance at b = 0 and b = b* + 1.  The grid needs at least
    two values, none repeated, so that its cell is positive and finite."""
    if cfg.tag is not DistTag.SPHERE:
        raise ValueError("the optimal-baseline analysis assumes unit-sphere directions")
    if spec.kind is not ObjectiveKind.QUADRATIC:
        raise ValueError("the optimal-baseline check uses quadratic closed forms")
    _require_trials(trials)
    grid = np.sort(np.asarray(baseline_grid, dtype=np.float64))
    if grid.shape[0] < 2 or not np.all(np.diff(grid) > 0.0):
        raise ValueError("the baseline grid needs at least two distinct values "
                         f"and no repeats, got {grid.tolist()}")
    theta_seq = np.atleast_2d(np.asarray(theta_seq, dtype=np.float64))
    b_star = float(np.mean(0.5 * np.sum(theta_seq ** 2, axis=1) + 0.5 * cfg.mu ** 2))
    probes = np.concatenate([grid, [b_star, 0.0, b_star + 1.0]])
    var = _baseline_variances(spec, theta_seq, cfg, probes, theta_seq.mean(axis=0),
                              trials, seed)
    grid_var = var[:grid.shape[0]]
    v_star, v_zero, v_plus = var[-3], var[-2], var[-1]
    cell = float(np.min(np.diff(grid)))
    minimizer = float(grid[int(np.argmin(grid_var))])
    stat = abs(minimizer - b_star) / cell
    ordered = v_star < v_zero and v_star < v_plus
    return CheckReport("optimal_baseline", bool(stat <= 1.0 and ordered), stat, 1.0,
                       trials,
                       detail=f"b*={b_star:.6g} minimizer={minimizer:.6g} "
                              f"var(b*)={v_star:.4g} var(0)={v_zero:.4g} "
                              f"var(b*+1)={v_plus:.4g}")


def _frozen_variances(specs: list[ObjectiveSpec], theta: np.ndarray,
                      cfg: EstimatorConfig, depth: int, trials: int,
                      seed: int) -> list[float]:
    """Mean coordinate variance of the reuse estimate at a frozen theta,
    per objective of ``specs``, from one draw."""
    theta_seq = np.repeat(theta[None, :], depth, axis=0)
    return [float(est.var(axis=0, ddof=1).mean())
            for est in _history_estimates(specs, theta_seq, cfg, trials, seed)]


def check_variance_scaling(spec: ObjectiveSpec, theta, cfg: EstimatorConfig,
                           depths, trials: int, seed: int) -> CheckReport:
    """Frozen-parameter variance of the reuse estimator.

    Verifies Var(depth)/Var(1) within +-25% of 1/depth for every
    requested depth, that doubling the per-iteration query count at
    depth 1 halves the variance within the same band, and that switching
    on observation noise strictly inflates the variance.  The noisy
    variance is taken at the clean depth-1 draw's points.
    """
    _require_trials(trials)
    theta = sampling.as_params(theta, spec.dim)
    noisy = ObjectiveSpec(spec.kind, spec.dim, noise_sigma=0.1)
    var1, var_noisy = _frozen_variances([spec, noisy], theta, cfg, 1, trials,
                                        sampling.fold(seed, 1))
    stat = 0.0
    lines = []
    for depth in depths:
        var_n, = _frozen_variances([spec], theta, cfg, depth, trials,
                                   sampling.fold(seed, depth))
        dev = abs(var_n / var1 * depth - 1.0)
        stat = max(stat, dev)
        lines.append(f"N={depth}: ratio*N={var_n / var1 * depth:.4f}")
    cfg2 = EstimatorConfig(mu=cfg.mu, k=2 * cfg.k, n=cfg.n, tag=cfg.tag)
    var_2k, = _frozen_variances([spec], theta, cfg2, 1, trials, sampling.fold(seed, 101))
    dev_k = abs(var_2k / var1 * 2.0 - 1.0)
    stat = max(stat, dev_k)
    lines.append(f"2K: ratio*2={var_2k / var1 * 2.0:.4f}")
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
    gamma = gamma_factor(tag, dim, cfg.mu)
    eta_r = eta_z / gamma
    theta_z = 2.0 * kernels.uniform_doubles(sampling.fold(seed, _NS_THETA), dim) - 1.0
    theta_r = theta_z.copy()
    master = sampling.fold(seed, _NS_MASTER)
    worst = 0.0
    for t in range(1, steps + 1):
        g_z, _ = estimators.fd_estimate(spec, theta_z, cfg, t, master)
        g_r, _ = estimators.reinforce_is_estimate(spec, theta_r, cfg, t, master)
        theta_z = theta_z - eta_z * g_z
        theta_r = theta_r - eta_r * g_r
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

# The running suite's checks, in report order.  Forked workers inherit
# this list and are sent only an index into it, so no check is pickled:
# a check wrapped in a closure, or monkeypatched, runs in a worker as is.
_TASKS: list = []


def _suite_tasks(suite: str, seed: int) -> list:
    """The named suite's checks as argument-free callables, in report order."""
    tasks = []
    if suite in ("all", "exact"):
        tasks.append(partial(check_estimator_identity,
                             dim=64, k=8, mu=1.0, trials=150, seed=sampling.fold(seed, 1)))
        for i, (tag, d, mu) in enumerate([(DistTag.GAUSSIAN, 10, 0.1),
                                          (DistTag.SPHERE, 2, 0.1),
                                          (DistTag.SPHERE, 5, 0.05),
                                          (DistTag.COORDINATE, 3, 0.5),
                                          (DistTag.COORDINATE, 6, 0.5)]):
            tasks.append(partial(check_is_scaling, tag, d, mu, trials=10,
                                 seed=sampling.fold(seed, 10 + i)))
        for i, (tag, d) in enumerate([(DistTag.GAUSSIAN, 3), (DistTag.SPHERE, 2),
                                      (DistTag.COORDINATE, 3)]):
            tasks.append(partial(check_lr_equivalence,
                                 ObjectiveSpec(ObjectiveKind.QUADRATIC, d), d, tag, eta_z=0.05,
                                 steps=100, seed=sampling.fold(seed, 20 + i)))
        for i, kind in enumerate(ObjectiveKind):
            tasks.append(partial(check_gradient_oracle, ObjectiveSpec(kind, 10),
                                 0.5 + 0.1 * np.arange(10), seed=sampling.fold(seed, 30 + i)))
    if suite in ("all", "statistical"):
        tasks.append(partial(check_objective_equivalence,
                             ObjectiveSpec(ObjectiveKind.QUADRATIC, 4), np.zeros(4), mu=1.0,
                             tag=DistTag.SPHERE, trials=20000, seed=sampling.fold(seed, 40)))
        tasks.append(partial(check_objective_equivalence,
                             ObjectiveSpec(ObjectiveKind.ACKLEY, 5), 0.3 * np.ones(5), mu=0.05,
                             tag=DistTag.GAUSSIAN, trials=100000, seed=sampling.fold(seed, 41)))
        theta = np.linspace(0.2, 1.0, 5)
        tasks.append(partial(check_history_estimator_mean,
                             ObjectiveSpec(ObjectiveKind.QUADRATIC, 5), theta[None, :],
                             EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
                             trials=30000, seed=sampling.fold(seed, 42)))
        seq = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        tasks.append(partial(check_history_estimator_mean,
                             ObjectiveSpec(ObjectiveKind.QUADRATIC, 3), seq,
                             EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
                             trials=30000, seed=sampling.fold(seed, 43)))
        theta_unit = np.zeros(10)
        theta_unit[0] = 1.0
        b_star = 0.5 + 0.5 * 0.05 ** 2
        grid = b_star + 0.05 * np.arange(-10, 11)
        tasks.append(partial(check_optimal_baseline,
                             ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), theta_unit[None, :],
                             EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE), grid,
                             trials=10000, seed=sampling.fold(seed, 44)))
        tasks.append(partial(check_variance_scaling,
                             ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), np.full(10, 0.5),
                             EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
                             depths=[2, 4, 6], trials=10000, seed=sampling.fold(seed, 45)))
    return tasks


def _worker_count(n_tasks: int) -> int:
    """One worker per core this process may run on, at most one per task
    (1 where the platform cannot tell which cores those are)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = 1
    return min(n_tasks, cores)


def _run_task(index: int) -> CheckReport:
    return _TASKS[index]()


def _run_forked(tasks: list, workers: int, ctx) -> list[CheckReport]:
    """Run ``tasks`` on ``workers`` processes forked from ``ctx``; returns
    their reports in task order.  The pool is gone when this returns or
    raises: closed and joined after the last report, terminated and joined
    on any exception (a check's error, which is raised here, or an
    interrupt).  Workers ignore SIGINT, so Ctrl-C interrupts this process
    alone, which then terminates them."""
    _TASKS[:] = tasks
    try:
        pool = ctx.Pool(workers, initializer=signal.signal,
                        initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            # the statistical checks come last and variance scaling, the
            # longest check, last of all: reverse order starts it first
            reports = pool.map(_run_task, range(len(tasks) - 1, -1, -1), chunksize=1)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
    finally:
        _TASKS.clear()
    return reports[::-1]


def run_suite(suite: str, seed: int) -> list[CheckReport]:
    """Run the named check suite ('exact', 'statistical', or 'all').

    The checks are independent, so they run on one forked worker process
    per usable core (never more workers than checks), each with its own
    memory.  Reports come back in suite order, the same bytes as a serial
    run gives.  The suite runs serially in this process when one worker
    would do, where ``fork`` is not available, or inside a daemonic
    process (a pool worker), which may not start children.
    """
    if suite not in ("all", "exact", "statistical"):
        raise ValueError(f"unknown suite: {suite!r}")
    if not 0 <= seed <= kernels.MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    tasks = _suite_tasks(suite, seed)
    workers = _worker_count(len(tasks))
    if workers > 1:
        # imported here: only a parallel suite pays for multiprocessing
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return _run_forked(tasks, workers, multiprocessing.get_context("fork"))
    return [task() for task in tasks]


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
