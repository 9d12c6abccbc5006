import hashlib
import json
import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from test_reference_loop import _half_radius, _no_sphere_factor

import zoar._kernels as kernels
from zoar import estimators, objectives, sampling, verify
from zoar.estimators import EstimatorConfig, HistoryBuffer
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.sampling import DistTag


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_batch_history_path_matches_production_estimator(sigma):
    """The vectorised sampler used by the statistical checks must compute
    the same estimate as estimators.zoar_estimate on the same queries."""
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4, noise_sigma=sigma)
    theta_seq = np.array([[0.5, -0.2, 0.1, 0.9], [0.3, 0.3, -0.4, 0.0]])
    cfg = EstimatorConfig(mu=0.07, k=3, tag=DistTag.SPHERE)
    trials = 5
    batch, = verify._history_estimates([spec], theta_seq, cfg, trials, seed=123)

    trial_root = sampling.fold(123, sampling.NS_TRIAL)
    for i in range(trials):
        root = kernels.np_fold(np.uint64(trial_root), np.uint64(i))
        buf = HistoryBuffer(block_size=cfg.k, depth=theta_seq.shape[0],
                            tag=cfg.tag, dim=4, rows=1)
        for b, theta in enumerate(theta_seq):
            block_root = kernels.np_fold(root, np.uint64(b))
            seeds = kernels.np_fold(block_root, np.arange(cfg.k, dtype=np.uint64))
            noise_root = kernels.np_fold(block_root, np.uint64(verify._NS_NOISEROOT))
            dirs = kernels.materialize_block(seeds, int(cfg.tag), 4)
            buf.push_block(dirs[None],
                           objectives.eval(spec, theta + cfg.mu * dirs, noise_root)[None])
        prod = estimators.zoar_estimate(buf, cfg.mu)[0]
        assert np.allclose(batch[i], prod, rtol=1e-12, atol=1e-14)


def test_history_estimates_query_through_the_loop_sampler(monkeypatch):
    """Every chunk's queries come from one estimators.query_block call,
    for the averaged-baseline estimates and for the baseline check, and
    routing them there moves no output bit."""
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=0.1)
    theta_seq = np.array([[0.5, -0.2, 0.1, 0.9], [0.3, 0.3, -0.4, 0.0]])
    cfg = EstimatorConfig(mu=0.07, k=3, tag=DistTag.GAUSSIAN)
    quad = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4, noise_sigma=0.1)
    sphere = EstimatorConfig(mu=0.07, k=3, tag=DistTag.SPHERE)
    grid = np.array([-1.0, 0.0, 2.5])
    monkeypatch.setattr(verify, "TRIAL_CHUNK_ELEMENTS", 100)
    runs = [lambda: verify._history_estimates([spec], theta_seq, cfg, 23, seed=5)[0],
            lambda: verify.check_optimal_baseline(quad, theta_seq, sphere, grid, 23, seed=5)]
    before = [run() for run in runs]

    calls = []
    real = estimators.query_block

    def spy(obj, theta, cfg_, dirs, noise_seeds):
        calls.append(dirs.shape[:-1])
        return real(obj, theta, cfg_, dirs, noise_seeds)

    monkeypatch.setattr(estimators, "query_block", spy)
    after = [run() for run in runs]
    chunks = list(verify._chunked(23, theta_seq.shape[0] * cfg.k * 4))
    assert len(chunks) > 1
    assert calls == [(size, theta_seq.shape[0], cfg.k) for _, size in chunks] * 2
    assert np.array_equal(after[0], before[0])
    assert after[1] == before[1]

    calls.clear()
    m = theta_seq.shape[0] * cfg.k
    yielded = [(start, [v.shape for v in values], dirs.shape) for start, values, dirs
               in verify._history_queries([spec], theta_seq, cfg, 23, seed=5)]
    assert yielded == [(start, [(size, m)], (size, m, 4)) for start, size in chunks]
    assert len(calls) == len(chunks)


def test_objective_equivalence_statistical_and_degenerate():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4)
    rep = verify.check_objective_equivalence(spec, np.zeros(4), 1.0,
                                             DistTag.SPHERE, 20000, 11)
    assert rep.passed
    rep0 = verify.check_objective_equivalence(spec, np.ones(4), 0.0,
                                              DistTag.SPHERE, 100, 11)
    assert rep0.passed and rep0.statistic == 0.0
    rep_a = verify.check_objective_equivalence(
        ObjectiveSpec(ObjectiveKind.ACKLEY, 5), 0.3 * np.ones(5), 0.05,
        DistTag.GAUSSIAN, 50000, 12)
    assert rep_a.passed


def test_estimator_identity_check():
    rep = verify.check_estimator_identity(dim=32, k=8, mu=0.5, trials=60, seed=4)
    assert rep.passed and rep.statistic == 0.0


def test_is_scaling_check():
    for tag, d, mu in [(DistTag.GAUSSIAN, 10, 0.1), (DistTag.SPHERE, 2, 0.1),
                       (DistTag.COORDINATE, 3, 0.5)]:
        rep = verify.check_is_scaling(tag, d, mu, trials=8, seed=6)
        assert rep.passed, rep


@pytest.mark.parametrize("tag,direction", [(DistTag.COORDINATE, "overflowed"),
                                           (DistTag.SPHERE, "underflowed")],
                         ids=["overflow", "underflow"])
def test_is_scaling_check_fails_when_gamma_is_out_of_range(tag, direction):
    # at d = 400 the coordinate law's gamma is inf and the sphere law's
    # 0.0; no trial can test either, and the report names which it is
    rep = verify.check_is_scaling(tag, 400, 0.05, trials=8, seed=6)
    assert rep == verify.CheckReport("is_scaling", False, float("inf"), 1e-9, 8,
                                     detail=f"gamma {direction} at d=400")


def test_bias_check_single_and_two_point():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    rep = verify.check_history_estimator_mean(spec, np.array([[0.6, -0.3, 0.2]]), cfg,
                                 trials=20000, seed=8)
    assert rep.passed
    seq = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rep2 = verify.check_history_estimator_mean(spec, seq, cfg, trials=20000, seed=9)
    assert rep2.passed


def test_bias_check_requires_quadratic():
    cfg = EstimatorConfig(mu=0.05, k=4, tag=DistTag.SPHERE)
    with pytest.raises(ValueError):
        verify.check_history_estimator_mean(ObjectiveSpec(ObjectiveKind.ACKLEY, 3),
                               np.zeros((1, 3)), cfg, 10, 1)


def test_optimal_baseline_check():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 6)
    theta = np.zeros(6)
    theta[0] = 1.0
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    b_star = 0.5 + 0.5 * 0.05 ** 2
    grid = b_star + 0.05 * np.arange(-10, 11)
    rep = verify.check_optimal_baseline(spec, theta[None, :], cfg, grid,
                                             trials=4000, seed=10)
    assert rep.passed, rep.detail
    with pytest.raises(ValueError):
        verify.check_optimal_baseline(
            spec, theta[None, :],
            EstimatorConfig(mu=0.05, k=10, tag=DistTag.GAUSSIAN), grid, 10, 1)


@pytest.mark.parametrize("grid", [[0.5, 0.5], [0.4, 0.5, 0.4], [0.5], []],
                         ids=["repeated", "repeat-among-distinct", "one-point", "empty"])
def test_optimal_baseline_needs_two_distinct_grid_values(grid):
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 6)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    with pytest.raises(ValueError, match="two distinct"):
        verify.check_optimal_baseline(spec, np.zeros((1, 6)), cfg, grid, 100, 10)


_QUAD = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
_SPHERE = EstimatorConfig(mu=0.05, k=4, tag=DistTag.SPHERE)
MONTE_CARLO_CHECKS = {
    "objective_equivalence": lambda trials: verify.check_objective_equivalence(
        _QUAD, np.zeros(3), 1.0, DistTag.SPHERE, trials, 1),
    "history_estimator_mean": lambda trials: verify.check_history_estimator_mean(
        _QUAD, np.zeros((1, 3)), _SPHERE, trials, 1),
    "optimal_baseline": lambda trials: verify.check_optimal_baseline(
        _QUAD, np.eye(3)[:1], _SPHERE, [0.4, 0.5, 0.6], trials, 1),
    "variance_scaling": lambda trials: verify.check_variance_scaling(
        _QUAD, np.full(3, 0.5), _SPHERE, [2], trials, 1),
}


@pytest.mark.parametrize("check", sorted(MONTE_CARLO_CHECKS))
@pytest.mark.parametrize("trials", [0, 1])
def test_monte_carlo_checks_need_two_trials(check, trials):
    with pytest.raises(ValueError, match="at least 2 trials"):
        MONTE_CARLO_CHECKS[check](trials)
    assert MONTE_CARLO_CHECKS[check](2).trials == 2


def test_variance_scaling_check():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 8)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    rep = verify.check_variance_scaling(spec, np.full(8, 0.5), cfg, [2, 4],
                                        trials=4000, seed=13)
    assert rep.passed, rep.detail
    assert "noise" in rep.detail


def test_lr_equivalence_check_all_tags():
    for tag, d in [(DistTag.GAUSSIAN, 3), (DistTag.SPHERE, 2), (DistTag.COORDINATE, 3)]:
        spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d)
        rep = verify.check_lr_equivalence(spec, d, tag, eta_z=0.05,
                                               steps=100, seed=14)
        assert rep.passed, rep
        if tag is DistTag.GAUSSIAN:
            assert rep.statistic == 0.0


def test_gradient_oracle_check():
    for kind in ObjectiveKind:
        spec = ObjectiveSpec(kind, 10)
        rep = verify.check_gradient_oracle(spec, 0.4 + 0.05 * np.arange(10), seed=15)
        assert rep.passed, rep


def test_reports_are_deterministic():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    cfg = EstimatorConfig(mu=0.05, k=5, tag=DistTag.SPHERE)
    a = verify.check_history_estimator_mean(spec, np.zeros((1, 3)), cfg, 5000, 21)
    b = verify.check_history_estimator_mean(spec, np.zeros((1, 3)), cfg, 5000, 21)
    assert a == b


def test_suite_serialization_roundtrip():
    reports = [verify.CheckReport("x", True, 0.1, 1.0, 10, "d")]
    doc = json.loads(verify.reports_to_json(reports, "exact", 3))
    assert doc["all_passed"] is True
    assert doc["checks"][0]["name"] == "x"
    text = verify.format_reports(reports)
    assert text.startswith("PASS x:")
    with pytest.raises(ValueError):
        verify.run_suite("bogus", 1)


# ---------------------------------------------------------------------------
# report bits, chunk invariance and memory

# sha256 of reports_to_json(run_suite("all", seed), "all", seed), recorded
# before the Monte-Carlo checks were chunked; a change that moves a verify
# bit has to re-record these on purpose
GOLDEN_REPORT_SHA256 = {
    7: "2df7d493a459cd3b9ec0f4fba895ac35705b8170fc01ee88c88ea1289027765f",
    18446744073709551557: "4b8d73d3567083b328d227bd43e49fe411aa8f664e2e338133372fccad3f490d",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORT_SHA256))
def test_verify_all_report_matches_golden_digest(seed):
    text = verify.reports_to_json(verify.run_suite("all", seed), "all", seed)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_SHA256[seed]


# ---------------------------------------------------------------------------
# the suite's worker pool

def test_pooled_suite_leaves_no_child_and_gives_the_serial_bytes(monkeypatch):
    pooled = verify.reports_to_json(verify.run_suite("exact", 11), "exact", 11)
    assert multiprocessing.active_children() == []
    assert verify._TASKS == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork(*args, **kwargs):
        raise AssertionError("one usable core must not start a pool")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    serial = verify.reports_to_json(verify.run_suite("exact", 11), "exact", 11)
    assert serial == pooled


@pytest.mark.parametrize("cores,tasks,workers", [(1, 19, 1), (2, 19, 2), (2, 1, 1),
                                                 (64, 13, 13)])
def test_worker_count_is_the_fewer_of_tasks_and_usable_cores(monkeypatch, cores, tasks,
                                                             workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert verify._worker_count(tasks) == workers


def test_failing_check_raises_and_leaves_no_child(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken check")

    monkeypatch.setattr(verify, "check_gradient_oracle", broken)
    with pytest.raises(ValueError, match="broken check"):
        verify.run_suite("exact", 3)
    assert multiprocessing.active_children() == []
    assert verify._TASKS == []


def test_interrupted_suite_leaves_no_child(monkeypatch):
    # the one estimator-identity check interrupts the process that runs
    # the suite, as Ctrl-C would, then waits to be terminated
    caller = os.getpid()

    def interrupt(*args, **kwargs):
        os.kill(caller, signal.SIGINT)
        time.sleep(30)

    monkeypatch.setattr(verify, "check_estimator_identity", interrupt)
    tic = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite("exact", 3)
    assert time.perf_counter() - tic < 20
    assert multiprocessing.active_children() == []
    assert verify._TASKS == []


# one trial per chunk, a few trials per chunk with a short last chunk,
# the production budget, and the budget the checks used before they were
# sized to L2
CHUNK_BUDGETS = [1, 100, verify.TRIAL_CHUNK_ELEMENTS, 4_000_000]


def _under_budgets(monkeypatch, fn, budgets=CHUNK_BUDGETS):
    results = []
    for budget in budgets:
        monkeypatch.setattr(verify, "TRIAL_CHUNK_ELEMENTS", budget)
        results.append(fn())
    return results


CHUNK_THETA_SEQ = np.array([[0.5, -0.2, 0.1, 0.9], [0.3, 0.3, -0.4, 0.0],
                            [0.0, 0.1, 0.2, 0.3]])
CHUNK_PROBES = np.array([-1.0, 0.0, 2.5])


@pytest.mark.parametrize("tag", list(DistTag))
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_history_estimates_do_not_depend_on_chunk_size(monkeypatch, tag, sigma):
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=sigma)
    cfg = EstimatorConfig(mu=0.07, k=3, tag=tag)
    target = CHUNK_THETA_SEQ.mean(axis=0)
    averaged = _under_budgets(monkeypatch, lambda: verify._history_estimates(
        [spec], CHUNK_THETA_SEQ, cfg, 23, seed=5)[0])
    variances = _under_budgets(monkeypatch, lambda: verify._baseline_variances(
        spec, CHUNK_THETA_SEQ, cfg, CHUNK_PROBES, target, 23, seed=5))
    for got in averaged[1:]:
        assert np.array_equal(got, averaged[0])
    for got in variances[1:]:
        assert np.array_equal(got, variances[0])


@pytest.mark.parametrize("tag", list(DistTag))
def test_one_draw_gives_each_objective_its_own_bits(monkeypatch, tag):
    """Estimates for several objectives from one draw are, bit for bit,
    those of one draw per objective."""
    clean = ObjectiveSpec(ObjectiveKind.ACKLEY, 4)
    noisy = ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=0.1)
    cfg = EstimatorConfig(mu=0.07, k=3, tag=tag)

    def run():
        both = verify._history_estimates([clean, noisy], CHUNK_THETA_SEQ, cfg, 23, seed=5)
        alone = [verify._history_estimates([spec], CHUNK_THETA_SEQ, cfg, 23, seed=5)[0]
                 for spec in (clean, noisy)]
        return both, alone

    for both, alone in _under_budgets(monkeypatch, run, CHUNK_BUDGETS[1:3]):
        assert [est.tobytes() for est in both] == [est.tobytes() for est in alone]
        assert not np.array_equal(both[0], both[1])


def test_variance_scaling_draws_each_history_once(monkeypatch):
    # the noisy arm shares the clean depth-1 seed, so it is evaluated at
    # that draw: five draws in all, with the three depths and the 2K arm
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    cfg = EstimatorConfig(mu=0.05, k=4, tag=DistTag.SPHERE)
    before = verify.check_variance_scaling(spec, np.full(3, 0.5), cfg, [2, 4, 6], 50, 3)
    draws = []
    real = verify._history_queries

    def spy(specs, theta_seq, cfg_, trials, seed):
        draws.append(([s.noise_sigma for s in specs], theta_seq.shape[0], cfg_.k, seed))
        return real(specs, theta_seq, cfg_, trials, seed)

    monkeypatch.setattr(verify, "_history_queries", spy)
    after = verify.check_variance_scaling(spec, np.full(3, 0.5), cfg, [2, 4, 6], 50, 3)
    assert after == before
    assert draws == [([0.0, 0.1], 1, 4, sampling.fold(3, 1))] + [
        ([0.0], depth, 4, sampling.fold(3, depth)) for depth in (2, 4, 6)] + [
        ([0.0], 1, 8, sampling.fold(3, 101))]


@pytest.mark.parametrize("tag", list(DistTag))
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_streamed_baseline_variances_match_the_full_estimates(monkeypatch, tag, sigma):
    """The chunk-by-chunk variances equal, bit for bit, the ones reduced
    from every probe's full (trials, d) estimates at once."""
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=sigma)
    cfg = EstimatorConfig(mu=0.07, k=3, tag=tag)
    trials = 23
    target = CHUNK_THETA_SEQ.mean(axis=0)
    values = np.empty((trials, CHUNK_THETA_SEQ.shape[0] * cfg.k))
    dirs = np.empty(values.shape + (4,))
    for start, (v,), u in verify._history_queries([spec], CHUNK_THETA_SEQ, cfg, trials,
                                                  seed=5):
        values[start:start + v.shape[0]] = v
        dirs[start:start + v.shape[0]] = u
    scale = estimators.direction_scale(tag, 4) / ((values.shape[1] - 1) * cfg.mu)
    s_yu = np.einsum("tm,tmd->td", values, dirs)
    s_u = dirs.sum(axis=1)
    est = np.stack([scale * (s_yu - b * s_u) for b in CHUNK_PROBES])
    want = np.array([np.mean(np.sum((row - target[None, :]) ** 2, axis=1)) for row in est])
    got = _under_budgets(monkeypatch, lambda: verify._baseline_variances(
        spec, CHUNK_THETA_SEQ, cfg, CHUNK_PROBES, target, trials, seed=5))
    for streamed in got:
        assert streamed.tobytes() == want.tobytes()


def test_check_reports_do_not_depend_on_chunk_size(monkeypatch):
    ackley = ObjectiveSpec(ObjectiveKind.ACKLEY, 5)
    equivalence = _under_budgets(monkeypatch, lambda: verify.check_objective_equivalence(
        ackley, 0.3 * np.ones(5), 0.05, DistTag.GAUSSIAN, 400, 12))
    theta = np.zeros(6)
    theta[0] = 1.0
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    grid = 0.50125 + 0.05 * np.arange(-4, 5)
    baseline = _under_budgets(monkeypatch, lambda: verify.check_optimal_baseline(
        ObjectiveSpec(ObjectiveKind.QUADRATIC, 6), theta[None, :], cfg, grid, 300, 10))
    assert all(rep == equivalence[0] for rep in equivalence[1:])
    assert all(rep == baseline[0] for rep in baseline[1:])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


def test_variance_scaling_peak_is_bounded():
    # acceptance size; the (trials, d) estimates are 0.8 MB, so the peak
    # is set by one chunk's working arrays
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 10)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    peak = _traced_peak(lambda: verify.check_variance_scaling(
        spec, np.full(10, 0.5), cfg, depths=[2, 4, 6], trials=10000, seed=600))
    assert peak < 16 * MIB


def test_optimal_baseline_peak_is_bounded():
    # acceptance size: 24 probes x 10000 trials x d = 10 estimates would
    # take 19.2 MB; streamed, the check holds a 1.9 MB (probes, trials)
    # array plus one chunk's working arrays
    theta = np.zeros(10)
    theta[0] = 1.0
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    grid = 0.50125 + 0.05 * np.arange(-10, 11)
    peak = _traced_peak(lambda: verify.check_optimal_baseline(
        ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), theta[None, :], cfg, grid,
        10000, seed=500))
    assert peak < 8 * MIB


def test_history_estimator_mean_peak_is_bounded():
    # acceptance size: the (trials, d) estimates are 1.2 MB
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 5)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    peak = _traced_peak(lambda: verify.check_history_estimator_mean(
        spec, np.linspace(0.2, 1.0, 5)[None, :], cfg, trials=30000, seed=700))
    assert peak < 8 * MIB


def test_objective_equivalence_peak_is_bounded():
    # acceptance size: the two streams' (trials,) values are 1.6 MB; with
    # one stream's 0.5 MB chunk and Ackley's temporaries on top the check
    # peaks at about 3.4 MiB, and read 4.43 MiB while stream A's chunk
    # was still held during stream B's draw and evaluation
    peak = _traced_peak(lambda: verify.check_objective_equivalence(
        ObjectiveSpec(ObjectiveKind.ACKLEY, 5), 0.3 * np.ones(5), 0.05,
        DistTag.GAUSSIAN, 100000, 41))
    assert peak < 4 * MIB


@pytest.mark.parametrize("check, surface, draws", [
    (lambda spec, theta, cfg: verify.check_history_estimator_mean(spec, theta, cfg, 3000, 8),
     (estimators, "directions"), 5),
    (lambda spec, theta, cfg: verify.check_optimal_baseline(
        spec, theta, cfg, 0.50125 + 0.05 * np.arange(-4, 5), 3000, 8),
     (estimators, "directions"), 5),
    (lambda spec, theta, cfg: verify.check_objective_equivalence(
        spec, theta[0], cfg.mu, cfg.tag, 30000, 8),
     (kernels, "materialize_block"), 10),
], ids=["history_estimator_mean", "optimal_baseline", "objective_equivalence"])
def test_history_checks_hold_no_chunk_while_the_next_is_drawn(monkeypatch, check, surface,
                                                              draws):
    # five chunks of 655 history trials, or of 6553 trials in each of the
    # objective-equivalence check's two streams: the traced size at each
    # draw's entry is the one the first draw found, so nothing of the
    # previous chunk (its 0.5 MB of directions or points, its values, a
    # consumer's reduction of them) is still held; it used to be held by
    # the history sampler and by its consumer, and by the equivalence
    # check from one stream's draw into the other's
    theta = np.zeros((1, 10))
    theta[0, 0] = 1.0
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 10)
    cfg = EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE)
    module, name = surface
    draw = getattr(module, name)
    held = []

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return draw(*args)

    monkeypatch.setattr(module, name, spy)
    _traced_peak(lambda: check(spec, theta, cfg))
    assert len(held) == draws
    assert max(held[1:]) - held[0] < 64 << 10


# ---------------------------------------------------------------------------
# mutant gate: a slip in the loop's estimator code must fail a named check;
# the sphere-factor and half-radius mutants are the reference loop's own

def _negated_sum(monkeypatch):
    real = estimators._weighted_sum
    monkeypatch.setattr(estimators, "_weighted_sum",
                        lambda coeffs, spans: -real(coeffs, spans))



GATED_CHECKS = {
    # the suite's first history-mean check at a tenth of its trials
    "bias_history_mean": lambda: verify.check_history_estimator_mean(
        ObjectiveSpec(ObjectiveKind.QUADRATIC, 5), np.linspace(0.2, 1.0, 5)[None, :],
        EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE), trials=3000, seed=42),
    # the suite's optimal-baseline check at a fifth of its trials
    "optimal_baseline": lambda: verify.check_optimal_baseline(
        ObjectiveSpec(ObjectiveKind.QUADRATIC, 10), np.eye(10)[:1],
        EstimatorConfig(mu=0.05, k=10, tag=DistTag.SPHERE),
        0.50125 + 0.05 * np.arange(-10, 11), trials=2000, seed=44),
}
REDUCTION_MUTANTS = [(_negated_sum, "bias_history_mean"),
                     (_negated_sum, "optimal_baseline"),
                     (_no_sphere_factor, "bias_history_mean"),
                     (_half_radius, "bias_history_mean")]


@pytest.mark.parametrize("check", sorted(GATED_CHECKS))
def test_gated_checks_pass_on_the_clean_tree(check):
    rep = GATED_CHECKS[check]()
    assert rep.name == check and rep.passed, rep


@pytest.mark.parametrize("mutant, check", REDUCTION_MUTANTS,
                         ids=[f"{m.__name__.lstrip('_')}-{c}" for m, c in REDUCTION_MUTANTS])
def test_verifier_catches_mutant(monkeypatch, mutant, check):
    mutant(monkeypatch)
    rep = GATED_CHECKS[check]()
    assert rep.name == check and not rep.passed, rep
