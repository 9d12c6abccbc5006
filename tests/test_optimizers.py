import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoar._kernels as kernels
from zoar import estimators, objectives, optimizers, sampling
from zoar.estimators import EstimatorConfig
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import (Arm, EstimatorKind, OptimizerConfig, UpdateRule, adamm_step,
                             radazo_step, run_optimization, sgd_step)
from zoar.sampling import DistTag


def test_sgd_examples():
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=0.1)
    theta = sgd_step(np.array([1.0, 1.0]), np.array([1.0, 0.0]), cfg)
    assert np.array_equal(theta, [0.9, 1.0])
    assert np.array_equal(sgd_step(theta, np.zeros(2), cfg), theta)
    g = np.array([2.0, -1.0])
    two = sgd_step(sgd_step(np.zeros(2), g, cfg), g, cfg)
    assert np.allclose(two, -2 * 0.1 * g, rtol=0, atol=1e-16)


def test_radazo_single_step_closed_form():
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01, beta1=0.9,
                          beta2=0.999, zeta=1e-8)
    theta0 = np.array([1.0, -2.0])
    v0 = np.array([0.3, 0.0])
    g = np.array([0.5, -1.5])
    theta1, m, v = radazo_step(theta0, np.zeros(2), v0.copy(), g, cfg)
    m1 = (1 - cfg.beta1) * g
    v1 = cfg.beta2 * v0 + (1 - cfg.beta2) * m1 ** 2
    expect = theta0 - cfg.eta * m1 / np.sqrt(v1 + cfg.zeta)
    assert np.array_equal(theta1, expect)
    assert np.array_equal(m, m1)
    assert np.array_equal(v, v1)


def test_radazo_zero_gradient_never_moves():
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.5)
    theta = np.array([3.0, -1.0])
    m = v = np.zeros(2)
    for _ in range(10):
        theta_new, m, v = radazo_step(theta, m, v, np.zeros(2), cfg)
        assert np.array_equal(theta_new, theta)
        theta = theta_new


def test_radazo_step_magnitude_bound():
    # per-coordinate |step| <= eta/sqrt(1-beta2) since v >= (1-beta2) m^2
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.02, beta1=0.8,
                          beta2=0.99, zeta=1e-12)
    bound = cfg.eta / math.sqrt(1 - cfg.beta2)
    theta = np.zeros(5)
    m = v = np.zeros(5)
    for t in range(200):
        g = kernels.materialize(t + 1, kernels.GAUSSIAN, 5) * 10 ** ((t % 7) - 3)
        theta_new, m, v = radazo_step(theta, m, v, g, cfg)
        assert np.all(np.abs(theta_new - theta) <= bound * (1 + 1e-12))
        assert np.all(np.isfinite(m)) and np.all(v >= 0.0)
        theta = theta_new


def test_adamm_recursion_with_and_without_bias_correction():
    g = np.array([1.0, -2.0])
    theta0 = np.zeros(2)
    raw = OptimizerConfig(rule=UpdateRule.ADAMM, eta=0.1, beta1=0.9, beta2=0.99,
                          zeta=1e-8, bias_correction=False)
    theta1, m, v = adamm_step(theta0, np.zeros(2), np.zeros(2), g, raw, 1)
    m1, v1 = (1 - 0.9) * g, (1 - 0.99) * g * g
    assert np.array_equal(theta1, -0.1 * m1 / np.sqrt(v1 + 1e-8))
    assert np.array_equal(m, m1) and np.array_equal(v, v1)

    bc = OptimizerConfig(rule=UpdateRule.ADAMM, eta=0.1, beta1=0.9, beta2=0.99,
                         zeta=1e-8, bias_correction=True)
    theta1b, _, _ = adamm_step(theta0, np.zeros(2), np.zeros(2), g, bc, 1)
    mh, vh = m1 / (1 - 0.9), v1 / (1 - 0.99)
    assert np.array_equal(theta1b, -0.1 * mh / np.sqrt(vh + 1e-8))
    # the correction follows the step count it is given
    theta2, m2, v2 = adamm_step(theta1b, m, v, g, bc, 2)
    mh2, vh2 = m2 / (1 - 0.9 ** 2), v2 / (1 - 0.99 ** 2)
    assert np.array_equal(theta2, theta1b - 0.1 * mh2 / np.sqrt(vh2 + 1e-8))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(zeta=0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("make", [
    lambda x: ObjectiveSpec(ObjectiveKind.QUADRATIC, 3, noise_sigma=x),
    lambda x: EstimatorConfig(mu=x, k=1),
    lambda x: OptimizerConfig(eta=x),
    lambda x: OptimizerConfig(zeta=x),
], ids=["noise_sigma", "mu", "eta", "zeta"])
def test_configs_reject_non_finite_floats(make, value):
    # a nan noise_sigma used to build a spec that evaluated noiselessly
    with pytest.raises(ValueError, match="finite"):
        make(value)


@pytest.mark.parametrize("make", [
    lambda: EstimatorConfig(mu=0.1, k=2.5, n=2),
    lambda: EstimatorConfig(mu=0.1, k=2, n=2.0),
    lambda: EstimatorConfig(mu=0.1, k=True),
    lambda: ObjectiveSpec(ObjectiveKind.QUADRATIC, 3.0),
    lambda: ObjectiveSpec(ObjectiveKind.QUADRATIC, True),
], ids=["k-float", "n-float", "k-bool", "dim-float", "dim-bool"])
def test_configs_reject_non_integer_counts(make):
    # k = 2.5 used to run a vanilla trace that logged queries_cum 10.5
    with pytest.raises(ValueError, match="integer"):
        make()


def _run(kind, est_kind, T=40, seed=3, d=8, **est_kwargs):
    spec = ObjectiveSpec(kind, d)
    est = EstimatorConfig(**{"mu": 0.05, "k": 4, "n": 3,
                             "tag": DistTag.GAUSSIAN, **est_kwargs})
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01)
    theta0 = kernels.uniform_doubles(11, d) - 0.5
    [[trace]] = run_optimization([Arm(spec, est_kind, est, cfg, theta0[None])], T, [seed])
    return trace


def test_zero_iterations_gives_initial_row_only():
    trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.VANILLA, T=0)
    assert trace.f_clean.size == trace.wall_ms.size == 1
    assert trace.completed


def test_run_is_deterministic():
    a = _run(ObjectiveKind.ACKLEY, EstimatorKind.ZOAR)
    b = _run(ObjectiveKind.ACKLEY, EstimatorKind.ZOAR)
    assert a.f_clean.tolist() == b.f_clean.tolist()
    assert a.queries_per_iter == b.queries_per_iter


def test_query_accounting_per_estimator():
    T, k = 25, 4
    for est_kind, per_iter in [(EstimatorKind.VANILLA, k + 1),
                               (EstimatorKind.ZOHS, k + 1),
                               (EstimatorKind.ZOAR, k)]:
        trace = _run(ObjectiveKind.QUADRATIC, est_kind, T=T)
        assert trace.queries_per_iter == per_iter
        assert trace.f_clean.size == T + 1


def test_zoar_with_single_query_warmup():
    trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=5, k=1, n=4)
    assert trace.completed
    # the first iteration has one record: estimate is zero, theta unchanged
    assert trace.f_clean[1] == trace.f_clean[0]


def test_zoar_warm_up_overflow_stops_the_run_at_iteration_2(monkeypatch):
    # with k = 1 the first estimate is zero whatever the value, so row 0's
    # overflowing first query moves nothing until iteration 2 reads it
    # into the baseline; row 1 runs on as it runs alone
    d, T, seeds = 8, 5, [3, 17]
    theta0 = (kernels.uniform_doubles(11, 2 * d) - 0.5).reshape(2, d)
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d)
    est = EstimatorConfig(mu=0.05, k=1, n=4)
    arm = Arm(spec, EstimatorKind.ZOAR, est, OptimizerConfig(eta=0.01), theta0)
    [[alone]] = run_optimization([Arm(spec, EstimatorKind.ZOAR, est, arm.opt_cfg,
                                      theta0[1:])], T, seeds[1:])
    real, calls = objectives.eval, []

    def overflowing(spec_, points, noise_seed=0):
        values = real(spec_, points, noise_seed)
        if not calls:
            values[0] = np.inf
        calls.append(points.shape[0])
        return values

    monkeypatch.setattr(objectives, "eval", overflowing)
    [[row0, row1]] = run_optimization([arm], T, seeds)
    assert row0.f_clean.tolist() == [row0.f_clean[0]] * 2 + [np.inf]
    assert row0.diverged_at == 2
    assert row1.f_clean.tolist() == alone.f_clean.tolist() and row1.completed
    assert calls == [2, 2] + [1] * (T - 2)


def test_zoar_rejects_unusable_history_config():
    with pytest.raises(ValueError):
        _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=2, k=1, n=1)


def test_zoar_run_materialises_each_direction_once(monkeypatch):
    # the ring keeps the directions it was pushed, so a run of T
    # iterations builds T*k rows and never regenerates one from its seed;
    # the loop draws C iterations' directions per call, all R*C*k rows of
    # a lockstep group of R runs at once, in ceil(T/C) calls
    rows = []
    materialize_block = kernels.materialize_block

    def counting(seeds, tag, dim):
        block = materialize_block(seeds, tag, dim)
        rows.append(block.shape[0])
        return block

    def forbidden(*args):
        raise AssertionError("directions were re-materialised from seeds")

    monkeypatch.setattr(kernels, "materialize_block", counting)
    monkeypatch.setattr(kernels, "weighted_direction_sum", forbidden)
    T, k, d = 30, 4, 8

    def chunks(R):
        return math.ceil(T / max(1, optimizers.CHUNK_ELEMENTS // (R * k * d)))

    # the default budget, and one that leaves a short last chunk
    for budget in (optimizers.CHUNK_ELEMENTS, 7 * 3 * k * d):
        monkeypatch.setattr(optimizers, "CHUNK_ELEMENTS", budget)
        rows.clear()
        trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=T, d=d, k=k, n=3)
        assert trace.completed and trace.f_clean.size == T + 1
        assert sum(rows) == T * k and len(rows) == chunks(1)

        rows.clear()
        R = 3
        theta0 = (kernels.uniform_doubles(11, R * d) - 0.5).reshape(R, d)
        arm = Arm(ObjectiveSpec(ObjectiveKind.QUADRATIC, d), EstimatorKind.ZOAR,
                  EstimatorConfig(mu=0.05, k=k, n=3),
                  OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01), theta0)
        [traces] = run_optimization([arm], T, list(range(3, 3 + R)))
        assert all(t.completed and t.f_clean.size == T + 1 for t in traces)
        assert sum(rows) == R * T * k and len(rows) == chunks(R)
    assert len(rows) == 5  # chunks of 7, 7, 7, 7 and 2 iterations


def _diverging_group(est_kind):
    # Rosenbrock under plain SGD: the row started far out blows up within
    # a few iterations, the two near the minimum run to the end
    d, seeds = 4, [3, 17, 2**64 - 5]
    theta0 = np.array([[1.0, 1.0, 1.0, 1.0], [0.9, 0.8, 0.7, 0.5], [3.0, -3.0, 3.0, -3.0]])
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, d, noise_sigma=0.1)
    est = EstimatorConfig(mu=0.05, k=4, n=3, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=4e-4)
    [traces] = run_optimization([Arm(spec, est_kind, est, cfg, theta0)], 25, seeds)
    return [(t.f_clean.tolist(), t.queries_per_iter, t.status, t.diverged_at)
            for t in traces]


@pytest.mark.parametrize("est_kind", list(EstimatorKind))
def test_traces_do_not_depend_on_chunk_budget(monkeypatch, est_kind):
    # one iteration per chunk; chunks of 7 iterations at R = 3, so the
    # last is short and the divergence falls inside the first; the default
    per_iteration = 3 * 4 * 4
    results = []
    for budget in (1, 7 * per_iteration, optimizers.CHUNK_ELEMENTS):
        monkeypatch.setattr(optimizers, "CHUNK_ELEMENTS", budget)
        results.append(_diverging_group(est_kind))
    statuses = [status for _, _, status, _ in results[0]]
    assert statuses == ["completed", "completed", "diverged"]
    assert 1 < results[0][2][3] < 7
    assert results[1:] == results[:1] * 2


def test_difference_step_evaluates_centre_with_its_points(monkeypatch):
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, 6, noise_sigma=0.1)
    cfg = EstimatorConfig(mu=0.05, k=5, tag=DistTag.GAUSSIAN)
    R = 3
    theta = (kernels.uniform_doubles(7, R * 6) - 0.5).reshape(R, 6)
    dir_seeds, noise = sampling.iteration_seeds(
        sampling.stream_roots(np.arange(R, dtype=np.uint64)), range(4, 5), cfg.k)
    dirs = estimators.directions(dir_seeds[:, 0], cfg.tag, 6)
    real = objectives.eval
    seen = []

    def spy(spec_, points, noise_seed=0):
        seen.append((points, real(spec_, points, noise_seed)))
        return seen[-1][1]

    monkeypatch.setattr(objectives, "eval", spy)
    estimators.difference_gradient(
        estimators.query_block(spec, theta, cfg, dirs, noise[:, 0], centre=True), dirs, cfg)
    [(points, values)] = seen
    assert points.shape == (R, cfg.k + 1, 6) and np.array_equal(points[:, -1], theta)
    for r in range(R):
        assert values[r, -1] == real(spec, theta[r], noise[r, 0])

    # one evaluation per step of the loop, of each row's k points and centre
    T = 9
    for est_kind in (EstimatorKind.VANILLA, EstimatorKind.ZOHS):
        seen.clear()
        run_optimization([Arm(spec, est_kind, cfg, OptimizerConfig(eta=0.01),
                              np.zeros((R, 6)))], T, [1, 2, 3])
        assert [p.shape for p, _ in seen] == [(R * (cfg.k + 1), 6)] * T


def test_desk_shaped_run_peak_follows_the_chunk_budget():
    # d = 100, k = 10, n = 6, 5 repeats, noise on: the ring, one chunk
    # of directions with the kernel's working arrays (about 3x its
    # output), and a step's points and their noise digests
    R, d, k, n, T = 5, 100, 10, 6, 40
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d, noise_sigma=0.05)
    theta0 = (kernels.uniform_doubles(3, R * d) - 0.5).reshape(R, d)
    ring = R * n * k * d * 8
    chunk = max(optimizers.CHUNK_ELEMENTS, R * k * d) * 8
    step = R * (k + 1) * d * 8
    tracemalloc.start()
    try:
        run_optimization([Arm(spec, EstimatorKind.ZOAR, EstimatorConfig(mu=0.05, k=k, n=n),
                              OptimizerConfig(eta=0.001), theta0)], T, list(range(R)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring + 4 * chunk + 4 * step


def _loop_peak(arms, iterations, seeds):
    run_optimization(arms, 1, seeds)  # allocations made once per process
    tracemalloc.start()
    try:
        traces = run_optimization(arms, iterations, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.completed for arm_traces in traces for t in arm_traces)
    return peak


def test_wide_arms_are_evaluated_one_at_a_time():
    # d = 10^4: the two arms' points exceed the larger arm's, so each arm
    # is evaluated alone and the step peaks where it did when every arm made
    # its own call (7.849 MB measured then, 7.852-7.856 MB now): the zoar
    # ring, a chunk of one iteration, one arm's points and the
    # objective's equal-sized temporary, theta, m and v of both arms, and
    # 64 KiB for small objects.  Evaluating both arms in one call, or
    # keeping the batch buffer or the step's directions into the next
    # draw, measured 0.8-1.7 MB more
    d, k, n = 10_000, 10, 6
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d)
    theta0 = (kernels.uniform_doubles(3, d) * 4 - 2)[None]
    est, cfg = EstimatorConfig(mu=0.05, k=k, n=n), OptimizerConfig(eta=0.001)
    arms = [Arm(spec, kind, est, cfg, theta0)
            for kind in (EstimatorKind.ZOAR, EstimatorKind.VANILLA)]
    assert (k + 1) * d > optimizers.BATCH_ELEMENTS
    ring, chunk, points, row = n * k * d * 8, k * d * 8, (k + 1) * d * 8, d * 8
    assert _loop_peak(arms, n + 2, [3]) < ring + chunk + 2 * points + 6 * row + (64 << 10)


def test_wide_seeds_keep_one_ring_live_at_a_time():
    # d = 10^4 and n*k = 60: one run's ring is 4.8 MB, past the loop's
    # lockstep budget, so the loop runs the seeds one at a time and two
    # seeds peak no higher than one seed plus one ring
    d, k, n = 10_000, 10, 6
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d)
    est, cfg = EstimatorConfig(mu=0.05, k=k, n=n), OptimizerConfig(eta=0.001)

    def peak(seeds):
        theta0 = (kernels.uniform_doubles(3, len(seeds) * d) * 4 - 2).reshape(-1, d)
        return _loop_peak([Arm(spec, EstimatorKind.ZOAR, est, cfg, theta0)], n + 1, seeds)

    ring = n * k * d * 8
    assert ring > optimizers.LOCKSTEP_ELEMENTS * 8
    one = peak([3])
    assert one > ring
    assert peak([3, 4]) < one + ring


def test_desk_shaped_sweep_peak_is_bounded_by_one_batch():
    # d = 100, k = 10, 5 repeats, noise on, vanilla and zoar at n = 1 and
    # 6: all four arms' 21 000 point entries go into one evaluation, whose
    # buffer, point digests and seed-mixing temporary raised the peak from
    # 0.739 MB (an evaluation per arm) to 1.000-1.009 MB; since the digest
    # folds a 2**13-word block at a time in place of the whole batch the
    # peak reads 0.853 MB (0.994 MB before).  The bound is the 1.009 MB
    # peak plus one full batch
    R, d, k = 5, 100, 10
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d, noise_sigma=0.05)
    theta0 = (kernels.uniform_doubles(3, R * d) - 0.5).reshape(R, d)
    arms = [Arm(spec, kind, EstimatorConfig(mu=0.05, k=k, n=n), OptimizerConfig(eta=0.001),
                theta0)
            for kind in (EstimatorKind.VANILLA, EstimatorKind.ZOAR) for n in (1, 6)]
    assert R * (2 * (k + 1) + 2 * k) * d <= optimizers.BATCH_ELEMENTS
    assert _loop_peak(arms, 40, list(range(R))) < 1_009_000 + optimizers.BATCH_ELEMENTS * 8


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=30),
       budget=st.integers(0, 80))
def test_pack_cuts_each_key_into_greedy_bins_in_order(items, budget):
    keys, sizes = [key for key, _ in items], [size for _, size in items]
    bins = optimizers.pack(keys, sizes, budget)
    assert all(bins)
    # the bins of a key, in order, are its indices in order, and keys
    # appear in first-seen order
    assert [i for b in bins for i in b] == sorted(range(len(keys)), key=lambda i: (
        keys.index(keys[i]), i))
    for b in bins:
        assert len({keys[i] for i in b}) == 1
    for b, after in zip(bins, bins[1:] + [[]]):
        key = keys[b[0]]
        cap = max([budget] + [s for k, s in items if k == key])
        assert sum(sizes[i] for i in b) <= cap
        # greedy: the next item of this key would overflow the bin
        if after and keys[after[0]] == key:
            assert sum(sizes[i] for i in b) + sizes[after[0]] > cap


def test_traces_retain_two_floats_per_logged_iteration():
    # a lockstep group logs into one (R, T+1) array of clean values and one
    # shared (T+1,) wall-time column; per-row objects cost about 170 B a row
    R, T, d = 5, 2000, 2
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, d)
    est = EstimatorConfig(mu=0.05, k=1)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=1e-3)
    theta0 = (kernels.uniform_doubles(5, R * d) - 0.5).reshape(R, d)
    arms = [Arm(spec, EstimatorKind.VANILLA, est, cfg, theta0)]
    run_optimization(arms, 3, list(range(R)))
    tracemalloc.start()
    try:
        [traces] = run_optimization(arms, T, list(range(R)))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(t.completed and t.f_clean.size == T + 1 for t in traces)
    assert retained <= 32 * R * (T + 1)


def test_lockstep_traces_match_runs_alone():
    d, seeds = 8, [3, 17, 2**64 - 5]
    theta0 = (kernels.uniform_doubles(11, len(seeds) * d) - 0.5).reshape(-1, d)
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, d, noise_sigma=0.1)
    est = EstimatorConfig(mu=0.05, k=4, n=3, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01)
    for est_kind in EstimatorKind:
        [group] = run_optimization([Arm(spec, est_kind, est, cfg, theta0)], 25, seeds)
        for seed, x0, trace in zip(seeds, theta0, group):
            [[alone]] = run_optimization([Arm(spec, est_kind, est, cfg, x0[None])], 25, [seed])
            assert (trace.f_clean.tolist() == alone.f_clean.tolist()
                    and trace.queries_per_iter == alone.queries_per_iter
                    and trace.status == alone.status), est_kind


@pytest.mark.parametrize("rule,eta,limit", [(UpdateRule.SGD, 1e-4, 1e5),
                                             (UpdateRule.ADAMM, 0.01, 260.0),
                                             (UpdateRule.RADAZO, 0.001, 400.0)])
def test_lockstep_moments_follow_a_row_that_leaves(monkeypatch, rule, eta, limit):
    # the middle row starts on Rosenbrock's valley floor far out (f = 235),
    # where the steps carry it up the steep walls past the limit after
    # iteration 1; the other two stay near the minimum, so they carry
    # nonzero moments (bias-corrected under adamm) past the row's exit
    monkeypatch.setattr(optimizers, "DIVERGENCE_LIMIT", limit)
    d, T, seeds = 4, 25, [3, 2**64 - 5, 17]
    theta0 = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 4.0, 16.0, 256.0], [0.9, 0.8, 0.7, 0.5]])
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, d, noise_sigma=0.1)
    est = EstimatorConfig(mu=0.05, k=4, n=3, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=rule, eta=eta, bias_correction=rule is UpdateRule.ADAMM)
    for est_kind in EstimatorKind:
        [group] = run_optimization([Arm(spec, est_kind, est, cfg, theta0)], T, seeds)
        assert [t.completed for t in group] == [True, False, True], est_kind
        assert 1 < group[1].diverged_at < T
        for seed, x0, trace in zip(seeds, theta0, group):
            [[alone]] = run_optimization([Arm(spec, est_kind, est, cfg, x0[None])], T, [seed])
            assert (trace.f_clean.tolist() == alone.f_clean.tolist()
                    and trace.diverged_at == alone.diverged_at), est_kind


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("start", [1e4, 1e100], ids=["past-limit", "overflowing"])
@pytest.mark.parametrize("est_kind", list(EstimatorKind))
def test_start_past_divergence_limit_is_diverged_at_zero_unqueried(monkeypatch, est_kind,
                                                                    start):
    # Rosenbrock reads about 3e18 at 1e4 per coordinate and overflows to
    # inf at 1e100; the zoar ring used to refuse that row's query values,
    # and the difference estimators queried and stepped it
    d, T, seeds = 4, 12, [3, 17, 2**64 - 5]
    theta0 = np.array([[1.0, 1.0, 1.0, 1.0], [start] * d, [0.9, 0.8, 0.7, 0.5]])
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, d, noise_sigma=0.1)
    est = EstimatorConfig(mu=0.05, k=3, n=2, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01)
    real = objectives.eval
    queried = []

    def spy(spec_, points, noise_seed=0):
        queried.append(points.shape[0])
        return real(spec_, points, noise_seed)

    monkeypatch.setattr(objectives, "eval", spy)
    [group] = run_optimization([Arm(spec, est_kind, est, cfg, theta0)], T, seeds)
    # one evaluation per step, of the two live rows' queries
    assert queried == [2 * group[0].queries_per_iter] * T
    assert group[1].diverged_at == 0
    assert group[1].f_clean.tolist() == [objectives.clean_value(spec, theta0[1])]
    for r in (0, 2):
        [[alone]] = run_optimization([Arm(spec, est_kind, est, cfg, theta0[r:r + 1])], T,
                                     [seeds[r]])
        assert group[r].completed and group[r].f_clean.tolist() == alone.f_clean.tolist()


def test_run_takes_a_sequence_of_seeds():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    est, cfg = EstimatorConfig(mu=0.05, k=2), OptimizerConfig()
    for seeds, theta0 in [(1, np.zeros(3)), (1, np.zeros((1, 3))), ([1, 2], np.zeros((1, 3)))]:
        with pytest.raises(ValueError, match="sequence of run seeds"):
            run_optimization([Arm(spec, EstimatorKind.VANILLA, est, cfg, theta0)], 2, seeds)


def test_a_loop_needs_an_arm_and_a_seed():
    # these failed with an IndexError at arms[0] and a ZeroDivisionError
    # in the chunk size
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    arm = Arm(spec, EstimatorKind.VANILLA, EstimatorConfig(mu=0.05, k=2), OptimizerConfig(),
              np.zeros((0, 3)))
    with pytest.raises(ValueError, match="at least one arm"):
        run_optimization([], 3, [1])
    with pytest.raises(ValueError, match="at least one run seed"):
        run_optimization([arm], 3, [])


def test_divergence_is_recorded_not_raised():
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, 4)
    est = EstimatorConfig(mu=0.05, k=4, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=1e6)
    [[trace]] = run_optimization([Arm(spec, EstimatorKind.VANILLA, est, cfg,
                                      np.full((1, 4), 1.5))], 50, [1])
    assert trace.status == "diverged"
    assert trace.diverged_at is not None
    # the value that stopped the run is its last row
    assert trace.f_clean.size == trace.diverged_at + 1 <= 51
    assert not abs(trace.f_clean[-1]) <= optimizers.DIVERGENCE_LIMIT
    assert np.all(np.abs(trace.f_clean[:-1]) <= optimizers.DIVERGENCE_LIMIT)


def test_gap_decreases_on_quadratic_sgd():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 20)
    est = EstimatorConfig(mu=0.05, k=8, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=0.01)
    theta0 = kernels.uniform_doubles(5, 20) * 2 - 1
    [[trace]] = run_optimization([Arm(spec, EstimatorKind.VANILLA, est, cfg, theta0[None])],
                                 400, [9])
    assert trace.f_clean[-1] < trace.f_clean[0]


@pytest.mark.parametrize("est_kind", list(EstimatorKind))
def test_chunks_draw_every_row_and_steps_read_views_until_a_row_leaves(monkeypatch,
                                                                        est_kind):
    # chunks of 7 iterations at R = 3: 7, 7, 7 and 4 iterations, with row 2
    # leaving inside the first; every chunk still draws all three rows
    R, k, d, T, per_chunk = 3, 4, 4, 25, 7
    monkeypatch.setattr(optimizers, "CHUNK_ELEMENTS", per_chunk * R * k * d)
    materialize_block, write_points = kernels.materialize_block, estimators.write_points
    blocks, steps = [], []

    def drawing(seeds, tag, dim):
        block = materialize_block(seeds, tag, dim)
        if dim == d:  # not the observation noise, drawn with dim 1
            blocks.append(block)
        return block

    def writing(out, theta, mu, dirs, centre=False):
        steps.append((blocks[-1], dirs))
        write_points(out, theta, mu, dirs, centre)

    monkeypatch.setattr(kernels, "materialize_block", drawing)
    monkeypatch.setattr(estimators, "write_points", writing)
    results = _diverging_group(est_kind)
    assert [status for _, _, status, _ in results] == ["completed", "completed", "diverged"]
    left = results[2][3]
    assert 1 < left < per_chunk
    assert [b.shape[0] for b in blocks] == [R * per_chunk * k] * 3 + [R * 4 * k]
    assert len(steps) == T  # one arm: one write per step
    for t, (block, dirs) in enumerate(steps, start=1):
        chunk = block.reshape(R, -1, k, d)[:, (t - 1) % per_chunk]
        if t <= left:  # the row is queried at the step it diverges
            assert np.shares_memory(dirs, block) and np.array_equal(dirs, chunk)
        else:
            assert dirs.shape == (R - 1, k, d) and np.array_equal(dirs, chunk[:R - 1])


def test_arms_of_one_loop_must_share_the_direction_stream():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    cfg, theta0 = OptimizerConfig(), np.zeros((2, 3))
    arms = [Arm(spec, EstimatorKind.VANILLA, EstimatorConfig(mu=0.05, k=k), cfg, theta0)
            for k in (2, 3)]
    with pytest.raises(ValueError, match="must share k"):
        run_optimization(arms, 2, [1, 2])
