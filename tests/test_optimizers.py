import math

import numpy as np
import pytest

import zoar._kernels as kernels
from zoar.estimators import EstimatorConfig
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import (EstimatorKind, MomentState, OptimizerConfig,
                             UpdateRule, adamm_step, radazo_step,
                             run_optimization, sgd_step)
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
    state = MomentState(m=np.zeros(2), v=v0.copy(), t=0)
    theta1, state1 = radazo_step(theta0, state, g, cfg)
    m1 = (1 - cfg.beta1) * g
    v1 = cfg.beta2 * v0 + (1 - cfg.beta2) * m1 ** 2
    expect = theta0 - cfg.eta * m1 / np.sqrt(v1 + cfg.zeta)
    assert np.array_equal(theta1, expect)
    assert np.array_equal(state1.m, m1)
    assert np.array_equal(state1.v, v1)
    assert state1.t == 1


def test_radazo_zero_gradient_never_moves():
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.5)
    theta = np.array([3.0, -1.0])
    state = MomentState.zeros(2)
    for _ in range(10):
        theta_new, state = radazo_step(theta, state, np.zeros(2), cfg)
        assert np.array_equal(theta_new, theta)
        theta = theta_new


def test_radazo_step_magnitude_bound():
    # per-coordinate |step| <= eta/sqrt(1-beta2) since v >= (1-beta2) m^2
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.02, beta1=0.8,
                          beta2=0.99, zeta=1e-12)
    bound = cfg.eta / math.sqrt(1 - cfg.beta2)
    theta = np.zeros(5)
    state = MomentState.zeros(5)
    for t in range(200):
        g = kernels.materialize(t + 1, kernels.GAUSSIAN, 5) * 10 ** ((t % 7) - 3)
        theta_new, state = radazo_step(theta, state, g, cfg)
        assert np.all(np.abs(theta_new - theta) <= bound * (1 + 1e-12))
        assert np.all(np.isfinite(state.m)) and np.all(state.v >= 0.0)
        theta = theta_new


def test_adamm_recursion_with_and_without_bias_correction():
    g = np.array([1.0, -2.0])
    theta0 = np.zeros(2)
    raw = OptimizerConfig(rule=UpdateRule.ADAMM, eta=0.1, beta1=0.9, beta2=0.99,
                          zeta=1e-8, bias_correction=False)
    theta1, st1 = adamm_step(theta0, MomentState.zeros(2), g, raw)
    m1, v1 = (1 - 0.9) * g, (1 - 0.99) * g * g
    assert np.array_equal(theta1, -0.1 * m1 / np.sqrt(v1 + 1e-8))

    bc = OptimizerConfig(rule=UpdateRule.ADAMM, eta=0.1, beta1=0.9, beta2=0.99,
                         zeta=1e-8, bias_correction=True)
    theta1b, _ = adamm_step(theta0, MomentState.zeros(2), g, bc)
    mh, vh = m1 / (1 - 0.9), v1 / (1 - 0.99)
    assert np.array_equal(theta1b, -0.1 * mh / np.sqrt(vh + 1e-8))


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


def _run(kind, est_kind, T=40, seed=3, d=8, **est_kwargs):
    spec = ObjectiveSpec(kind, d)
    est = EstimatorConfig(**{"mu": 0.05, "k": 4, "n": 3,
                             "tag": DistTag.GAUSSIAN, **est_kwargs})
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01)
    theta0 = kernels.uniform_doubles(11, d) - 0.5
    return run_optimization(spec, est_kind, est, cfg, T, seed, theta0)


def test_zero_iterations_gives_initial_row_only():
    trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.VANILLA, T=0)
    assert len(trace.rows) == 1
    assert trace.rows[0].iter == 0
    assert trace.completed


def test_run_is_deterministic():
    a = _run(ObjectiveKind.ACKLEY, EstimatorKind.ZOAR)
    b = _run(ObjectiveKind.ACKLEY, EstimatorKind.ZOAR)
    rows_a = [(r.iter, r.queries_cum, r.f_clean, r.gap) for r in a.rows]
    rows_b = [(r.iter, r.queries_cum, r.f_clean, r.gap) for r in b.rows]
    assert rows_a == rows_b


def test_query_accounting_per_estimator():
    T, k = 25, 4
    for est_kind, per_iter in [(EstimatorKind.VANILLA, k + 1),
                               (EstimatorKind.REINFORCE_GS, k + 1),
                               (EstimatorKind.ZOHS, k + 1),
                               (EstimatorKind.ZOAR, k)]:
        trace = _run(ObjectiveKind.QUADRATIC, est_kind, T=T)
        assert trace.rows[-1].queries_cum == per_iter * T
        diffs = {b.queries_cum - a.queries_cum
                 for a, b in zip(trace.rows, trace.rows[1:])}
        assert diffs == {per_iter}


def test_reinforce_twin_produces_identical_trace():
    a = _run(ObjectiveKind.QUADRATIC, EstimatorKind.VANILLA, T=60)
    b = _run(ObjectiveKind.QUADRATIC, EstimatorKind.REINFORCE_GS, T=60)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.iter, ra.f_clean, ra.gap) == (rb.iter, rb.f_clean, rb.gap)


def test_zoar_with_single_query_warmup():
    trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=5, k=1, n=4)
    assert trace.completed
    # the first iteration has one record: estimate is zero, theta unchanged
    assert trace.rows[1].f_clean == trace.rows[0].f_clean


def test_zoar_rejects_unusable_history_config():
    with pytest.raises(ValueError):
        _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=2, k=1, n=1)


def test_zoar_run_materialises_each_direction_once(monkeypatch):
    # the ring keeps the directions it was pushed, so a run of T
    # iterations builds T*k rows and never regenerates one from its seed;
    # a lockstep group of R runs builds all R*k rows of a step in one call
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
    T, k = 30, 4
    trace = _run(ObjectiveKind.QUADRATIC, EstimatorKind.ZOAR, T=T, k=k, n=3)
    assert trace.completed and len(trace.rows) == T + 1
    assert rows == [k] * T

    rows.clear()
    R, d = 3, 8
    theta0 = (kernels.uniform_doubles(11, R * d) - 0.5).reshape(R, d)
    traces = run_optimization(ObjectiveSpec(ObjectiveKind.QUADRATIC, d), EstimatorKind.ZOAR,
                              EstimatorConfig(mu=0.05, k=k, n=3),
                              OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01), T,
                              list(range(3, 3 + R)), theta0)
    assert all(t.completed and len(t.rows) == T + 1 for t in traces)
    assert rows == [R * k] * T


def test_lockstep_traces_match_runs_alone():
    d, seeds = 8, [3, 17, 2**64 - 5]
    theta0 = (kernels.uniform_doubles(11, len(seeds) * d) - 0.5).reshape(-1, d)
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, d, noise_sigma=0.1)
    est = EstimatorConfig(mu=0.05, k=4, n=3, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.RADAZO, eta=0.01)
    for est_kind in EstimatorKind:
        group = run_optimization(spec, est_kind, est, cfg, 25, seeds, theta0)
        for seed, x0, trace in zip(seeds, theta0, group):
            alone = run_optimization(spec, est_kind, est, cfg, 25, seed, x0)
            assert ([r[:4] for r in trace.rows] == [r[:4] for r in alone.rows]
                    and trace.status == alone.status), est_kind


def test_divergence_is_recorded_not_raised():
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, 4)
    est = EstimatorConfig(mu=0.05, k=4, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=1e6)
    trace = run_optimization(spec, EstimatorKind.VANILLA, est, cfg, 50, 1,
                             np.full(4, 1.5))
    assert trace.status == "diverged"
    assert trace.diverged_at is not None
    assert len(trace.rows) <= 51


def test_gap_decreases_on_quadratic_sgd():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 20)
    est = EstimatorConfig(mu=0.05, k=8, tag=DistTag.GAUSSIAN)
    cfg = OptimizerConfig(rule=UpdateRule.SGD, eta=0.01)
    theta0 = kernels.uniform_doubles(5, 20) * 2 - 1
    trace = run_optimization(spec, EstimatorKind.VANILLA, est, cfg, 400, 9, theta0)
    assert trace.rows[-1].gap < trace.rows[0].gap
