import json

import numpy as np
import pytest

import zoar._kernels as kernels
from zoar import estimators, objectives, sampling, verify
from zoar.estimators import EstimatorConfig, HistoryBuffer
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.sampling import DistTag


def test_batch_history_path_matches_production_estimator():
    """The vectorised sampler used by the statistical checks must compute
    the same estimate as estimators.zoar_estimate on the same queries."""
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4)
    theta_seq = np.array([[0.5, -0.2, 0.1, 0.9], [0.3, 0.3, -0.4, 0.0]])
    cfg = EstimatorConfig(mu=0.07, k=3, tag=DistTag.SPHERE)
    trials = 5
    batch = verify._history_estimates(spec, theta_seq, cfg, trials, seed=123)

    trial_root = sampling.fold(123, sampling.NS_TRIAL)
    for i in range(trials):
        root = kernels.np_fold(np.uint64(trial_root), np.uint64(i))
        buf = HistoryBuffer(block_size=cfg.k, depth=theta_seq.shape[0],
                            tag=cfg.tag, dim=4)
        for b, theta in enumerate(theta_seq):
            block_root = kernels.np_fold(root, np.uint64(b))
            seeds = kernels.np_fold(block_root, np.arange(cfg.k, dtype=np.uint64))
            dirs = kernels.materialize_block(seeds, int(cfg.tag), 4)
            buf.push_block(dirs, objectives.clean_value(spec, theta + cfg.mu * dirs))
        prod = estimators.zoar_estimate(buf, cfg.mu)
        assert np.allclose(batch[i], prod, rtol=1e-12, atol=1e-14)


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
