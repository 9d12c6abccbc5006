import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zoar._kernels as kernels
from zoar import estimators, objectives, sampling
from zoar.objectives import ObjectiveKind, ObjectiveSpec, eval as obj_eval
from zoar.sampling import DistTag


def test_known_values():
    assert obj_eval(ObjectiveSpec(ObjectiveKind.QUADRATIC, 3), np.zeros(3)) == 0.0
    assert obj_eval(ObjectiveSpec(ObjectiveKind.QUADRATIC, 2), [3.0, 4.0]) == 12.5
    assert abs(obj_eval(ObjectiveSpec(ObjectiveKind.ACKLEY, 5), np.zeros(5))) < 1e-12
    assert abs(obj_eval(ObjectiveSpec(ObjectiveKind.LEVY, 6), np.ones(6))) < 1e-30
    assert obj_eval(ObjectiveSpec(ObjectiveKind.ROSENBROCK, 4), np.ones(4)) == 0.0


def test_dimension_requirements():
    ObjectiveSpec(ObjectiveKind.ACKLEY, 1)
    ObjectiveSpec(ObjectiveKind.QUADRATIC, 1)
    for kind in (ObjectiveKind.LEVY, ObjectiveKind.ROSENBROCK):
        with pytest.raises(ValueError):
            ObjectiveSpec(kind, 1)


def test_nonfinite_input_rejected():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 2)
    with pytest.raises(ValueError):
        obj_eval(spec, [1.0, float("inf")])


def test_batch_evaluation_matches_scalar():
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, 5)
    pts = kernels.uniform_doubles(3, 20).reshape(4, 5) * 4 - 2
    batch = obj_eval(spec, pts)
    for i in range(4):
        assert batch[i] == obj_eval(spec, pts[i])


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@pytest.mark.parametrize("dim", [2, 5, 10])
@settings(max_examples=25, deadline=None)
@example(seed=2, scale=4.0)  # two Levy rows here once differed from their lone points
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 4.0, 10.0]))
def test_point_value_matches_batch_row_bitwise(kind, dim, seed, scale):
    spec = ObjectiveSpec(kind, dim)
    pts = scale * (2.0 * kernels.uniform_doubles(seed, 500 * dim) - 1.0).reshape(500, dim)
    batch = objectives.clean_value(spec, pts)
    for i in range(pts.shape[0]):
        assert objectives.clean_value(spec, pts[i]) == batch[i]


def test_noise_deterministic_and_point_keyed():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3, noise_sigma=0.5)
    theta = np.array([0.1, 0.2, 0.3])
    assert obj_eval(spec, theta, 42) == obj_eval(spec, theta, 42)
    assert obj_eval(spec, theta, 42) != obj_eval(spec, theta, 43)
    # distinct points under the same seed draw independent noise
    other = theta + 1e-9
    clean = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3)
    n1 = obj_eval(spec, theta, 42) - obj_eval(clean, theta)
    n2 = obj_eval(spec, other, 42) - obj_eval(clean, other)
    assert n1 != n2


@pytest.mark.parametrize("kind", list(ObjectiveKind))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), k=st.integers(1, 5),
       dim=st.integers(2, 9), noise_seeds=st.lists(st.integers(0, 2**64 - 1),
                                                   min_size=4, max_size=4))
def test_per_row_noise_seeds_match_rows_alone_bitwise(kind, seed, rows, k, dim,
                                                      noise_seeds):
    spec = ObjectiveSpec(kind, dim, noise_sigma=0.3)
    points = (4.0 * kernels.uniform_doubles(seed, rows * k * dim) - 2.0).reshape(
        rows, k, dim)
    seeds = np.array(noise_seeds[:rows], dtype=np.uint64)
    batch = obj_eval(spec, points, seeds)
    centres = obj_eval(spec, points[:, 0], seeds)
    assert batch.shape == (rows, k) and centres.shape == (rows,)
    for r in range(rows):
        assert np.array_equal(batch[r], obj_eval(spec, points[r], noise_seeds[r]))
        assert centres[r] == obj_eval(spec, points[r, 0], noise_seeds[r])


def test_noise_seeds_must_match_leading_axes():
    # checked with noise and without, so a clean spec refuses what a noisy
    # one does
    for sigma in (0.0, 0.1):
        spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 3, noise_sigma=sigma)
        for points, seeds in [(np.zeros((2, 4, 3)), np.arange(4, dtype=np.uint64)),
                              (np.zeros((2, 3)), [1, 2, 3]), (np.zeros(3), [1]),
                              (np.zeros((2, 3)), np.zeros((2, 3), dtype=np.uint64))]:
            with pytest.raises(ValueError):
                obj_eval(spec, points, seeds)
        assert obj_eval(spec, np.zeros((2, 3)), [1, 2]).shape == (2,)
        assert obj_eval(spec, np.zeros((2, 4, 3)), np.zeros(2, dtype=np.uint64)).shape == (2, 4)


def test_scalar_point_rejected():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 1)
    for evaluate in (objectives.clean_value, obj_eval):
        with pytest.raises(ValueError):
            evaluate(spec, 3.0)


def test_noise_mean_converges_to_clean_value():
    sigma = 0.7
    spec = ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=sigma)
    clean = objectives.clean_value(ObjectiveSpec(ObjectiveKind.ACKLEY, 4),
                                   np.full(4, 0.3))
    n = 10000
    values = np.array([obj_eval(spec, np.full(4, 0.3), s) for s in range(n)])
    assert abs(values.mean() - clean) < 5.0 * sigma / math.sqrt(n)


def test_nonnegative_on_random_points():
    pts = kernels.uniform_doubles(17, 10000).reshape(1000, 10) * 8 - 4
    for kind in ObjectiveKind:
        spec = ObjectiveSpec(kind, 10)
        assert np.all(obj_eval(spec, pts) >= 0.0)


def test_grad_oracle_quadratic_analytic():
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4)
    theta = np.array([1.0, 2.0, -0.5, 0.0])
    assert np.array_equal(objectives.grad_oracle(spec, theta), theta)


def test_rosenbrock_all_ones_is_stationary():
    # independent check via central differences at the optimum
    spec = ObjectiveSpec(ObjectiveKind.ROSENBROCK, 2)
    grad = objectives.grad_oracle(spec, np.ones(2))
    assert np.all(np.abs(grad) < 1e-6)


@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_grad_oracle_directional_agreement(kind):
    d = 50 if kind is not ObjectiveKind.ACKLEY else 50
    spec = ObjectiveSpec(kind, d)
    theta = 0.5 + 0.02 * np.arange(d)
    grad = objectives.grad_oracle(spec, theta)
    h = 1e-5
    for i in range(5):
        v = kernels.materialize(sampling.trial_seed(12, i), kernels.SPHERE, d)
        directional = (objectives.clean_value(spec, theta + h * v)
                       - objectives.clean_value(spec, theta - h * v)) / (2 * h)
        ref = float(grad @ v)
        assert abs(directional - ref) <= 1e-4 * max(1.0, abs(ref))


def test_smoothed_oracle_quadratic_sphere_closed_form():
    # the sphere-smoothed quadratic is 0.5*||theta||^2 + 0.5*mu^2; the
    # objective-equivalence check's per-trial values average to it
    spec = ObjectiveSpec(ObjectiveKind.QUADRATIC, 4)
    for theta, mu, trials, seed, closed in [(np.zeros(4), 1.0, 20000, 5, 0.5),
                                            (np.array([1.0, 0.0, 0.0, 0.0]), 0.05,
                                             100000, 6, 0.50125)]:
        root = np.uint64(sampling.fold(seed, sampling.NS_TRIAL))
        seeds = kernels.np_fold(root, np.arange(trials, dtype=np.uint64))
        dirs = estimators.directions(seeds[:, None], DistTag.SPHERE, spec.dim)
        values = estimators.query_block(spec, theta, mu, dirs, root)[:, 0]
        stderr = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - closed) < max(4.0 * stderr, 1e-12)
