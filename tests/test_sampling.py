import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoar._kernels as kernels
from zoar import sampling
from zoar.sampling import DistTag


def test_coordinate_is_basis_vector():
    u = kernels.materialize(11, int(DistTag.COORDINATE), 3)
    assert sorted(u) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("dim", [1, 2, 5, 10, 100, 1000, 10000])
def test_sphere_unit_norm(dim):
    for seed in (0, 3, 99):
        u = kernels.materialize(seed, int(DistTag.SPHERE), dim)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       tag=st.sampled_from(list(DistTag)),
       dim=st.integers(min_value=1, max_value=64))
def test_materialize_deterministic(seed, tag, dim):
    assert np.array_equal(kernels.materialize(seed, int(tag), dim),
                          kernels.materialize(seed, int(tag), dim))


def test_gaussian_sample_statistics():
    n = 100000
    draws = kernels.materialize(123, kernels.GAUSSIAN, n)
    assert abs(draws.mean()) < 4.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.05


def test_coordinate_index_frequencies():
    n, d = 100000, 10
    seeds = kernels.np_fold(np.uint64(5), np.arange(n, dtype=np.uint64))
    dirs = kernels.materialize_block(seeds, int(DistTag.COORDINATE), d)
    counts = dirs.sum(axis=0)
    sigma = math.sqrt(n * (1 / d) * (1 - 1 / d))
    assert np.all(np.abs(counts - n / d) < 4.0 * sigma)


def test_as_params_validation():
    with pytest.raises(ValueError):
        sampling.as_params([1.0, float("nan")])
    with pytest.raises(ValueError):
        sampling.as_params([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        sampling.as_params([[1.0], [2.0]])


def test_seed_derivation_distinct_and_stable():
    s1 = sampling.direction_seed(7, 1, 1)
    assert s1 == sampling.direction_seed(7, 1, 1)
    others = {sampling.direction_seed(7, t, k) for t in range(1, 20) for k in range(1, 20)}
    assert len(others) == 19 * 19
    assert sampling.noise_seed(7, 1) not in others


@settings(max_examples=40, deadline=None)
@given(master=st.integers(0, 2**64 - 1), iteration=st.integers(1, 10**6),
       k=st.integers(1, 12))
def test_direction_seeds_match_scalar_chain(master, iteration, k):
    seeds = sampling.direction_seeds(master, iteration, k)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [sampling.direction_seed(master, iteration, j)
                              for j in range(1, k + 1)]


@settings(max_examples=40, deadline=None)
@given(masters=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       first=st.integers(1, 10**6), count=st.integers(1, 9), k=st.integers(1, 12))
def test_iteration_seeds_match_scalar_chain(masters, first, count, k):
    # a chunk of iterations at once gives the bits of the scalar chain
    its = range(first, first + count)
    dirs, noise = sampling.iteration_seeds(
        sampling.stream_roots(np.array(masters, dtype=np.uint64)), its, k)
    assert dirs.dtype == noise.dtype == np.uint64
    assert dirs.shape == (len(masters), count, k) and noise.shape == (len(masters), count)
    assert dirs.tolist() == [[[sampling.direction_seed(m, t, j) for j in range(1, k + 1)]
                              for t in its] for m in masters]
    assert noise.tolist() == [[sampling.noise_seed(m, t) for t in its] for m in masters]


def test_point_digest_order_sensitive():
    a = sampling.point_digest(np.array([1.0, 2.0]))
    b = sampling.point_digest(np.array([2.0, 1.0]))
    assert a != b
    batch = sampling.point_digest(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert batch.shape == (2,)
    assert batch[0] == a and batch[1] == b
