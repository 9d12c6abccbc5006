"""Backend parity and generator-quality tests.

The compiled and pure kernels promise bit-identical output; the parity
tests hold them to it and skip when the extension is not built.  The
rest check the pure backend alone, among them the inverse normal CDF
against scipy's as an independent oracle.
"""

import math

import numpy as np
import pytest
import scipy.special

from zoar._kernels import bits, pure


@pytest.fixture(scope="module")
def ckern():
    """The compiled backend; tests that compare against it skip without it."""
    return pytest.importorskip("zoar._kernels._ckern")


TAGS = [pure.GAUSSIAN, pure.SPHERE, pure.COORDINATE]
SEEDS = [0, 1, 7, 12345, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
DIMS = [1, 2, 3, 17, 64, 100, 1023]


@pytest.mark.parametrize("tag", TAGS)
def test_materialize_parity(tag, ckern):
    for seed in SEEDS:
        for dim in DIMS:
            a = pure.materialize(seed, tag, dim)
            b = ckern.materialize(seed, tag, dim)
            assert np.array_equal(a, b), (seed, tag, dim)


@pytest.mark.parametrize("tag", TAGS)
def test_block_and_weighted_sum_parity(tag, ckern):
    seeds = bits.stream_words(99, 400)
    coeffs = np.linspace(-3.0, 3.0, 400)
    assert np.array_equal(pure.materialize_block(seeds, tag, 37),
                          ckern.materialize_block(seeds, tag, 37))
    assert np.array_equal(pure.weighted_direction_sum(seeds, tag, 37, coeffs),
                          ckern.weighted_direction_sum(seeds, tag, 37, coeffs))


def test_scalar_stream_parity(ckern):
    for seed in SEEDS:
        assert np.array_equal(pure.standard_normals(seed, 10000),
                              ckern.standard_normals(seed, 10000))
        assert np.array_equal(pure.uniform_doubles(seed, 10000),
                              ckern.uniform_doubles(seed, 10000))


def test_icdf_parity_dense(ckern):
    p = np.concatenate([
        np.linspace(1e-12, 1 - 1e-12, 200001),
        10.0 ** np.linspace(-300, -1, 5000),
        1.0 - 10.0 ** np.linspace(-16, -1, 5000),
    ])
    assert np.array_equal(pure.normal_icdf(p), ckern.normal_icdf(p))
    assert np.array_equal(pure.log_unit(p[p < 1.0]), ckern.log_unit(p[p < 1.0]))


def test_icdf_against_scipy():
    # Acklam's approximation is documented at |rel err| < 1.2e-9
    p = np.linspace(1e-9, 1 - 1e-9, 100001)
    mine = pure.normal_icdf(p)
    ref = scipy.special.ndtri(p)
    rel = np.abs(mine - ref) / (1.0 + np.abs(ref))
    assert rel.max() < 5e-9


def test_log_unit_against_math_log():
    xs = np.concatenate([np.linspace(1e-300, 1 - 1e-16, 20001),
                         10.0 ** np.linspace(-300, -0.001, 2000)])
    mine = pure.log_unit(xs)
    ref = np.array([math.log(x) for x in xs])
    assert np.max(np.abs(mine - ref) / np.abs(ref)) < 1e-14


def test_pure_sphere_norm_matches_sequential_sum():
    # the pure backend relies on cumsum accumulating strictly left to right
    for seed in SEEDS:
        g = pure.standard_normals(seed, 501)
        acc = 0.0
        for v in g:
            acc += v * v
        assert np.cumsum(g * g)[-1] == acc


def test_uniform_range_and_mean():
    u = pure.uniform_doubles(5, 200000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 4.0 / math.sqrt(12 * 200000)


def test_mix64_reference_values():
    # splitmix64 finalizer fixed points of the documented contract
    assert bits.mix64(0) == 0
    x = bits.mix64((0 + bits.GOLDEN) & bits.MASK64)
    assert x == bits.stream_words(0, 1)[0]
    assert bits.fold(1, 2) != bits.fold(2, 1)


def test_python_and_numpy_fold_agree():
    for a in (0, 7, 2**63 + 5, 2**64 - 1):
        for b in (0, 1, 977, 2**64 - 2):
            assert bits.fold(a, b) == int(bits.np_fold(np.uint64(a), np.uint64(b)))
            assert bits.mix64(a) == int(bits.np_mix64(np.uint64(a)))


def test_backend_bench_runs():
    from zoar import backend_bench

    rows = backend_bench.run(reps=1)
    assert len(rows) == 5
    for name, t_pure, t_comp in rows:
        assert t_pure > 0.0
        assert t_comp is None or t_comp > 0.0


def test_experiment_outputs_identical_across_backends(tmp_path, ckern):
    """End-to-end: a run under the pure fallback must write byte-identical
    results (wall_ms aside) to one under the compiled kernels."""
    import os
    import subprocess
    import sys

    cfg = tmp_path / "c.cfg"
    cfg.write_text("""
[objective]
kind = rosenbrock
dim = 12
noise_sigma = 0.1

[estimator]
kind = zoar
tag = sphere
k = 4
n = 3

[run]
iterations = 40
repeats = 2
master_seed = 17
""")
    outs = {}
    for backend, forced in (("compiled", "0"), ("pure", "1")):
        env = dict(os.environ, ZOAR_FORCE_PURE_KERNELS=forced)
        out = tmp_path / backend
        subprocess.run([sys.executable, "-m", "zoar.cli", "run", str(cfg),
                        "--out", str(out)], check=True, env=env)
        outs[backend] = out
    assert ((outs["compiled"] / "aggregate.csv").read_bytes()
            == (outs["pure"] / "aggregate.csv").read_bytes())
    for fname in ("trace_r0.csv", "trace_r1.csv"):
        strip = lambda p: [",".join(l.split(",")[:-1])
                           for l in p.read_text().splitlines()]
        assert strip(outs["compiled"] / fname) == strip(outs["pure"] / fname)
