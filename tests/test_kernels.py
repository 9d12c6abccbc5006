"""Kernel parity and generator-quality tests.

``materialize_block`` has a compiled twin: ``_ckern.c``, built here with
``setup.py``'s own extension into a temporary directory, must give the
pure backend's bits.  Its one function fills directions, so its inverse
normal CDF is reached through dim-1 directions whose seeds put their one
word on a chosen p.  These tests skip only where no C compiler is found.
The rest check the pure backend alone: its in-place inverse normal CDF
bit for bit against the plain expressions of the spec kept here as a
reference, and against scipy's as an independent oracle.
"""

import importlib.util
import math
import runpy
import shutil
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from setuptools import Distribution
from setuptools.command.build_ext import build_ext

import zoar._kernels as kernels
from zoar import cli, sampling
from zoar._kernels import bits, pure

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ckern(tmp_path_factory):
    """The C extension, built from the source tree into a temporary directory."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build _ckern.c")
    ext = runpy.run_path(str(ROOT / "setup.py"))["EXTENSION"]
    ext.sources = [str(ROOT / src) for src in ext.sources]
    ext.optional = False
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(tmp_path_factory.mktemp("ckern"))
    cmd.build_temp = str(Path(cmd.build_lib) / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_block(ckern, monkeypatch):
    """``materialize_block`` as the package serves it when the C kernel imports."""
    monkeypatch.setattr(kernels, "_ckern", ckern)
    return kernels.compiled_materialize_block


TAGS = [pure.GAUSSIAN, pure.SPHERE, pure.COORDINATE]
SEEDS = [0, 1, 7, 12345, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
DIMS = [1, 2, 3, 17, 64, 100, 1023]


@pytest.mark.parametrize("tag", TAGS)
def test_materialize_block_parity(tag, compiled_block):
    seeds = np.array(SEEDS, dtype=np.uint64)
    for dim in DIMS:
        a = pure.materialize_block(seeds, tag, dim)
        b = compiled_block(seeds, tag, dim)
        assert np.array_equal(a, b), (tag, dim)
    seeds = bits.stream_words(99, 400)
    assert np.array_equal(pure.materialize_block(seeds, tag, 37),
                          compiled_block(seeds, tag, 37))


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("shape", [(2, 3), (2, 1, 3)])
def test_backends_agree_on_seed_shape(tag, shape, compiled_block):
    # each seed keeps its place: a block of seeds gives its own shape plus
    # (dim,), the flat block's rows in the seeds' order
    seeds = bits.stream_words(5, math.prod(shape)).reshape(shape)
    a = pure.materialize_block(seeds, tag, 4)
    assert a.shape == shape + (4,)
    assert np.array_equal(a, compiled_block(seeds, tag, 4))
    assert np.array_equal(a.reshape(-1, 4), pure.materialize_block(seeds.reshape(-1), tag, 4))


def test_icdf_parity_dense(ckern):
    # every p the kernel can draw is (2m+1)/2**53: a spread across (0, 1)
    # and both tails from 2**-53 to 0.1
    tail = np.floor(10.0 ** np.linspace(-53 * math.log10(2), -1, 5000) * 2.0**52)
    m = np.concatenate([np.floor(np.linspace(1e-12, 1 - 1e-12, 200001) * 2.0**52),
                        tail, 2.0**52 - 1 - tail]).astype(np.uint64)
    seeds = seeds_with_first_numerators(m)
    p = odd_grid(m)
    assert np.array_equal(pure._words_to_open01(bits.stream_words(seeds, 1)[:, 0]), p)
    out = np.empty((m.size, 1))
    ckern.fill_directions(seeds, pure.GAUSSIAN, out)
    assert np.array_equal(pure.normal_icdf(p), out[:, 0])


def test_compiled_kernel_has_one_function(ckern):
    assert [name for name in dir(ckern) if not name.startswith("_")] == ["fill_directions"]


def test_compiled_block_rejects_bad_shapes(ckern):
    with pytest.raises(ValueError):
        ckern.fill_directions(np.zeros(2, dtype=np.uint64), pure.GAUSSIAN, np.empty(5))


@pytest.fixture(params=["pure", "compiled"])
def backend_block(request):
    if request.param == "pure":
        return pure.materialize_block
    return request.getfixturevalue("compiled_block")


@pytest.mark.parametrize("rows", [0, 2])
def test_backends_agree_at_dim_zero(backend_block, rows):
    # a Gaussian or sphere block has no entries; a coordinate one has no
    # axis to draw, which only an empty block survives
    seeds = np.arange(rows, dtype=np.uint64)
    with np.errstate(all="raise"):
        for tag in (pure.GAUSSIAN, pure.SPHERE):
            assert backend_block(seeds, tag, 0).shape == (rows, 0)
        if rows:
            with pytest.raises(ValueError, match="dim >= 1"):
                backend_block(seeds, pure.COORDINATE, 0)
        else:
            assert backend_block(seeds, pure.COORDINATE, 0).shape == (0, 0)


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


def reference_normal_icdf(p):
    """The inverse CDF as plain expressions: a masked central pass and one
    pass per tail, each array built afresh (the pure backend's form before
    it ran in place)."""
    p = np.asarray(p, dtype=np.float64)
    A, B, C, D = pure._A, pure._B, pure._C, pure._D

    def tail(p):
        q = np.sqrt(-2.0 * pure.log_unit(p))
        num = ((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5]
        den = (((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0
        return num / den

    lo = p < pure._P_LOW
    hi = p > pure._P_HIGH
    q = np.where(lo | hi, 0.0, p - 0.5)
    r = q * q
    num = (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
    den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0
    out = num / den
    if np.any(lo):
        out[lo] = tail(p[lo])
    if np.any(hi):
        out[hi] = -tail(1.0 - p[hi])
    return out


def odd_grid_numerators(width: int) -> np.ndarray:
    """m of the kernel's open-interval values (2m+1)/2**53: ``width`` on
    each side of P_LOW, P_HIGH and 1/2, and both extremes 2**-53 and
    1-2**-53."""
    centres = [int(x * 2.0**52) for x in (pure._P_LOW, pure._P_HIGH, 0.5)]
    m = [np.arange(c - width, c + width + 1) for c in centres]
    return np.concatenate(m + [np.array([0, 2**52 - 1])]).astype(np.uint64)


def odd_grid(m: np.ndarray) -> np.ndarray:
    return (2.0 * m.astype(np.float64) + 1.0) * 2.0**-53


def test_icdf_matches_reference_on_odd_grid():
    p = odd_grid(odd_grid_numerators(2000))
    assert p.min() == 2.0**-53 and p.max() == 1.0 - 2.0**-53
    assert np.array_equal(pure.normal_icdf(p), reference_normal_icdf(p))
    # and on a spread of the kernel's own draws
    p = pure._words_to_open01(bits.stream_words(3, 200000))
    assert np.array_equal(pure.normal_icdf(p), reference_normal_icdf(p))


def test_icdf_without_tail_entries_matches_reference():
    # blocks with no entry in a tail skip the tail pass
    central = np.linspace(pure._P_LOW, pure._P_HIGH, 101)
    for p in (central, central[50:51], central[:0]):
        assert np.array_equal(pure.normal_icdf(p), reference_normal_icdf(p))


def inverse_mix64(w: np.ndarray) -> np.ndarray:
    """z with ``bits.mix64(z) == w`` for each uint64 entry: SplitMix64's
    finaliser is a bijection."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> np.uint64(s))
        return x

    w = unshift(w, 31)
    w = unshift(w * np.uint64(pow(bits._M2, -1, 2**64)), 27)
    return unshift(w * np.uint64(pow(bits._M1, -1, 2**64)), 30)


def seeds_with_first_numerators(m: np.ndarray) -> np.ndarray:
    """Seeds whose direction's first entry comes from p = (2m+1)/2**53."""
    return inverse_mix64(np.asarray(m, dtype=np.uint64) << np.uint64(12)) - np.uint64(bits.GOLDEN)


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


EDGE_M = odd_grid_numerators(1)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=12),
       dim=st.integers(1, 40),
       p=st.lists(st.floats(2.0**-60, 1.0 - 2.0**-53), min_size=1, max_size=30),
       thetas=st.lists(st.floats(allow_nan=False), min_size=1, max_size=16))
def test_kernels_leave_arguments_unchanged(seeds, dim, p, thetas):
    """In-place work stays on arrays the kernels own; every tag stays free
    of floating-point errors at the extremes and branch edges of p."""
    seeds = np.concatenate([seeds_with_first_numerators(EDGE_M),
                            np.array(seeds, dtype=np.uint64)])
    grid_p = odd_grid(EDGE_M)
    args = {"seeds": read_only(seeds), "p": read_only(p + list(grid_p)),
            "theta": read_only(np.array(thetas).reshape(1, -1)),
            "column": read_only(seeds[:, None])}
    before = {k: v.tobytes() for k, v in args.items()}
    with np.errstate(all="raise"):
        bits.stream_words(args["seeds"], 2)
        bits.np_fold(args["column"], args["seeds"])
        bits.np_fold(args["seeds"], np.uint64(7))
        pure.normal_icdf(args["p"])
        sampling.point_digest(args["theta"])
        blocks = {tag: pure.materialize_block(args["seeds"], tag, dim) for tag in TAGS}
    assert {k: v.tobytes() for k, v in args.items()} == before
    for out in blocks.values():
        assert out.shape == (len(seeds), dim) and np.isfinite(out).all()
    gauss = blocks[pure.GAUSSIAN]
    assert np.array_equal(gauss[:len(grid_p), 0], reference_normal_icdf(grid_p))


def test_pure_sphere_norm_matches_sequential_sum():
    # rows >= dim and rows < dim take different reductions in the kernel;
    # both must add the squares strictly left to right
    for rows, dim in [(400, 3), (10, 10), (2, 1023)]:
        seeds = bits.stream_words(rows * dim, rows)
        g = pure.materialize_block(seeds, pure.GAUSSIAN, dim)
        u = pure.materialize_block(seeds, pure.SPHERE, dim)
        for i in range(rows):
            acc = 0.0
            for v in g[i].tolist():
                acc += v * v
            assert np.array_equal(u[i], g[i] / math.sqrt(acc)), (rows, dim, i)


@pytest.mark.parametrize("tag", [pure.GAUSSIAN, pure.SPHERE])
def test_pure_block_peak_memory_is_bounded(tag):
    # 10 directions at d = 10**4 are one step of a full-scale run
    seeds = bits.stream_words(11, 10)
    tracemalloc.start()
    try:
        out = pure.materialize_block(seeds, tag, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * out.nbytes, peak / out.nbytes


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


STREAM_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(), (1,), (5,), (2, 3), (4, 1)]), n=st.integers(0, 9),
       pool=st.lists(STREAM_SEEDS, min_size=6, max_size=6))
def test_stream_words_rows_are_their_seeds_streams(shape, n, pool):
    seeds = np.array(pool[:math.prod(shape)], dtype=np.uint64).reshape(shape)
    words = bits.stream_words(seeds, n)
    assert words.shape == shape + (n,)
    for i in np.ndindex(shape):
        seed = int(seeds[i])
        assert np.array_equal(words[i], bits.stream_words(seed, n))
        assert words[i].tolist() == [bits.mix64(seed + (j + 1) * bits.GOLDEN) for j in range(n)]


def test_python_and_numpy_fold_agree():
    for a in (0, 7, 2**63 + 5, 2**64 - 1):
        for b in (0, 1, 977, 2**64 - 2):
            assert bits.fold(a, b) == int(bits.np_fold(np.uint64(a), np.uint64(b)))
            assert bits.mix64(a) == bits.stream_words((a - bits.GOLDEN) & bits.MASK64, 1)[0]


def test_experiment_outputs_identical_across_backends(tmp_path, monkeypatch,
                                                   compiled_block):
    """End-to-end: a run on the compiled kernel must write byte-identical
    results (wall_ms aside) to one on the pure backend."""
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
    for backend, block in (("compiled", compiled_block), ("pure", pure.materialize_block)):
        monkeypatch.setattr(kernels, "materialize_block", block)
        outs[backend] = tmp_path / backend
        assert cli.main(["run", str(cfg), "--out", str(outs[backend])]) == 0
    assert ((outs["compiled"] / "aggregate.csv").read_bytes()
            == (outs["pure"] / "aggregate.csv").read_bytes())
    for fname in ("trace_r0.csv", "trace_r1.csv"):
        strip = lambda p: [",".join(l.split(",")[:-1])
                           for l in p.read_text().splitlines()]
        assert strip(outs["compiled"] / fname) == strip(outs["pure"] / fname)
