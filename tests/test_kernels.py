"""Kernel parity and generator-quality tests.

``materialize_block`` has a compiled twin: ``_ckern.c``, built here with
``setup.py``'s own extension into a temporary directory, must give the
pure backend's bits, and so must its inverse normal CDF.  These tests
skip only where no C compiler is found.  The rest check the pure backend
alone, among them the inverse normal CDF against scipy's as an
independent oracle.
"""

import importlib.util
import math
import runpy
import shutil
import sysconfig
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from setuptools import Distribution
from setuptools.command.build_ext import build_ext

import zoar._kernels as kernels
from zoar import cli
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


def test_icdf_parity_dense(ckern):
    p = np.concatenate([
        np.linspace(1e-12, 1 - 1e-12, 200001),
        10.0 ** np.linspace(-300, -1, 5000),
        1.0 - 10.0 ** np.linspace(-16, -1, 5000),
    ])
    out = np.empty_like(p)
    ckern.normal_icdf_into(p, out)
    assert np.array_equal(pure.normal_icdf(p), out)


def test_compiled_block_rejects_bad_shapes(ckern, compiled_block):
    assert compiled_block(np.zeros(0, dtype=np.uint64), pure.COORDINATE, 0).shape == (0, 0)
    with pytest.raises(ValueError):
        compiled_block([1], pure.COORDINATE, 0)
    with pytest.raises(ValueError):
        ckern.fill_directions(np.zeros(2, dtype=np.uint64), pure.GAUSSIAN, np.empty(5))


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
