"""Seeded perturbation directions and seed derivation.

A direction is defined by a 64-bit seed plus a distribution tag and
dimension: it materialises from them bit-identically on any machine (see
:mod:`zoar._kernels` for the exact generator contract).  Seeds for the
k-th direction of iteration t are derived from the master seed by the
fixed chain ``fold(fold(fold(master, NS_DIRECTION), t), k)``.  No seed
depends on the parameters, so a run's directions can be drawn ahead of its
iterates: the optimisation loop derives the seeds of a chunk of C
iterations for R runs at once with :func:`stream_roots` and
:func:`iteration_seeds`, two vectorised folds that give the bits of the
scalar chain.
"""

import enum
import functools

import numpy as np

from . import _kernels as kernels
from ._kernels import fold, np_fold
from ._kernels.bits import _U31, _U_GOLDEN, _mix64_head_inplace, _mix64_inplace

# namespace labels for seed derivation; fixed, part of the stream contract
NS_DIRECTION = 0x01
NS_NOISE = 0x02
NS_THETA0 = 0x03
NS_REPEAT = 0x04
NS_TRIAL = 0x05


class DistTag(enum.IntEnum):
    """Perturbation distribution: standard normal, unit sphere, or basis vectors."""

    GAUSSIAN = kernels.GAUSSIAN
    SPHERE = kernels.SPHERE
    COORDINATE = kernels.COORDINATE

    @classmethod
    def parse(cls, name: str) -> "DistTag":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown distribution tag: {name!r}") from None


def direction_seed(master_seed: int, iteration: int, k: int) -> int:
    return fold(fold(fold(master_seed, NS_DIRECTION), iteration), k)


def direction_seeds(master_seed: int, iteration: int, k: int) -> np.ndarray:
    """Seeds of directions 1..k of one iteration; entry j-1 is
    ``direction_seed(master_seed, iteration, j)``."""
    root = fold(fold(master_seed, NS_DIRECTION), iteration)
    return np_fold(np.uint64(root), np.arange(1, k + 1, dtype=np.uint64))


def noise_seed(master_seed: int, iteration: int) -> int:
    return fold(fold(master_seed, NS_NOISE), iteration)


def stream_roots(master_seeds: np.ndarray) -> np.ndarray:
    """Roots of the direction and noise streams of R runs, shape (2, R):
    ``fold(master, NS_DIRECTION)`` and ``fold(master, NS_NOISE)``."""
    labels = np.array([[NS_DIRECTION], [NS_NOISE]], dtype=np.uint64)
    return np_fold(np.asarray(master_seeds, dtype=np.uint64)[None, :], labels)


def iteration_seeds(roots: np.ndarray, iterations: range,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction seeds (R, C, k) and noise seeds (R, C) of the C iterations
    in ``iterations`` of the R runs whose :func:`stream_roots` are given;
    entry [r, c] holds ``direction_seeds(master_r, t, k)`` and
    ``noise_seed(master_r, t)`` for the c-th iteration t."""
    its = np.arange(iterations.start, iterations.stop, iterations.step, dtype=np.uint64)
    dir_roots, noise_seeds = np_fold(roots[:, :, None], its)
    return np_fold(dir_roots[..., None], np.arange(1, k + 1, dtype=np.uint64)), noise_seeds


def theta0_seed(master_seed: int) -> int:
    return fold(master_seed, NS_THETA0)


def repeat_seed(master_seed: int, repeat: int) -> int:
    return fold(fold(master_seed, NS_REPEAT), repeat)


def trial_seed(master_seed: int, trial: int) -> int:
    return fold(fold(master_seed, NS_TRIAL), trial)


@functools.lru_cache(maxsize=16)
def _position_keys(dim: int) -> np.ndarray:
    """``mix64(j*GOLDEN + GOLDEN)`` for positions j = 1..dim, the inner
    half of ``fold(word_j, j*GOLDEN)``; read-only, built once per dim."""
    keys = np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(kernels.GOLDEN)
    keys += np.uint64(kernels.GOLDEN)
    _mix64_inplace(keys)
    keys.flags.writeable = False
    return keys


def point_digest(theta: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit digest of a parameter vector's bit pattern.

    Works on (..., d) arrays, digesting along the last axis: the digest
    of a vector with words w_1..w_d is the XOR over j of
    ``fold(w_j, j*GOLDEN)``.  Used to key the observation-noise draw on
    the evaluation point.

    The folds run a block of whole rows at a time, at most 2**13 words
    (64 KiB) unless one row is longer, in two scratch arrays allocated
    once per call; each block is XORed into its rows' digests before the
    next is folded, so no array the size of the batch is made.  The
    fold's last step, ``z ^= z >> 31``, runs once on each digest (see
    :func:`_kernels.bits._mix64_head_inplace`).
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    d = theta.shape[-1]
    words = theta.view(np.uint64).reshape(-1, d)
    keys = _position_keys(d)
    rows = max(1, (1 << 13) // max(1, d))
    buf = np.empty((min(rows, words.shape[0]), d), dtype=np.uint64)
    scratch = np.empty_like(buf)
    out = np.empty(words.shape[0], dtype=np.uint64)
    for start in range(0, words.shape[0], rows):
        block = words[start:start + rows]
        z = np.bitwise_xor(block, keys, out=buf[:block.shape[0]])
        z += _U_GOLDEN
        _mix64_head_inplace(z, scratch[:block.shape[0]])
        np.bitwise_xor.reduce(z, axis=1, out=out[start:start + rows])
    out ^= out >> _U31
    return out.reshape(theta.shape[:-1])[()]


def as_params(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 parameter vector."""
    theta = np.asarray(values, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {theta.shape}")
    if dim is not None and theta.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {theta.shape[0]}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector contains non-finite entries")
    return theta
