"""Seeded perturbation directions and seed derivation.

A direction is defined by a 64-bit seed plus a distribution tag and
dimension: it materialises from them bit-identically on any machine (see
:mod:`zoar._kernels` for the exact generator contract).  Seeds for the
k-th direction of iteration t are derived from the master seed by the
fixed chain ``fold(fold(fold(master, NS_DIRECTION), t), k)``; the
optimisation loop derives one iteration's seeds for R runs at once with
:func:`stream_roots` and :func:`iteration_seeds`, which give the same bits.
"""

import enum

import numpy as np

from . import _kernels as kernels
from ._kernels import fold, np_fold

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


def iteration_seeds(roots: np.ndarray, iteration: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction seeds (R, k) and noise seeds (R,) of one iteration of the
    R runs whose :func:`stream_roots` are given; row r holds
    ``direction_seeds(master_r, iteration, k)`` and
    ``noise_seed(master_r, iteration)``."""
    dir_roots, noise_seeds = np_fold(roots, np.uint64(iteration))
    return np_fold(dir_roots[:, None], np.arange(1, k + 1, dtype=np.uint64)), noise_seeds


def theta0_seed(master_seed: int) -> int:
    return fold(master_seed, NS_THETA0)


def repeat_seed(master_seed: int, repeat: int) -> int:
    return fold(fold(master_seed, NS_REPEAT), repeat)


def trial_seed(master_seed: int, trial: int) -> int:
    return fold(fold(master_seed, NS_TRIAL), trial)


def point_digest(theta: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit digest of a parameter vector's bit pattern.

    Works on (..., d) arrays, digesting along the last axis.  Used to key
    the observation-noise draw on the evaluation point.
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    words = theta.view(np.uint64)
    pos = (np.arange(1, words.shape[-1] + 1, dtype=np.uint64)
           * np.uint64(kernels.GOLDEN))
    mixed = np_fold(words, pos)
    return np.bitwise_xor.reduce(mixed, axis=-1)


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
