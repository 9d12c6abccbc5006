"""Integer mixing primitives shared by both kernel backends.

Everything here is exact 64-bit modular arithmetic, so it behaves
identically no matter which backend generated the surrounding floats.
The stream construction is counter-based (SplitMix64): the j-th raw
word of the stream rooted at ``seed`` is ``mix64(seed + (j+1)*GOLDEN)``
mod 2**64, which makes vectorised generation trivial.

The per-entry operation sequence written in :func:`mix64` and
:func:`fold` is the spec.  The vectorised helpers run it in place on an
array they allocate once; they never write to an argument.
"""

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1

# uint64 twins of the constants and shift counts, built once: the
# vectorised helpers below run in every step's seed derivation
_U_GOLDEN = np.uint64(GOLDEN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def mix64(z: int) -> int:
    """SplitMix64 finaliser on a python int, reduced mod 2**64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def fold(parent: int, data: int) -> int:
    """Derive a child seed from a parent seed and an integer label.

    Fixed formula (documented so streams are reproducible everywhere):
    ``mix64(((parent ^ mix64(data + GOLDEN)) + GOLDEN) mod 2**64)``.
    """
    inner = mix64((data + GOLDEN) & MASK64)
    return mix64(((parent & MASK64) ^ inner) + GOLDEN & MASK64)


def _mix64_head_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """All but the last step of the SplitMix64 finaliser, run in place on
    an owned, at least 1-d uint64 array; returns ``z``.  The shifts go
    into ``scratch``, an array of z's shape, when one is given.

    The last step, ``z ^= z >> 31``, is linear over XOR (a logical shift
    of an XOR is the XOR of the shifts), so a caller that XORs finalised
    words together may run it once on their XOR instead.
    """
    z ^= np.right_shift(z, _U30, out=scratch)
    z *= _U_M1
    z ^= np.right_shift(z, _U27, out=scratch)
    z *= _U_M2
    return z


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser run in place on an owned, at least 1-d uint64
    array; returns ``z``."""
    _mix64_head_inplace(z)
    z ^= z >> _U31
    return z


def np_fold(parent: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Vectorised :func:`fold`; broadcasts parent against data."""
    parent = np.asarray(parent, dtype=np.uint64)
    data = np.asarray(data, dtype=np.uint64)
    scalar = parent.ndim == 0 and data.ndim == 0
    inner = _mix64_inplace(np.atleast_1d(data) + _U_GOLDEN)
    out = parent ^ inner
    out += _U_GOLDEN
    _mix64_inplace(out)
    return out[0] if scalar else out


def stream_words(seeds: int | np.ndarray, n: int) -> np.ndarray:
    """First ``n`` raw 64-bit words of the stream rooted at each of
    ``seeds``, one seed or an array of them: shape
    ``np.shape(seeds) + (n,)``, row ``i`` the stream of ``seeds[i]``."""
    counters = np.arange(1, n + 1, dtype=np.uint64)
    counters *= _U_GOLDEN
    return _mix64_inplace(np.add(np.asarray(seeds, dtype=np.uint64)[..., None], counters))
