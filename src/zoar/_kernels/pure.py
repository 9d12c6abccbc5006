"""Pure NumPy kernels: the written spec of the bit contract.

Directions are generated with bit-pinned floating point, so results are
stable across machines:

* raw words      ``mix64(seed + (j+1)*GOLDEN)`` (see :mod:`.bits`)
* open (0,1)     ``((word >> 12)*2 + 1) * 2**-53``  (odd numerator, never 0 or 1/2)
* standard normal: rational inverse-CDF approximation (Acklam's
  coefficients, |rel err| < 1.2e-9); the tail branches need a logarithm,
  which is evaluated by a fixed fdlibm-style polynomial instead of libm
  so every operation is an IEEE-754 add/sub/mul/div/sqrt in a fixed
  order.
* gaussian direction: ``dim`` normals from the seed's stream
* sphere direction:   gaussian direction divided by the square root of
  the *sequential* sum of squared entries (cumsum order)
* coordinate direction: ``e[word_0 mod dim]``

``materialize_block`` has a compiled twin in ``_ckern.c`` that performs
the same operations in the same order and must return the same bits;
every other surface exists only here.
"""

import numpy as np

from .bits import GOLDEN, np_mix64, stream_words

_TWO_NEG53 = 1.0 / 9007199254740992.0
_SQRT_HALF = 0.70710678118654752440

# fdlibm log constants
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG1 = 6.666666666666735130e-01
_LG2 = 3.999999999940941908e-01
_LG3 = 2.857142874366239149e-01
_LG4 = 2.222219843214978396e-01
_LG5 = 1.818357216161805012e-01
_LG6 = 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01

# Acklam inverse normal CDF coefficients
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW

GAUSSIAN, SPHERE, COORDINATE = 0, 1, 2


def log_unit(x: np.ndarray) -> np.ndarray:
    """Pinned natural log for x in (0, 1); fdlibm reduction + polynomial."""
    x = np.asarray(x, dtype=np.float64)
    m, e = np.frexp(x)
    small = m < _SQRT_HALF
    m = np.where(small, m * 2.0, m)
    k = (e - small.astype(e.dtype)).astype(np.float64)
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    r = t1 + t2
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def _tail_quantile(p: np.ndarray) -> np.ndarray:
    # lower-tail branch of the rational approximation (p < P_LOW)
    q = np.sqrt(-2.0 * log_unit(p))
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    return num / den


def normal_icdf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    lo = p < _P_LOW
    hi = p > _P_HIGH
    q = np.where(lo | hi, 0.0, p - 0.5)
    r = q * q
    num = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
    den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    out = num / den
    if np.any(lo):
        out[lo] = _tail_quantile(p[lo])
    if np.any(hi):
        out[hi] = -_tail_quantile(1.0 - p[hi])
    return out


def _words_to_open01(words: np.ndarray) -> np.ndarray:
    odd = (words >> np.uint64(12)) * np.uint64(2) + np.uint64(1)
    return odd.astype(np.float64) * _TWO_NEG53


def standard_normals(seed: int, n: int) -> np.ndarray:
    """n i.i.d. standard normal draws from the stream rooted at seed."""
    return normal_icdf(_words_to_open01(stream_words(seed, n)))


def uniform_doubles(seed: int, n: int) -> np.ndarray:
    """n uniform draws in [0, 1) from the stream rooted at seed."""
    words = stream_words(seed, n)
    return (words >> np.uint64(11)).astype(np.float64) * _TWO_NEG53


def _block_words(seeds: np.ndarray, n: int) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    return np_mix64(seeds[:, None] + counters[None, :])


def materialize_block(seeds: np.ndarray, tag: int, dim: int) -> np.ndarray:
    """Materialise one direction per seed; returns shape (len(seeds), dim)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if tag == COORDINATE:
        first = np_mix64(seeds + np.uint64(GOLDEN))
        idx = (first % np.uint64(dim)).astype(np.intp)
        out = np.zeros((seeds.shape[0], dim))
        out[np.arange(seeds.shape[0]), idx] = 1.0
        return out
    g = normal_icdf(_words_to_open01(_block_words(seeds, dim)))
    if tag == SPHERE:
        nrm = np.sqrt(np.cumsum(g * g, axis=1)[:, -1])
        g = g / nrm[:, None]
    return g


def materialize(seed: int, tag: int, dim: int) -> np.ndarray:
    return materialize_block(np.array([seed], dtype=np.uint64), tag, dim)[0]


def weighted_direction_sum(seeds: np.ndarray, tag: int, dim: int,
                           coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * direction(seeds[j]), accumulated in j order."""
    dirs = materialize_block(seeds, tag, dim)
    out = np.zeros(dim)
    for j in range(dirs.shape[0]):
        out += coeffs[j] * dirs[j]
    return out
