"""Pure NumPy kernels: the written spec of the bit contract.

Directions are generated with bit-pinned floating point, so results are
stable across machines:

* raw words      ``mix64(seed + (j+1)*GOLDEN)`` (see :mod:`.bits`)
* open (0,1)     ``((word >> 12)*2 + 1) * 2**-53``  (odd numerator, never 0 or 1/2)
* standard normal: rational inverse-CDF approximation (Acklam's
  coefficients, |rel err| < 1.2e-9), every step an IEEE-754
  add/sub/mul/div/sqrt in this order:

  - P_LOW <= p <= 1 - P_LOW: ``q = p - 0.5``, ``r = q*q``, then
    ``(((((A0*r + A1)*r + A2)*r + A3)*r + A4)*r + A5)*q``
    ``/ (((((B0*r + B1)*r + B2)*r + B3)*r + B4)*r + 1)``;
  - p < P_LOW: ``q = sqrt(-2*log(p))``, then
    ``(((((C0*q + C1)*q + C2)*q + C3)*q + C4)*q + C5)``
    ``/ ((((D0*q + D1)*q + D2)*q + D3)*q + 1)``, with the logarithm
    evaluated by a fixed fdlibm-style polynomial (:func:`log_unit`)
    instead of libm;
  - p > 1 - P_LOW: minus the p < P_LOW value at ``1 - p``, which is
    exact for p > 1/2.
* gaussian direction: ``dim`` normals from the seed's stream
* sphere direction:   gaussian direction divided by the square root of
  the *sequential* sum of squared entries (left to right)
* coordinate direction: ``e[word_0 mod dim]``

The spec is the sequence of IEEE operations each entry gets, as written
above.  The code runs that sequence in place: it allocates each working
array once and updates it with ``+=``, ``*=`` and friends, which gives
every entry the same operations in the same order as the plain
expressions.  The central rational is evaluated on every entry and then
overwritten in the tails; its denominator has no root for
r = (p - 1/2)**2 in [0, 1/4] (its minimum there is about 1.1e-4), so
that spare work cannot raise a floating-point error.

``materialize_block`` has a compiled twin in ``_ckern.c`` that performs
the same operations in the same order and must return the same bits;
every other surface exists only here.
"""

import numpy as np

from .bits import GOLDEN, _mix64_inplace, np_mix64, stream_words

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


def _horner(x: np.ndarray, coeffs: tuple, out: np.ndarray) -> np.ndarray:
    """``(..((c0*x + c1)*x + c2)..)*x + c_last`` written into ``out``."""
    np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def _tail_quantile(p: np.ndarray) -> np.ndarray:
    # lower-tail branch of the rational approximation (p < P_LOW):
    # q = sqrt(-2*log(p)), then C(q) / D(q) by Horner, D's last term 1
    q = log_unit(p)
    q *= -2.0
    np.sqrt(q, out=q)
    num = _horner(q, _C, np.empty_like(q))
    num /= _horner(q, _D + (1.0,), np.empty_like(q))
    return num


def _normal_icdf_inplace(p: np.ndarray) -> np.ndarray:
    """:func:`normal_icdf` of an owned float64 array, which it overwrites."""
    tail = np.flatnonzero((p < _P_LOW) | (p > _P_HIGH))
    pt = p.take(tail)
    tq = _tail_quantile(np.minimum(pt, 1.0 - pt))
    np.negative(tq, out=tq, where=pt > 0.5)
    # central branch on every entry: q = p - 1/2, r = q*q,
    # A(r)*q / B(r) by Horner, B's last term 1; B(r) goes into q's buffer
    # once q is spent
    q = p
    q -= 0.5
    r = q * q
    out = _horner(r, _A, np.empty_like(r))
    out *= q
    out /= _horner(r, _B + (1.0,), q)
    out.put(tail, tq)
    return out


def normal_icdf(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    return _normal_icdf_inplace(np.array(p, dtype=np.float64))


def _words_to_open01(words: np.ndarray) -> np.ndarray:
    """Open (0, 1) doubles of an owned uint64 array, which it overwrites."""
    words >>= 12
    words *= 2
    words += 1
    p = words.astype(np.float64)
    p *= _TWO_NEG53
    return p


def uniform_doubles(seed: int, n: int) -> np.ndarray:
    """n uniform draws in [0, 1) from the stream rooted at seed."""
    words = stream_words(seed, n)
    words >>= 11
    p = words.astype(np.float64)
    p *= _TWO_NEG53
    return p


def _block_words(seeds: np.ndarray, n: int) -> np.ndarray:
    counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    return _mix64_inplace(seeds[:, None] + counters[None, :])


def _sequential_row_sums_of_squares(g: np.ndarray) -> np.ndarray:
    """Per row, ``g[i,0]**2 + g[i,1]**2 + ...`` added strictly left to right."""
    rows, dim = g.shape
    if rows >= dim:
        acc = g[:, 0] * g[:, 0]
        sq = np.empty_like(acc)
        for j in range(1, dim):
            acc += np.multiply(g[:, j], g[:, j], out=sq)
        return acc
    sq = g * g
    return np.cumsum(sq, axis=1, out=sq)[:, -1]


def materialize_block(seeds: np.ndarray, tag: int, dim: int) -> np.ndarray:
    """Materialise one direction per seed; returns shape (len(seeds), dim)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    if tag == COORDINATE:
        first = np_mix64(seeds + np.uint64(GOLDEN))
        idx = (first % np.uint64(dim)).astype(np.intp)
        out = np.zeros((seeds.shape[0], dim))
        out[np.arange(seeds.shape[0]), idx] = 1.0
        return out
    g = _normal_icdf_inplace(_words_to_open01(_block_words(seeds, dim)))
    if tag == SPHERE:
        nrm = np.sqrt(_sequential_row_sums_of_squares(g))
        g /= nrm[:, None]
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
