"""Synthetic benchmark functions with an optional stochastic noise channel.

All four functions attain their minimum value of exactly zero (Quadratic
and Ackley at the origin, Levy and Rosenbrock at the all-ones point).
Evaluations accept a single point (shape ``(d,)``) or a batch
(shape ``(n, d)``); reductions run over the last axis.

Observation noise models the stochastic evaluation channel: with
``noise_sigma > 0``, ``eval`` adds one Gaussian draw scaled by sigma.
The draw is keyed on the noise seed *and* the bit pattern of the
evaluation point, so a fixed ``(theta, noise_seed)`` pair always returns
the same value while distinct evaluation points under a shared
per-iteration seed receive independent noise.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from . import sampling


class ObjectiveKind(enum.Enum):
    ACKLEY = "ackley"
    LEVY = "levy"
    QUADRATIC = "quadratic"
    ROSENBROCK = "rosenbrock"

    @classmethod
    def parse(cls, name: str) -> "ObjectiveKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown objective kind: {name!r}") from None


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: ObjectiveKind
    dim: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int):
            raise ValueError(f"dimension must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.kind in (ObjectiveKind.LEVY, ObjectiveKind.ROSENBROCK) and self.dim < 2:
            raise ValueError(f"{self.kind.value} requires dimension >= 2")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise ValueError(f"noise_sigma must be finite and nonnegative, "
                             f"got {self.noise_sigma}")


def _ackley(theta: np.ndarray) -> np.ndarray:
    d = theta.shape[-1]
    rms = np.sqrt(np.sum(theta * theta, axis=-1) / d)
    cos_term = np.mean(np.cos(2.0 * np.pi * theta), axis=-1)
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_term) + 20.0 + np.e


def _levy(theta: np.ndarray) -> np.ndarray:
    # squares are written x*x: ``**2`` on a 0-d value goes through pow,
    # which can round differently from the array path's square, so a lone
    # point would not match its row in a batch
    w = 1.0 + (theta - 1.0) / 4.0
    s0 = np.sin(np.pi * w[..., 0])
    head = s0 * s0
    wi = w[..., :-1]
    si = np.sin(np.pi * wi + 1.0)
    mid = np.sum((wi - 1.0) * (wi - 1.0) * (1.0 + 10.0 * (si * si)), axis=-1)
    wl = w[..., -1]
    sl = np.sin(2.0 * np.pi * wl)
    tail = (wl - 1.0) * (wl - 1.0) * (1.0 + sl * sl)
    return head + mid + tail


def _quadratic(theta: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(theta * theta, axis=-1)


def _rosenbrock(theta: np.ndarray) -> np.ndarray:
    a = theta[..., :-1]
    b = theta[..., 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=-1)


_FORMULAS = {
    ObjectiveKind.ACKLEY: _ackley,
    ObjectiveKind.LEVY: _levy,
    ObjectiveKind.QUADRATIC: _quadratic,
    ObjectiveKind.ROSENBROCK: _rosenbrock,
}


def _validated(spec: ObjectiveSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim == 0:
        raise ValueError("an evaluation point needs at least one axis, got a scalar")
    if theta.shape[-1] != spec.dim:
        raise ValueError(f"expected dimension {spec.dim}, got {theta.shape[-1]}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("evaluation point contains non-finite entries")
    return theta


def clean_value(spec: ObjectiveSpec, theta):
    """Noise-free objective value; scalar for 1-D input, array for a batch."""
    theta = _validated(spec, theta)
    out = _FORMULAS[spec.kind](theta)
    return float(out) if out.ndim == 0 else out


def eval(spec: ObjectiveSpec, theta, noise_seed=0):
    """One stochastic black-box evaluation, deterministic in (theta, noise_seed).

    ``noise_seed`` is one seed for every point, or an array of seeds whose
    shape matches the leading axes of the batch: with points of shape
    (R, k, d) and seeds of shape (R,), row r is keyed on seed r, so
    ``eval(points, seeds)[r]`` is ``eval(points[r], seeds[r])`` bit for bit.
    """
    theta = _validated(spec, theta)
    if np.shape(noise_seed) != theta.shape[:-1][:np.ndim(noise_seed)]:
        raise ValueError(f"noise seeds of shape {np.shape(noise_seed)} do not match "
                         f"points of shape {theta.shape}")
    value = _FORMULAS[spec.kind](theta)
    if spec.noise_sigma > 0.0:
        digests = np.atleast_1d(sampling.point_digest(theta))
        seeds = np.asarray(noise_seed, dtype=np.uint64)
        seeds = seeds.reshape(seeds.shape + (1,) * (digests.ndim - seeds.ndim))
        point_seeds = kernels.np_fold(seeds, digests).reshape(-1)
        z = kernels.materialize_block(point_seeds, kernels.GAUSSIAN, 1)
        value = value + spec.noise_sigma * z.reshape(value.shape)
    return float(value) if value.ndim == 0 else value


def grad_oracle(spec: ObjectiveSpec, theta) -> np.ndarray:
    """Gradient of the clean function: analytic for Quadratic, central
    finite differences (h = 1e-5) per coordinate otherwise."""
    theta = sampling.as_params(theta, spec.dim)
    if spec.kind is ObjectiveKind.QUADRATIC:
        return theta.copy()
    h = 1e-5
    d = spec.dim
    plus = np.repeat(theta[None, :], d, axis=0)
    minus = plus.copy()
    plus[np.arange(d), np.arange(d)] += h
    minus[np.arange(d), np.arange(d)] -= h
    return (clean_value(spec, plus) - clean_value(spec, minus)) / (2.0 * h)
