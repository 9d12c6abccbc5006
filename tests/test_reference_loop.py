"""The optimisation loop against a plain reference spelling of the paper's
algorithm.

The reference runs one run at a time and one query at a time, in Python
floats with ``math.fsum`` for every sum.  It takes its seeds from the
scalar ``sampling.direction_seed``/``noise_seed``, its directions from
``kernels.materialize`` and its values from ``objectives.eval`` on one
point, and imports nothing from ``estimators`` or ``optimizers``: no
lockstep rows, evaluation batches, ring slots or shared reduction.  The
estimators are written as the paper states them: finite differences with
the centre as baseline, ZoAR's averaged baseline over the n*k newest
queries with the factor 1/(|H| - 1), and ZOHS as the mean of the last n
estimates.  The update rules are written elementwise.

Every clean value must match ``run_optimization``'s to a relative 1e-9,
and the iteration of divergence and the last row's ``queries_cum`` must
equal the reference's.  The configs are noise-free: observation noise is
keyed on the point's bits, which the two spellings round differently.
Each mutant below is a plausible slip in the loop, and each must fail at
least one config.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from zoar import _kernels as kernels
from zoar import bench, estimators, objectives, optimizers, sampling
from zoar.estimators import EstimatorConfig, HistoryBuffer
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import Arm, EstimatorKind, OptimizerConfig, UpdateRule, run_optimization
from zoar.sampling import DistTag

D, K, N, T, MU, ETA = 6, 3, 3, 25, 0.05, 0.01
B1, B2, ZETA = 0.9, 0.999, 1e-8
RUN_SEED = 2**64 - 59
LIMIT = 1e12  # a run stops after the first value past it
REL = 1e-9

# (objective, estimator, law, rule, eta, theta0 range); zoar and the
# sphere law first, where every mutant shows
CASES = [(obj, kind, tag, rule, ETA, 1.0)
         for kind, tag, obj, rule in itertools.product(
             ("zoar", "zohs", "vanilla"), (DistTag.SPHERE, DistTag.GAUSSIAN, DistTag.COORDINATE),
             (ObjectiveKind.QUADRATIC, ObjectiveKind.ACKLEY), ("sgd", "adamm", "radazo"))]
# plain SGD on Rosenbrock from far out: the run diverges within a few steps
DIVERGING = (ObjectiveKind.ROSENBROCK, "vanilla", DistTag.GAUSSIAN, "sgd", 1e-3, 2.0)
ALL = CASES + [DIVERGING]


def _name(case):
    obj, kind, tag, rule, _, _ = case
    return f"{obj.value}-{kind}-{tag.name.lower()}-{rule}"


def _theta0(scale):
    return scale * (2.0 * kernels.uniform_doubles(7, D) - 1.0)


@lru_cache(maxsize=None)
def reference(case):
    """(clean values, evaluations) of one run, spelled plainly."""
    obj, kind, tag, rule, eta, scale = case
    spec = ObjectiveSpec(obj, D)
    factor = D if tag is DistTag.SPHERE else 1  # sphere directions have E[uu'] = I/d

    def value(point, noise):
        return objectives.eval(spec, np.array(point), noise)

    def clean(point):
        if not all(math.isfinite(x) for x in point):
            return math.inf
        return objectives.clean_value(spec, np.array(point))

    theta = _theta0(scale).tolist()
    m, v = [0.0] * D, [0.0] * D
    window, history = [], []  # ZOHS's last n estimates; ZoAR's (u, y) queries
    f, evaluations = [clean(theta)], 0
    for t in range(1, T + 1):
        if not abs(f[-1]) <= LIMIT:
            break
        noise = sampling.noise_seed(RUN_SEED, t)
        us = [kernels.materialize(sampling.direction_seed(RUN_SEED, t, j), tag, D).tolist()
              for j in range(1, K + 1)]
        ys = [value([x + MU * u_i for x, u_i in zip(theta, u)], noise) for u in us]
        evaluations += K
        if kind == "zoar":
            history = (history + list(zip(us, ys)))[-N * K:]
            b = math.fsum(y for _, y in history) / len(history)
            g = [factor / (len(history) - 1) * math.fsum((y - b) / MU * u[i] for u, y in history)
                 for i in range(D)]
        else:
            y0 = value(theta, noise)
            evaluations += 1
            g = [factor / K * math.fsum((y - y0) / MU * u[i] for u, y in zip(us, ys))
                 for i in range(D)]
            if kind == "zohs":
                window = (window + [g])[-N:]
                g = [math.fsum(w[i] for w in window) / len(window) for i in range(D)]
        for i in range(D):
            if rule == "sgd":
                theta[i] -= eta * g[i]
                continue
            m[i] = B1 * m[i] + (1.0 - B1) * g[i]
            if rule == "adamm":  # with bias correction
                v[i] = B2 * v[i] + (1.0 - B2) * g[i] * g[i]
                m_hat, v_hat = m[i] / (1.0 - B1 ** t), v[i] / (1.0 - B2 ** t)
            else:  # radazo: the second moment tracks the squared first moment
                v[i] = B2 * v[i] + (1.0 - B2) * m[i] * m[i]
                m_hat, v_hat = m[i], v[i]
            theta[i] -= eta * m_hat / math.sqrt(v_hat + ZETA)
        f.append(clean(theta))
    return f, evaluations


def mismatch(case, tmp_path) -> str | None:
    """How the loop's run of ``case`` differs from the reference, if it does."""
    obj, kind, tag, rule, eta, scale = case
    opt = OptimizerConfig(rule=UpdateRule(rule), eta=eta, beta1=B1, beta2=B2, zeta=ZETA,
                          bias_correction=rule == "adamm")
    arm = Arm(ObjectiveSpec(obj, D), EstimatorKind(kind),
              EstimatorConfig(mu=MU, k=K, n=N, tag=tag), opt, _theta0(scale)[None])
    [[trace]] = run_optimization([arm], T, [RUN_SEED])
    f_ref, evaluations = reference(case)
    f = trace.f_clean.tolist()
    if len(f) != len(f_ref):
        return f"{len(f)} rows, reference {len(f_ref)}"
    for t, (a, b) in enumerate(zip(f, f_ref)):
        if not math.isclose(a, b, rel_tol=REL):
            return f"iteration {t}: {a!r}, reference {b!r}"
    ref_diverged = len(f_ref) - 1 if not abs(f_ref[-1]) <= LIMIT else None
    if trace.diverged_at != ref_diverged:
        return f"diverged at {trace.diverged_at}, reference {ref_diverged}"
    path = tmp_path / f"{_name(case)}.csv"
    bench.write_trace_csv(trace, path)
    queries = int(path.read_text().splitlines()[-1].split(",")[1])
    if queries != evaluations:
        return f"last queries_cum {queries}, reference evaluations {evaluations}"
    return None


def test_diverging_case_diverges_mid_run():
    assert LIMIT == optimizers.DIVERGENCE_LIMIT
    f, _ = reference(DIVERGING)
    assert 5 < len(f) - 1 < T and not abs(f[-1]) <= LIMIT


@pytest.mark.parametrize("case", ALL, ids=[_name(c) for c in ALL])
def test_loop_matches_reference(case, tmp_path):
    assert mismatch(case, tmp_path) is None


# ---------------------------------------------------------------------------
# mutant gate: each slip must make the loop leave the reference somewhere

def _flipped_sign(monkeypatch):
    real = estimators.difference_gradient
    monkeypatch.setattr(estimators, "difference_gradient",
                        lambda values, dirs, cfg, gamma=None: -real(values, dirs, cfg, gamma))


def _zero_baseline(monkeypatch):
    def estimate(ring, mu):
        grad = estimators._weighted_sum(ring.values / mu, ring.spans())
        return grad * estimators.direction_scale(ring.tag, ring.dim) / (len(ring) - 1)

    monkeypatch.setattr(estimators, "zoar_estimate", estimate)


def _full_count(monkeypatch):
    real = estimators.zoar_estimate
    monkeypatch.setattr(estimators, "zoar_estimate",
                        lambda ring, mu: real(ring, mu) * (len(ring) - 1) / len(ring))


def _no_sphere_factor(monkeypatch):
    monkeypatch.setattr(estimators, "direction_scale", lambda tag, dim: 1.0)


def _ring_overwrites_newest(monkeypatch):
    real = HistoryBuffer.push_block

    def push_block(self, dirs, values):
        if len(self) == N * K:  # full: write over the newest block, not the oldest
            self._next = (self._next - 1) % self.depth
        real(self, dirs, values)

    monkeypatch.setattr(HistoryBuffer, "push_block", push_block)


def _half_radius(monkeypatch):
    real = estimators.write_points
    monkeypatch.setattr(estimators, "write_points",
                        lambda out, theta, mu, dirs, centre=False:
                        real(out, theta, mu / 2, dirs, centre))


MUTANTS = [_flipped_sign, _zero_baseline, _full_count, _no_sphere_factor,
           _ring_overwrites_newest, _half_radius]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.__name__.lstrip("_") for m in MUTANTS])
def test_reference_catches_mutant(monkeypatch, tmp_path, mutant):
    mutant(monkeypatch)
    with np.errstate(all="ignore"):  # a mutant may blow a run up
        assert any(mismatch(case, tmp_path) for case in ALL)
