"""Golden-trace gate: short runs must reproduce recorded trace digests.

Each case runs ``bench.run_experiment`` on a small Ackley problem and
hashes every repeat's trace CSV with the ``wall_ms`` column stripped,
together with its status.  The matrix covers every estimator kind under
every direction law, with and without observation noise, plus a k = 1
history run that goes through the zero-gradient warm-up step.  Any
change to seed derivation, direction generation, evaluation, the
estimators, the history ring or the update rules shows up here as a
digest mismatch.
"""

import hashlib

import pytest

from zoar import bench
from zoar.bench import RunConfig, Theta0Spec
from zoar.estimators import EstimatorConfig
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import EstimatorKind, OptimizerConfig, UpdateRule
from zoar.sampling import DistTag

# Recorded before the history ring moved to plain arrays.  Re-record (print
# run_case for every name in CASES) only for a change meant to alter bits.
GOLDEN = {
    "vanilla-coordinate-sigma0.0":
        "1eb5bcf2031f9f753f180ce6b32a34b3002a7ba1e636554b124d4587a7d11445",
    "vanilla-coordinate-sigma0.1":
        "88279b8da811d4a1de6976be717e1c909eb1cd5d3c79d7d3801324fe79298e21",
    "vanilla-gaussian-sigma0.0":
        "e1ce10f5029343b898f6eb6a1911f34b5ccad85493bf4947c7b53ca86ad7dad7",
    "vanilla-gaussian-sigma0.1":
        "890473e3ca14ac0ca3eb3ffca2d325696c64a8e6d7283f90a80c5c7079e46d5b",
    "vanilla-sphere-adamm":
        "c3431b8f9d6920260f8364971120e82953f5c792122b08e362142e954b61f55d",
    "vanilla-sphere-sigma0.0":
        "939771de2d64611566eb844207c32945352c6506a5d94e3383b3688d8a0861e3",
    "vanilla-sphere-sigma0.1":
        "66067c00ba44ba57970150e02c42f9dcc81dd60548692d1920bfe93738aac0a7",
    "zoar-coordinate-sigma0.0":
        "e24dae234444fbe215450d96fde9190ae017b9885b7e1f0483a632cea34a3b71",
    "zoar-coordinate-sigma0.1":
        "b18f538a1a07a27caa88dc711ffec0d7b995dbb7b2ee9c4534a0a48f95be6178",
    "zoar-gaussian-k1-sgd":
        "146c18feaf106ecd0b9f0aa777cf29451a24dc963c4fb3422bbb4f0cbdf55e69",
    "zoar-gaussian-sigma0.0":
        "87cc9dac2085d0ddc0174244ffc1b5a4d1ed1a5fc4aaf1507360c433b4ad9dba",
    "zoar-gaussian-sigma0.1":
        "75cda28d39e6a664a3b4fe80cf1257605acb9d5cb528a8dc2a32cf59163759cd",
    "zoar-sphere-sigma0.0":
        "7a208e98d8a89402da744bbc92830e49b8f392e3b12a739a096cd570c8928e52",
    "zoar-sphere-sigma0.1":
        "ea5d0c539fdc795b91f6050cc44cab7ce51f2f5c287f8d9e56dc3bcb99b6284a",
    "zohs-coordinate-sigma0.0":
        "c9106a594e102e377c896744c4c9b814f740140d4d679c3d5c7de7e7d86f45e4",
    "zohs-coordinate-sigma0.1":
        "11be1955735ebb8ef1b1d7dd0a35b7cf75f5aa394cc0ad3c2465fd3528128947",
    "zohs-gaussian-sigma0.0":
        "dc7236ed591593252caed70b4151921b99cb0c5c5ebfe9c6f488f36633879924",
    "zohs-gaussian-sigma0.1":
        "3f0d8f0acdce6d5dc4fb03bc8e312d6b593f91898647e82d09d3e1eca2de0213",
    "zohs-sphere-sigma0.0":
        "fb91cbd2fe31c205bcbb63cfa55c1a698577591b891de583233b19b4d0e759eb",
    "zohs-sphere-sigma0.1":
        "d2d583999e8cdd44cd8d4c9c36982ecadcee0ef3d25c92724ce8d66a473c9f36",
}


def _cases():
    cases = {}
    for kind in EstimatorKind:
        for tag in DistTag:
            for sigma in (0.0, 0.1):
                name = f"{kind.value}-{tag.name.lower()}-sigma{sigma}"
                cases[name] = (kind, tag, sigma, 3, UpdateRule.RADAZO)
    cases["zoar-gaussian-k1-sgd"] = (EstimatorKind.ZOAR, DistTag.GAUSSIAN, 0.1, 1,
                                     UpdateRule.SGD)
    cases["vanilla-sphere-adamm"] = (EstimatorKind.VANILLA, DistTag.SPHERE, 0.0, 3,
                                     UpdateRule.ADAMM)
    return cases


CASES = _cases()


def trace_digest(traces, tmp_path) -> str:
    h = hashlib.sha256()
    for i, trace in enumerate(traces):
        path = tmp_path / f"trace_r{i}.csv"
        bench.write_trace_csv(trace, path)
        for line in path.read_text().splitlines():
            h.update(line.rsplit(",", 1)[0].encode() + b"\n")
        h.update(f"{trace.status},{trace.diverged_at}\n".encode())
    return h.hexdigest()


def run_case(name, tmp_path) -> str:
    kind, tag, sigma, k, rule = CASES[name]
    cfg = RunConfig(
        objective=ObjectiveSpec(ObjectiveKind.ACKLEY, 6, noise_sigma=sigma),
        estimator_kind=kind,
        estimator=EstimatorConfig(mu=0.05, k=k, n=3, tag=tag),
        optimizer=OptimizerConfig(rule=rule, eta=0.01),
        iterations=25, repeats=2, master_seed=20250617,
        theta0=Theta0Spec(lo=-1.0, hi=1.0))
    return trace_digest(bench.run_experiment(cfg), tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
