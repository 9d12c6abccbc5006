"""The benchmark's workloads, generated from the workload seed.

Nothing here reads ``configs/*.cfg``: an edit to a committed config must
not shift the benchmark.  A seed selects one of ``VARIANTS`` input sets
(``seed mod VARIANTS``), each with its own derived master seed, so that
every run can be checked against committed reference digests.
"""

import hashlib
from dataclasses import dataclass

VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # sweep workloads: config template with a {master_seed} field
    config: str = ""

    @property
    def is_sweep(self) -> bool:
        return bool(self.config)

    def variant(self, seed: int) -> int:
        return seed % VARIANTS

    def variant_seed(self, variant: int) -> int:
        blob = f"zoar-perfbench/{self.name}/{variant}".encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") >> 1

    def argv(self, variant: int, config_path, out_dir) -> list[str]:
        """Arguments for ``zoar.cli.main``; ``--threads`` stays at its default."""
        if self.is_sweep:
            return ["sweep", str(config_path), "--out", str(out_dir)]
        return ["verify", "all", "--seed", str(self.variant_seed(variant)),
                "--out", str(out_dir / "report.json")]

    def config_text(self, variant: int) -> str:
        return self.config.format(master_seed=self.variant_seed(variant))


# Shape of configs/sweep_desk.cfg, shortened to 100 iterations per repeat.
DESK = Workload(
    name="desk",
    why=("at small d the step is bound by Python overhead: seed folds, per-query "
         "objects, the noise path, GIL contention between repeat threads and the "
         "sweep's re-read of every trace dominate"),
    config="""\
[objective]
kind = quadratic
dim = 100
noise_sigma = 0.05

[estimator]
kind = [vanilla, zoar]
tag = gaussian
mu = 0.05
k = 10
n = [1, 6]

[optimizer]
rule = radazo
eta = 0.001

[run]
iterations = 100
repeats = 5
master_seed = {master_seed}
theta0_mode = uniform
theta0_lo = -0.5
theta0_hi = 0.5
""")

# Shape of configs/quadratic_full.cfg, shortened to 20 iterations and 2 repeats.
WIDE = Workload(
    name="wide",
    why=("at d=10^4 the run is bound by _kernels (direction materialisation and "
         "weighted_direction_sum); NumPy releases the GIL, so repeat threads "
         "overlap here where they contend on desk"),
    config="""\
[objective]
kind = quadratic
dim = 10000
noise_sigma = 0

[estimator]
kind = [vanilla, zoar]
tag = gaussian
mu = 0.05
k = 10
n = 6

[optimizer]
rule = radazo
eta = 0.001

[run]
iterations = 20
repeats = 2
master_seed = {master_seed}
theta0_mode = uniform
theta0_lo = -2
theta0_hi = 2
""")

VERIFY = Workload(
    name="verify",
    why=("batched Monte-Carlo over _kernels and all four objectives that bypasses "
         "the optimisation loop, history buffer, update rules, thread pool and "
         "trace output"),
)

WORKLOADS = {w.name: w for w in (DESK, WIDE, VERIFY)}
