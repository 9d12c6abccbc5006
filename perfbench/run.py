"""zoar benchmark: end-to-end metrics per workload, or a traced run per layer.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 1
    python3 perfbench/run.py --record      # rewrite references.json

Run from the root of a source checkout; nothing is built or installed, the
program is imported from ``src/``.  Each run drives ``zoar.cli.main`` in
process, as a user does, with ``--threads`` left at its default.

``--trace 0`` reports, with tracing off:
  setup_s      median wall time of fresh interpreters that import zoar.cli
               and parse/build the workload's config
  wall_s       median wall time of one cli.main call, outputs on disk,
               after one untimed warm-up call
  iters_per_s  median work per wall second: optimisation iterations summed
               over every cell and repeat, or on ``verify`` Monte-Carlo
               trials summed over every check
  peak_rss_mb  peak RSS of a fresh process that runs the workload once

``--trace 1`` alternates untraced and traced calls and reports per-layer
calls, self time and work counts (medians over the traced calls), the
per-cell ms per iteration, CPU seconds per wall second of the untraced
calls, and ``trace.overhead`` = traced wall / untraced wall.

Every call's outputs are checked against ``references.json``; each trace
(cell x repeat) or verify check is one operation.  The last line of stdout
is the JSON result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import outputs
import tracer
from workloads import VARIANTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"
SPAWN = HERE / "spawn.py"
SETUP_SPAWNS = 15
MIN_TIMED_CALLS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MiB"}


def git_rev() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """Digest of the program's sources, which identifies it without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.suffix in (".py", ".pyx") and p.is_file():
            h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload, seed: int, variant: int, trace: bool) -> dict:
    import numpy
    import zoar

    cpus = os.cpu_count()
    affinity = len(os.sched_getaffinity(0))
    return {
        "workload": workload.name, "seed": seed, "variant": variant,
        "variant_seed": workload.variant_seed(variant), "trace": trace,
        "kernel_backend": zoar.KERNEL_BACKEND, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_rev": git_rev(), "src_sha256": src_digest(),
        "cpu_count": cpus, "sched_affinity": affinity,
        # cli's default --threads is cpu_count; above the usable cores,
        # desk's repeat threads would measure the scheduler
        "oversubscribed": cpus is not None and cpus > affinity,
    }


class Runner:
    """Runs one workload variant in process and checks every call's outputs."""

    def __init__(self, workload, variant: int, reference: dict | None):
        self.workload = workload
        self.variant = variant
        self.reference = reference
        self.config = WORK / "workload.cfg"
        if workload.is_sweep:
            self.config.write_text(workload.config_text(variant))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, out_dir: Path) -> list[str]:
        return self.workload.argv(self.variant, self.config, out_dir)

    def call(self, out_dir: Path, trace: tracer.Tracer | None = None):
        """One cli.main call; returns (rc, wall_s, cpu_s)."""
        from zoar import cli

        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = self.argv(out_dir)
        gc.collect()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if trace is not None:
                stack.enter_context(trace)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return rc, wall, cpu

    def check(self, out_dir: Path, rc: int) -> int:
        """Count the call's operations; returns its work (iterations or trials)."""
        if self.workload.is_sweep:
            files = self.reference["files"]
            attempted, failed, problems = outputs.sweep_failures(
                files, outputs.collect(out_dir), rc)
            work = outputs.completed_iterations(out_dir, files)
        else:
            attempted, failed, problems, work = outputs.verify_failures(
                self.reference, out_dir / "report.json", rc)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        return work

    def check_points(self, out_dir: Path, layers: dict) -> None:
        """objectives.eval must have seen exactly the queries the traces count."""
        if not self.workload.is_sweep:
            return
        files = self.reference["files"]
        queries = outputs.final_queries(out_dir, files)
        if layers.get("objectives.eval.points", 0) != queries:
            n_ops = sum(1 for p in files if outputs.is_trace(p))
            self.failed = min(self.attempted, self.failed + n_ops)
            self.problems.append(f"objectives.eval.points {layers.get('objectives.eval.points')}"
                                 f" != final queries_cum sum {queries}")


def spawn(mode: str, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SPAWN), mode, *argv], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)


def spawn_setup(runner: Runner) -> float:
    """Wall time of one fresh interpreter that sets the workload up."""
    t0 = time.perf_counter()
    spawn("setup", runner.argv(WORK / "setup"))
    return time.perf_counter() - t0


def measure_rss(runner: Runner) -> float:
    out_dir = WORK / "rss"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    proc = spawn("rss", runner.argv(out_dir))
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    runner.check(out_dir, child["rc"])
    return child["maxrss_kb"] / 1024.0


def run_untraced(runner: Runner, seconds: float) -> dict[str, float]:
    out_dir = WORK / "out"
    rc, _, _ = runner.call(out_dir)  # warm-up
    runner.check(out_dir, rc)
    walls, rates, setups = [], [], []
    while len(walls) < MIN_TIMED_CALLS or sum(walls) < seconds:
        rc, wall, _ = runner.call(out_dir)
        work = runner.check(out_dir, rc)
        walls.append(wall)
        rates.append(work / wall)
        # spread over the run, so one burst of load on the machine moves
        # few of the set-up samples
        if len(setups) < SETUP_SPAWNS:
            setups.append(spawn_setup(runner))
    while len(setups) < SETUP_SPAWNS:
        setups.append(spawn_setup(runner))
    peak_rss_mb = measure_rss(runner)
    print(f"# timed calls: {len(walls)}; set-up spawns: {len(setups)}")
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
            "iters_per_s": statistics.median(rates), "peak_rss_mb": peak_rss_mb}


def run_traced(runner: Runner, seconds: float) -> dict[str, float]:
    out_dir = WORK / "out"
    rc, _, _ = runner.call(out_dir)  # warm-up
    runner.check(out_dir, rc)
    plain, traced, cpu_per_wall, per_call = [], [], [], []
    while len(traced) < 2 or sum(plain) + sum(traced) < seconds:
        rc, wall, cpu = runner.call(out_dir)
        runner.check(out_dir, rc)
        plain.append(wall)
        cpu_per_wall.append(cpu / wall)
        trace = tracer.Tracer()
        rc, wall, _ = runner.call(out_dir, trace)
        runner.check(out_dir, rc)
        layers = tracer.layer_metrics(trace.spans)
        runner.check_points(out_dir, layers)
        traced.append(wall)
        per_call.append(layers)
    if trace.missing:
        print(f"# not found in this program, reported as 0: {', '.join(trace.missing)}")
    print(f"# traced calls: {len(traced)}, each paired with an untraced call")
    print("# *.normals are computed from the arguments as rows x dim, not counted in a kernel")
    metrics = {}
    for name in tracer.per_layer_names():
        value = statistics.median(layers.get(name, 0) for layers in per_call)
        metrics[name] = round(value) if tracer.unit_of(name) == "count" else value
    metrics["cli.main.cpu_per_wall"] = statistics.median(cpu_per_wall)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def record() -> int:
    """Rewrite references.json from the current program, refusing bad outputs."""
    refs: dict = {}
    for name, workload in WORKLOADS.items():
        refs[name] = {}
        for variant in range(VARIANTS):
            runner = Runner(workload, variant, None)
            out_dir = WORK / "record"
            rc, wall, _ = runner.call(out_dir)
            if rc != 0:
                print(f"error: {name} variant {variant}: exit code {rc}", file=sys.stderr)
                return 1
            if workload.is_sweep:
                for summary in out_dir.glob("*/summary.json"):
                    doc = json.loads(summary.read_text())
                    if doc["status"] != "ok" or doc["diverged"]:
                        print(f"error: {name} variant {variant}: {summary} diverged",
                              file=sys.stderr)
                        return 1
                refs[name][str(variant)] = {"files": outputs.collect(out_dir)}
            else:
                text = (out_dir / "report.json").read_text()
                refs[name][str(variant)] = {"report": outputs.digest_text(text),
                                            "checks": len(json.loads(text)["checks"])}
            print(f"recorded {name} variant {variant} ({wall:.2f} s)")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def result_line(runner: Runner, metrics: dict[str, float], units) -> str:
    return json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="cli.main wall time to measure, summed over the timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from the current program")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "zoar" / "__init__.py").is_file():
        print(f"error: no zoar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and not REFERENCES.is_file():
        print(f"error: missing {REFERENCES.name}; run with --record", file=sys.stderr)
        return 2

    os.environ.pop("ZOAR_SEED", None)  # it would override the generated master seed
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.record:
            return record()
        workload = WORKLOADS[args.workload]
        variant = workload.variant(args.seed)
        reference = json.loads(REFERENCES.read_text())[workload.name][str(variant)]
        meta = metadata(workload, args.seed, variant, bool(args.trace))
        print(f"# workload {workload.name}: {workload.why}")
        if not workload.is_sweep:
            print("# iters_per_s counts Monte-Carlo trials on this workload")
        print(f"# meta: {json.dumps(meta, sort_keys=True)}")
        if meta["oversubscribed"]:
            print("# WARNING: cpu_count exceeds the usable cores; "
                  "repeat threads oversubscribe them")
        runner = Runner(workload, variant, reference)
        if args.trace:
            metrics, units = run_traced(runner, args.seconds), tracer.unit_of
        else:
            metrics, units = run_untraced(runner, args.seconds), END_TO_END_UNITS.get
        for problem in runner.problems[:20]:
            print(f"# FAILED: {problem}")
        for name, value in metrics.items():
            print(f"{name:52s} {value:14.6g} {units(name)}")
        print(f"{'ops_failed / ops_total':52s} {runner.failed} / {runner.attempted}")
        print(result_line(runner, metrics, units))
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
