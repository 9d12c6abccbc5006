"""Command-line front end: run benchmarks, verify theory, sweep, plot.

Config files use a strict flat grammar: ``key = value`` lines grouped
under ``[objective]``, ``[estimator]``, ``[optimizer]``, and ``[run]``
sections, with ``#`` comments.  Unknown sections or keys, and a key
given twice in one section, are hard errors.  A value of the form
``[a, b, c]`` is a list; lists are only meaningful to ``sweep``, which
expands their Cartesian product, so a list that gives one value twice
is an error too.

Exit codes: 0 success, 2 usage/config error, 3 all repeats diverged,
4 verification failure.  The environment variable ``ZOAR_SEED``
overrides the configured master seed for ``run`` and ``sweep``.
"""

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import bench, verify
from .estimators import EstimatorConfig
from .objectives import ObjectiveKind, ObjectiveSpec
from .optimizers import EstimatorKind, OptimizerConfig, UpdateRule
from .sampling import DistTag


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# (section, key) -> (converter, default); the only keys the grammar accepts
_SCHEMA = {
    ("objective", "kind"): (ObjectiveKind.parse, "quadratic"),
    ("objective", "dim"): (int, "100"),
    ("objective", "noise_sigma"): (float, "0"),
    ("estimator", "kind"): (EstimatorKind.parse, "vanilla"),
    ("estimator", "tag"): (DistTag.parse, "gaussian"),
    ("estimator", "mu"): (float, "0.05"),
    ("estimator", "k"): (int, "10"),
    ("estimator", "n"): (int, "6"),
    ("optimizer", "rule"): (UpdateRule.parse, "radazo"),
    ("optimizer", "eta"): (float, "0.001"),
    ("optimizer", "beta1"): (float, "0.9"),
    ("optimizer", "beta2"): (float, "0.999"),
    ("optimizer", "zeta"): (float, "1e-8"),
    ("optimizer", "bias_correction"): (_parse_bool, "false"),
    ("run", "iterations"): (int, "2000"),
    ("run", "repeats"): (int, "5"),
    ("run", "master_seed"): (int, "0"),
    ("run", "theta0_mode"): (lambda raw: bench.Theta0Mode(raw.strip().lower()), "uniform"),
    ("run", "theta0_value"): (float, "0"),
    ("run", "theta0_lo"): (float, "-2"),
    ("run", "theta0_hi"): (float, "2"),
}


def parse_config(text: str) -> dict:
    """Parse the flat grammar into {(section, key): raw string or list}."""
    sections = {sec for sec, _ in _SCHEMA}
    values: dict = {}
    first_line: dict = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} in [{section}] repeats "
                              f"line {first_line[(section, key)]}")
        first_line[(section, key)] = lineno
        if raw.startswith("[") and raw.endswith("]"):
            items = [item.strip() for item in raw[1:-1].split(",") if item.strip()]
            if not items:
                raise ConfigError(f"line {lineno}: empty list for key {key!r}")
            conv, firsts = _SCHEMA[(section, key)][0], {}
            for i, item in enumerate(items):
                try:  # what the item sets, names without case
                    setting = repr(conv(item)).lower()
                except ValueError:  # build_run_config reports it
                    setting = item.lower()
                first = firsts.setdefault(setting, i)
                if first != i:
                    raise ConfigError(f"line {lineno}: value {item!r} in the list for key "
                                      f"{key!r} in [{section}] repeats {items[first]!r}")
            values[(section, key)] = items
        else:
            values[(section, key)] = raw
    return values


def build_run_config(values: dict, seed_override: int | None = None) -> bench.RunConfig:
    """Materialise a RunConfig from parsed scalar values."""
    merged = {sk: default for sk, (_, default) in _SCHEMA.items()}
    for sk, raw in values.items():
        if isinstance(raw, list):
            raise ConfigError(f"key {sk[0]}.{sk[1]} is a list; use the sweep command")
        merged[sk] = raw

    def get(section, key):
        conv = _SCHEMA[(section, key)][0]
        raw = merged[(section, key)]
        try:
            value = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None
        if conv is float and not math.isfinite(value):
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} (must be finite)")
        return value

    try:
        objective = ObjectiveSpec(get("objective", "kind"), get("objective", "dim"),
                                  get("objective", "noise_sigma"))
        estimator_kind = get("estimator", "kind")
        estimator = EstimatorConfig(mu=get("estimator", "mu"),
                                    k=get("estimator", "k"),
                                    n=get("estimator", "n"),
                                    tag=get("estimator", "tag"))
        if estimator_kind is EstimatorKind.ZOAR:
            estimator.require_reusable()
        optimizer = OptimizerConfig(rule=get("optimizer", "rule"),
                                    eta=get("optimizer", "eta"),
                                    beta1=get("optimizer", "beta1"),
                                    beta2=get("optimizer", "beta2"),
                                    zeta=get("optimizer", "zeta"),
                                    bias_correction=get("optimizer", "bias_correction"))
        theta0 = bench.Theta0Spec(mode=get("run", "theta0_mode"),
                                  value=get("run", "theta0_value"),
                                  lo=get("run", "theta0_lo"),
                                  hi=get("run", "theta0_hi"))
        master_seed = get("run", "master_seed")
        if seed_override is not None:
            master_seed = seed_override
        return bench.RunConfig(objective=objective, estimator_kind=estimator_kind,
                               estimator=estimator, optimizer=optimizer,
                               iterations=get("run", "iterations"),
                               repeats=get("run", "repeats"),
                               master_seed=master_seed, theta0=theta0)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_config(path: str) -> dict:
    try:  # UTF-8, a leading byte-order mark dropped
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config(text)


def _seed_override() -> int | None:
    raw = os.environ.get("ZOAR_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"ZOAR_SEED must be an integer, got {raw!r}") from None


def _write_run(cfg: bench.RunConfig, traces: list, out_dir: Path,
               ref: bench.Aggregate | None) -> tuple[int, bench.Aggregate | None]:
    """Write a run's outputs and return (exit code, aggregate); the
    aggregate is None when every repeat diverged.  ``ref`` is the
    reference aggregate the summary's speedup is measured against."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, trace in enumerate(traces):
        bench.write_trace_csv(trace, out_dir / f"trace_r{i}.csv")
    try:
        agg = bench.aggregate(traces)
    except ValueError:
        summary = {"status": "all_diverged", "repeats": cfg.repeats,
                   "fingerprint": cfg.fingerprint()}
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return 3, None
    bench.write_aggregate_csv(agg, out_dir / "aggregate.csv")
    done = next(t for t in traces if t.completed)
    summary = {
        "status": "ok",
        "fingerprint": cfg.fingerprint(),
        "final_mean_gap": agg.final_mean_gap(),
        "iterations": cfg.iterations,
        "repeats": cfg.repeats,
        "diverged": agg.excluded,
        "queries_total": (done.f_clean.size - 1) * done.queries_per_iter,
    }
    if ref is not None:
        target = ref.final_mean_gap()
        summary["reference_final_mean_gap"] = target
        summary["speedup_vs_reference"] = speed = bench.speedup(ref, agg, target)
        if speed is None:
            summary["speedup_vs_reference"] = "unreachable"
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0, agg


def cmd_run(args) -> int:
    cfg = build_run_config(_read_config(args.config), _seed_override())
    ref = None
    if args.reference is not None:
        try:
            ref = bench.read_aggregate_csv(args.reference)
        except (OSError, ValueError) as exc:
            print(f"error: reference aggregate {args.reference}: {exc}", file=sys.stderr)
            return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable output fails before the run
    return _write_run(cfg, bench.run_sweep([cfg])[0], out_dir, ref)[0]


def cmd_verify(args) -> int:
    try:
        reports = verify.run_suite(args.suite, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = verify.format_reports(reports)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(verify.reports_to_json(reports, args.suite, args.seed))
    return 0 if all(r.passed for r in reports) else 4


def _cell_name(assignment: dict) -> str:
    return "__".join(f"{sec}.{key}={val}" for (sec, key), val in assignment.items())


def build_plan(values: dict) -> list[tuple[str, bench.RunConfig]]:
    """The cells of parsed config ``values`` as (name, RunConfig) pairs:
    one per combination of the list values, the list keys sorted, each
    over the fixed keys and with the ``ZOAR_SEED`` override.  A cell is
    named by its assignment, ``all`` when nothing is swept; one that does
    not build raises a ConfigError that names it."""
    keys = sorted(sk for sk, raw in values.items() if isinstance(raw, list))
    cells = []
    for combo in itertools.product(*(values[sk] for sk in keys)):
        assignment = dict(zip(keys, combo))
        name = _cell_name(assignment) if assignment else "all"
        try:
            cells.append((name, build_run_config({**values, **assignment}, _seed_override())))
        except ConfigError as exc:
            raise ConfigError(f"in cell {name}: {exc}") from None
    return cells


def cmd_sweep(args) -> int:
    values = _read_config(args.config)
    try:
        cells = build_plan(values)
    except ConfigError as exc:  # its message names the cell
        print(f"config error {exc}", file=sys.stderr)
        return 2

    names = [name for name, _ in cells]
    reference = args.reference if args.reference is not None else names[0]
    if reference not in names:
        print(f"error: unknown reference cell {reference!r}; have {names}",
              file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable output fails before the run

    results = {}
    for (name, cfg), traces in zip(cells, bench.run_sweep([cfg for _, cfg in cells])):
        results[name] = (_write_run(cfg, traces, out_dir / name, None)[1], traces)

    ref_agg, ref_traces = results[reference]
    if ref_agg is None:
        print(f"error: reference cell {reference!r} diverged", file=sys.stderr)
        return 3
    target = ref_agg.final_mean_gap()
    lines = ["cell,final_mean_gap,speedup_iters,speedup_queries"]
    for name in names:
        agg, traces = results[name]
        if agg is None:
            lines.append(f"{name},diverged,,")
            continue
        s_it = bench.speedup(ref_agg, agg, target)
        s_q = bench.queries_speedup(ref_agg, ref_traces, agg, traces, target)
        s_it_txt = "unreachable" if s_it is None else repr(float(s_it))
        s_q_txt = "unreachable" if s_q is None else repr(float(s_q))
        lines.append(f"{name},{repr(agg.final_mean_gap())},{s_it_txt},{s_q_txt}")
    (out_dir / "speedup.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_plot(args) -> int:
    series = []
    for path in args.aggregates:
        try:
            agg = bench.read_aggregate_csv(path)
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        series.append((Path(path).stem, agg))
    bench.emit_plot_svg(series, args.out, log_y=args.log_y)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoar",
        description="zeroth-order optimization benchmarks and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--reference", default=None,
                       help="aggregate CSV to compute a speedup against")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the verification checks")
    p_verify.add_argument("suite", choices=["all", "exact", "statistical"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="expand list-valued keys into a grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--reference", default=None, help="reference cell name")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="plot aggregate CSVs to an SVG")
    p_plot.add_argument("aggregates", nargs="+")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--log-y", action="store_true", dest="log_y")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # inputs are read with their own messages; this is an output that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
