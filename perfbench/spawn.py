"""Fresh-interpreter child processes of the benchmark.

    spawn.py setup ARGV...   import zoar.cli, parse ARGV and, for a sweep,
                             parse and build every cell's config; exit
    spawn.py rss ARGV...     run zoar.cli.main(ARGV) once and print the
                             exit code and peak RSS as JSON
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(argv: list[str]) -> None:
    import itertools

    from zoar import cli

    args = cli.build_parser().parse_args(argv)
    if args.command == "sweep":
        values = cli.parse_config(Path(args.config).read_text())
        swept = sorted(k for k, v in values.items() if isinstance(v, list))
        for combo in itertools.product(*(values[k] for k in swept)):
            cell = dict(values)
            cell.update(zip(swept, combo))
            cli.build_run_config(cell)


def rss(argv: list[str]) -> None:
    import contextlib
    import io
    import json
    import resource

    from zoar import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "maxrss_kb": maxrss_kb}))


if __name__ == "__main__":
    mode, argv = sys.argv[1], sys.argv[2:]
    {"setup": setup, "rss": rss}[mode](argv)
