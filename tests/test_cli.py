import collections
import dataclasses
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_bench import lockstep_plans

from zoar import _kernels as kernels
from zoar import bench, cli, objectives, optimizers, sampling, verify
from zoar.optimizers import Trace

MINIMAL = """
[objective]
kind = quadratic
dim = 12

[estimator]
kind = zoar
k = 4
n = 2

[run]
iterations = 20
repeats = 2
master_seed = 3
"""


def run_cli(*argv):
    return cli.main(list(argv))


def test_run_writes_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    assert (out / "trace_r0.csv").exists()
    assert (out / "trace_r1.csv").exists()
    assert (out / "aggregate.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["repeats"] == 2


def test_unknown_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[optimizer]\nlr = 0.1\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "lr" in capsys.readouterr().err


def test_unknown_section_and_bad_line(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[nonsense]\nx = 1\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    cfg.write_text("[run]\nnot a kv line\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_missing_config_is_exit_2(tmp_path):
    assert run_cli("run", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)) == 2


def test_threads_option_is_gone(tmp_path):
    # repeats run serially; there is no thread count to set
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert run_cli("--threads", "2", "run", str(cfg), "--out", str(out)) == 2
    assert not out.exists()


def test_all_diverged_is_exit_3(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("""
[objective]
kind = rosenbrock
dim = 8

[estimator]
kind = vanilla

[optimizer]
rule = sgd
eta = 1e8

[run]
iterations = 40
repeats = 2
""")
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "all_diverged"


@pytest.mark.parametrize("kind", ["vanilla", "zoar"])
def test_start_past_divergence_limit_is_exit_3(tmp_path, capfd, kind):
    # zoar used to die in the history ring on the start's non-finite
    # query values; both kinds now stop each repeat at iteration 0, and
    # the start's overflow is expected, so nothing reaches stderr
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"""
[objective]
kind = rosenbrock
dim = 4

[estimator]
kind = {kind}
k = 3
n = 2

[run]
iterations = 5
repeats = 2
theta0_mode = fixed
theta0_value = 1e100
""")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", str(cfg), "--out", str(out)) == 3
    assert capfd.readouterr().err == ""
    assert json.loads((out / "summary.json").read_text())["status"] == "all_diverged"
    for r in range(2):  # the start row alone, which reads back as diverged
        back = bench.read_trace_csv(out / f"trace_r{r}.csv")
        assert back.f_clean.tolist() == [np.inf] and back.diverged_at == 0


OVERFLOW = """
[objective]
kind = quadratic
dim = 4
noise_sigma = {noise_sigma}

[estimator]
kind = {kind}
mu = {mu}
k = 2
n = 2

[run]
iterations = 5
repeats = 2
"""


@pytest.mark.parametrize("kind", ["vanilla", "zohs", "zoar"])
@pytest.mark.parametrize("noise_sigma,mu", [("0", "1e300"), ("1e308", "0.05")])
def test_overflowing_query_values_end_the_run_as_exit_3(tmp_path, capfd, kind, noise_sigma,
                                                         mu):
    # zoar's ring used to refuse the non-finite values with a traceback,
    # and vanilla and zohs printed invalid-value warnings; each repeat now
    # stops at the iteration whose parameters went non-finite
    cfg = tmp_path / "c.cfg"
    cfg.write_text(OVERFLOW.format(noise_sigma=noise_sigma, kind=kind, mu=mu))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", str(cfg), "--out", str(out)) == 3
    assert capfd.readouterr().err == ""
    for r in range(2):
        back = bench.read_trace_csv(out / f"trace_r{r}.csv")
        assert back.f_clean[-1] == np.inf and back.diverged_at >= 1


def test_sweep_with_overflowing_cells_matches_its_finite_cells_alone(tmp_path, capfd):
    # the cells of mu = 1e300 diverge in the group of all four; the others
    # keep the bytes of a sweep without them
    cfg = tmp_path / "s.cfg"
    cfg.write_text(OVERFLOW.format(noise_sigma="0", kind="[vanilla, zoar]", mu="[0.05, 1e300]"))
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
        cfg.write_text(OVERFLOW.format(noise_sigma="0", kind="[vanilla, zoar]", mu="0.05"))
        assert run_cli("sweep", str(cfg), "--out", str(tmp_path / "alone")) == 0
    assert capfd.readouterr().err == ""
    table = (out / "speedup.csv").read_text().splitlines()
    for kind in ("vanilla", "zoar"):
        assert f"estimator.kind={kind}__estimator.mu=1e300,diverged,," in table
        cell = out / f"estimator.kind={kind}__estimator.mu=0.05"
        alone = tmp_path / "alone" / f"estimator.kind={kind}"
        assert sorted(p.name for p in cell.iterdir()) == sorted(p.name for p in alone.iterdir())
        for path in cell.iterdir():
            if path.name.startswith("trace_"):
                assert _strip_wall(path) == _strip_wall(alone / path.name), path
            else:
                assert path.read_bytes() == (alone / path.name).read_bytes(), path


def test_mu_whose_perturbation_overflows_is_exit_2(tmp_path, capsys):
    # mu * u overflowed for a Gaussian entry of |u| > 1.8, and the
    # evaluation refused the non-finite point with a traceback
    cfg = tmp_path / "c.cfg"
    cfg.write_text(OVERFLOW.format(noise_sigma="0", kind="vanilla", mu="1e308"))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "mu must be positive and at most" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_undecodable_config_is_exit_2(tmp_path, capsys, command):
    # a latin-1 byte in a comment was a UnicodeDecodeError traceback
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"[objective]\n# step \xb5 = 0.05\ndim = 4\n")
    out = tmp_path / "out"
    assert run_cli(command, str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err and "decode" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_with_byte_order_mark_is_read(tmp_path, command):
    # the mark used to make the first section header a bad line
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + MINIMAL.lstrip().encode())
    assert run_cli(command, str(cfg), "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("lo,hi", [("-1e308", "1e308"), ("1", "-1")])
def test_bad_theta0_range_is_config_error(tmp_path, capsys, lo, hi):
    # a range of 2e308 overflowed into a traceback, and lo > hi ran silently
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL + f"theta0_lo = {lo}\ntheta0_hi = {hi}\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "theta0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unusable_history_config_is_exit_2_before_running(tmp_path, capsys, command):
    # a zoar ring of n*k = 1 query cannot form an estimate; in a sweep the
    # vanilla cell listed first must not run either
    kinds = "zoar" if command == "run" else "[vanilla, zoar]"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[estimator]\nkind = {kinds}\nk = 1\nn = 1\n"
                   "[run]\niterations = 3\nrepeats = 1\n")
    out = tmp_path / "out"
    assert run_cli(command, str(cfg), "--out", str(out)) == 2
    assert "n*k >= 2" in capsys.readouterr().err
    assert not list(out.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repeated_key_is_exit_2_naming_both_lines(tmp_path, capsys, command):
    # the second dim used to override the first silently; the key may
    # come back under a second [objective] header
    again = "7" if command == "run" else "[7, 9]"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[objective]\ndim = 5\n[run]\niterations = 3\nrepeats = 1\n"
                   f"[objective]\ndim = {again}\n")
    out = tmp_path / "out"
    assert run_cli(command, str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "line 2" in err and "'dim'" in err
    assert not out.exists()


@pytest.mark.parametrize("line,first,again", [
    ("kind = [vanilla, zoar, vanilla]", "vanilla", "vanilla"),
    ("tag = [sphere, Sphere]", "sphere", "Sphere"),
    ("mu = [0.1, 0.05, 0.10]", "0.1", "0.10"),
    ("k = [4, 04]", "4", "04"),
])
def test_sweep_list_repeating_a_value_is_exit_2(tmp_path, capsys, line, first, again):
    # a repeated value used to run its cell twice into one directory and
    # list it twice in speedup.csv
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[run]\niterations = 3\nrepeats = 1\n[estimator]\n{line}\n")
    out = tmp_path / "out"
    assert run_cli("sweep", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"line 5: value {again!r}" in err and f"repeats {first!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("objective", "noise_sigma"), ("estimator", "mu"), ("optimizer", "eta"),
    ("optimizer", "beta1"), ("optimizer", "beta2"), ("optimizer", "zeta"),
    ("run", "theta0_value"), ("run", "theta0_lo"), ("run", "theta0_hi"),
])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_non_finite_float_is_config_error(tmp_path, capsys, section, key, raw):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,code", [
    ("Vanilla", 0), ("ZOAR", 0), ("zoHS", 0), ("reinforce_gs", 2), ("REINFORCE_GS", 2),
])
def test_estimator_kind_ignores_case(tmp_path, capsys, kind, code):
    # estimator.kind was the one case-sensitive name of the grammar:
    # `kind = Vanilla` was exit 2; reinforce_gs is not a run kind in any case
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL.replace("kind = zoar", f"kind = {kind}"))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == code
    if code:
        assert f"bad value for estimator.kind: {kind!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    ("objective", "kind"), ("estimator", "kind"), ("estimator", "tag"),
    ("optimizer", "rule"), ("run", "theta0_mode"),
])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_enum_value_names_its_key(tmp_path, capsys, command, section, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[{section}]\n{key} = foo\n")
    assert run_cli(command, str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"bad value for {section}.{key}: 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key", [
    ("objective", "dim"), ("estimator", "k"), ("estimator", "n"),
])
def test_non_integer_count_is_config_error(tmp_path, capsys, section, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[{section}]\n{key} = 2.5\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_reference_is_exit_2_before_running(tmp_path, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("the experiment ran before the reference was checked")

    monkeypatch.setattr(bench, "run_experiment", no_run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    bad = tmp_path / "bad.csv"
    bad.write_text("iter,mean_gap,std_gap,n\n0,xx,0,1\n")
    # a nan target used to run and write NaN, which is not JSON, into summary.json
    nan = tmp_path / "nan.csv"
    nan.write_text("iter,mean_gap,std_gap,n\n0,1.0,0,1\n1,nan,0,1\n")
    # iters out of order and a changing n used to be taken as a reference
    disordered = tmp_path / "disordered.csv"
    disordered.write_text("iter,mean_gap,std_gap,n\n0,1.0,0,2\n7,0.5,0,-3\n3,0.2,0,5\n")
    negative = tmp_path / "negative.csv"
    negative.write_text("iter,mean_gap,std_gap,n\n0,1.0,-2.0,2\n1,-0.5,-1.0,2\n")
    for ref in (bad, nan, disordered, negative, tmp_path / "absent.csv"):
        out = tmp_path / "out"
        assert run_cli("run", str(cfg), "--out", str(out), "--reference", str(ref)) == 2
        assert str(ref) in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "verify", "plot"])
def test_unwritable_output_is_exit_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(verify, "run_suite", lambda suite, seed: [
        verify.CheckReport("fine", True, 0.0, 1.0, 1, "")])
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    agg = tmp_path / "agg.csv"
    agg.write_text("iter,mean_gap,std_gap,n\n0,1.0,0.0,1\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    argv = {"run": ["run", str(cfg), "--out", str(blocker / "out")],
            "sweep": ["sweep", str(cfg), "--out", str(blocker / "out")],
            "verify": ["verify", "exact", "--out", str(blocker / "r.json")],
            "plot": ["plot", str(agg), "--out", str(blocker / "p.svg")]}[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_list_value_rejected_by_run(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[estimator]\nn = [1, 6]\n")
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_run_determinism_excluding_wall(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        outs.append(out)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    for fname in ("trace_r0.csv", "trace_r1.csv"):
        assert strip_wall(outs[0] / fname) == strip_wall(outs[1] / fname)
    assert (outs[0] / "aggregate.csv").read_bytes() == (outs[1] / "aggregate.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(cfg), "--out", str(out1)) == 0
    monkeypatch.setenv("ZOAR_SEED", "99")
    assert run_cli("run", str(cfg), "--out", str(out2)) == 0
    assert ((out1 / "aggregate.csv").read_bytes()
            != (out2 / "aggregate.csv").read_bytes())


def test_verify_exact_suite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("verify", "exact", "--seed", "7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["suite"] == "exact"
    again = tmp_path / "report2.json"
    assert run_cli("verify", "exact", "--seed", "7", "--out", str(again)) == 0
    assert out.read_bytes() == again.read_bytes()


def test_verify_invalid_suite_usage_error():
    assert run_cli("verify", "bogus") == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_verify_seed_outside_u64_is_exit_2(capsys, seed):
    # these were reduced mod 2**64, so -1 checked the seed 2**64 - 1
    assert run_cli("verify", "exact", "--seed", seed) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_master_seed_outside_u64_is_exit_2(tmp_path, monkeypatch, capsys, seed):
    def no_run(cfg):
        raise AssertionError("a run started with a seed outside [0, 2**64)")

    monkeypatch.setattr(bench, "run_experiment", no_run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL.replace("master_seed = 3", f"master_seed = {seed}"))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "master_seed must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_env_seed_outside_u64_is_exit_2(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.setattr(bench, "run_sweep", lambda cfgs: pytest.fail("the sweep ran"))
    monkeypatch.setenv("ZOAR_SEED", seed)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    for command in ("run", "sweep"):
        assert run_cli(command, str(cfg), "--out", str(tmp_path / command)) == 2
        assert "master_seed must lie in" in capsys.readouterr().err


def test_verify_failure_is_exit_4(monkeypatch):
    def fake_suite(suite, seed):
        return [verify.CheckReport("doomed", False, 9.0, 1.0, 3, "")]

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    assert run_cli("verify", "exact") == 4


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
def test_committed_configs_build_and_run(path):
    # each committed config parses, builds every cell of its grid (the
    # kind x n grid of sweep_desk.cfg has 4), and runs cut to 3
    # iterations of 1 repeat
    cfgs = [dataclasses.replace(cfg, iterations=3, repeats=1)
            for _, cfg in cli.build_plan(cli.parse_config(path.read_text()))]
    assert len(cfgs) == (4 if path.name == "sweep_desk.cfg" else 1)
    for traces in bench.run_sweep(cfgs):
        assert [t.completed and t.f_clean.size == 4 for t in traces] == [True]


def test_sweep_empty_list_is_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[estimator]\nn = []\n")
    assert run_cli("sweep", str(cfg), "--out", str(tmp_path / "o")) == 2


def test_sweep_expands_grid(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("""
[objective]
kind = quadratic
dim = 10

[estimator]
kind = [vanilla, zoar]
n = [1, 2]
k = 4

[run]
iterations = 15
repeats = 2
""")
    out = tmp_path / "sweep"
    assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(cells) == 4
    table = (out / "speedup.csv").read_text().splitlines()
    assert table[0] == "cell,final_mean_gap,speedup_iters,speedup_queries"
    assert len(table) == 5


def test_sweep_single_cell_matches_run(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    run_out = tmp_path / "run_out"
    sweep_out = tmp_path / "sweep_out"
    assert run_cli("run", str(cfg), "--out", str(run_out)) == 0
    assert run_cli("sweep", str(cfg), "--out", str(sweep_out)) == 0
    assert ((sweep_out / "all" / "aggregate.csv").read_bytes()
            == (run_out / "aggregate.csv").read_bytes())


GRID = """
[objective]
kind = rosenbrock
dim = 4
noise_sigma = {noise_sigma}

[estimator]
kind = {kind}
k = {k}
n = {n}

[optimizer]
rule = {rule}
eta = 0.001
beta2 = 0.9

[run]
iterations = 40
repeats = 6
master_seed = 7
theta0_lo = -2.5
theta0_hi = 2.5
"""


def _strip_wall(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_sweep_cells_match_their_runs_alone(tmp_path):
    # the cells of one k share their directions; under sgd some repeats
    # diverge and leave their arm while the other arms run those rows on;
    # the two noise levels share a loop but are evaluated apart
    cfg = tmp_path / "s.cfg"
    cfg.write_text(GRID.format(noise_sigma="[0, 0.1]", kind="[vanilla, zohs, zoar]",
                               k="[3, 4]", n="[1, 6]", rule="[radazo, sgd]"))
    out = tmp_path / "sweep"
    assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
    cells = sorted(p for p in out.iterdir() if p.is_dir())
    assert len(cells) == 48
    statuses = set()
    for cell in cells:
        values = dict(part.split("=") for part in cell.name.split("__"))
        alone_cfg = tmp_path / f"{cell.name}.cfg"
        alone_cfg.write_text(GRID.format(**{key.split(".")[1]: value
                                            for key, value in values.items()}))
        alone = tmp_path / "alone" / cell.name
        run_cli("run", str(alone_cfg), "--out", str(alone))
        assert sorted(p.name for p in cell.iterdir()) == sorted(p.name for p in alone.iterdir())
        for path in cell.iterdir():
            if path.name.startswith("trace_"):
                assert _strip_wall(path) == _strip_wall(alone / path.name), path
            else:
                assert path.read_bytes() == (alone / path.name).read_bytes(), path
        summary = json.loads((cell / "summary.json").read_text())
        statuses.add((summary["status"], summary.get("diverged", 0) > 0))
    assert ("ok", False) in statuses and ("ok", True) in statuses


def test_sweep_draws_directions_once_and_evaluates_every_query(tmp_path, monkeypatch):
    # the cells share one seed stream, so the kernel builds one cell's
    # directions (noise is off), and each step evaluates every cell's
    # queries in one call.  A run's queries are evaluated at steps 1 to
    # its last: T if it completed, else the step at which it diverged,
    # which its trace logs as its last row, so the final queries_cum
    # counts every evaluation.  Under sgd some runs diverge while the
    # radazo cells run to the end.
    T, repeats, k = 40, 6, 3
    normals, calls = [], []
    materialize_block, evaluate = kernels.materialize_block, objectives.eval

    def counting_block(seeds, tag, dim):
        normals.append(len(seeds) * dim)
        return materialize_block(seeds, tag, dim)

    def counting_eval(spec, theta, noise_seed=0):
        # each point's seed, by the rule eval keys the points on
        lead, seeds = np.shape(theta)[:-1], np.asarray(noise_seed, dtype=np.uint64)
        calls.append(np.broadcast_to(seeds.reshape(seeds.shape + (1,) * (len(lead) - seeds.ndim)),
                                     lead).reshape(-1))
        return evaluate(spec, theta, noise_seed)

    monkeypatch.delenv("ZOAR_SEED", raising=False)
    monkeypatch.setattr(kernels, "materialize_block", counting_block)
    monkeypatch.setattr(objectives, "eval", counting_eval)
    # each point's noise seed names its run and step
    runs = [sampling.repeat_seed(7, r) for r in range(repeats)]
    _, noise = sampling.iteration_seeds(sampling.stream_roots(np.array(runs, dtype=np.uint64)),
                                        range(1, T + 1), k)
    step_of = {seed: (r, t) for r, row in enumerate(noise.tolist())
               for t, seed in enumerate(row, start=1)}
    for rule, cells in (("radazo", 6), ("[radazo, sgd]", 12)):
        normals.clear()
        calls.clear()
        cfg = tmp_path / "s.cfg"
        cfg.write_text(GRID.format(noise_sigma=0, kind="[vanilla, zohs, zoar]", k=k,
                                   n="[1, 6]", rule=rule))
        out = tmp_path / f"sweep{cells}"
        assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
        evaluated = collections.Counter(step_of[seed] for seeds in calls
                                        for seed in seeds.tolist())
        expected, finals, diverged = collections.Counter(), [], []
        assert len([p for p in out.iterdir() if p.is_dir()]) == cells
        for path in out.glob("*/trace_r*.csv"):
            r = int(path.stem[len("trace_r"):])
            lines = path.read_text().splitlines()[1:]
            assert len(lines) >= 2  # a run diverged at step t logs t + 1 rows
            q = int(lines[1].split(",")[1])
            expected.update({(r, t): q for t in range(1, len(lines))})
            finals.append(int(lines[-1].split(",")[1]))
            diverged.append(bench.read_trace_csv(path).diverged_at is not None)
        assert len(finals) == cells * repeats
        assert evaluated == expected  # nothing is evaluated after a run's last step
        assert sum(evaluated.values()) == sum(finals)
        assert any(diverged) == ("sgd" in rule)
        assert len(calls) == T
        assert sum(normals) == repeats * T * k * 4


def _trace(gaps, queries_per_iter, status="completed"):
    # a diverged run's last row is the value that stopped it
    gaps = gaps + [np.inf] * (status == "diverged")
    return Trace(np.array(gaps), np.zeros(len(gaps)), queries_per_iter)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("workload,groups,calls", [
    ("DESK", [[0, 1, 2, 3]], [(4, 5)]),
    ("WIDE", [[0, 1]], [(2, 1), (2, 1)]),
], ids=["desk", "wide"])
def test_benchmark_sweeps_lockstep_plans(tmp_path, monkeypatch, workload, groups, calls):
    # the sweeps of the benchmark's workloads: every cell of each sweep
    # shares one seed stream, so each sweep is one run_optimization call,
    # whose arms make one lockstep group.  A repeat holds its arms' history
    # and one iteration's directions, within the loop's 1 MiB
    # (optimizers.LOCKSTEP_ELEMENTS): a desk repeat's 56 kB of rings and
    # 8 kB of directions let all 5 run in one group, while wide's ZoAR ring
    # alone is 4.8 MB, so each group runs one
    config = getattr(_load_workloads(monkeypatch), workload).config
    runs, run_group = [], optimizers._run_group

    def spy_run(arms, iterations, seeds):
        runs.append((len(arms), len(seeds)))
        return run_group(arms, iterations, seeds)

    monkeypatch.delenv("ZOAR_SEED", raising=False)
    plans = lockstep_plans(monkeypatch)
    monkeypatch.setattr(optimizers, "_run_group", spy_run)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config.format(master_seed=11))
    assert run_cli("sweep", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert plans == [groups]
    assert runs == calls


def test_sweep_queries_speedup_excludes_diverged_repeats(tmp_path, monkeypatch):
    # reference cell (n=1) reaches its final gap 1.0 at iteration 3 after
    # 30 queries; the candidate cell (n=2) reaches it at iteration 1 after
    # 5 queries in its completed repeat, while its diverged repeat, whose
    # rows still reach iteration 1, spent 100 there and must not count
    def fake_run_experiment(cfg):
        if cfg.estimator.n == 1:
            return [_trace([4.0, 3.0, 2.0, 1.0], 10)] * 2
        return [_trace([4.0, 1.0, 1.0, 1.0], 5),
                _trace([4.0, 1.0, 1.0], 100, status="diverged")]

    monkeypatch.setattr(bench, "run_sweep",
                        lambda cfgs: [fake_run_experiment(cfg) for cfg in cfgs])
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[estimator]\nn = [1, 2]\n\n[run]\nrepeats = 2\n")
    out = tmp_path / "sweep"
    assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
    table = (out / "speedup.csv").read_text().splitlines()
    assert table[2] == "estimator.n=2,1.0,3.0,6.0"


def test_sweep_keeps_results_in_memory(tmp_path, monkeypatch):
    def no_read_back(path):
        raise AssertionError(f"sweep read {path} back from disk")

    monkeypatch.setattr(bench, "read_trace_csv", no_read_back)
    monkeypatch.setattr(bench, "read_aggregate_csv", no_read_back)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(MINIMAL.replace("n = 2", "n = [1, 2]"))
    out = tmp_path / "sweep"
    assert run_cli("sweep", str(cfg), "--out", str(out)) == 0
    assert len((out / "speedup.csv").read_text().splitlines()) == 3


def test_queries_total_comes_from_a_completed_repeat(tmp_path, monkeypatch):
    # repeat 0 diverged after one step; repeat 1 completed 3 iterations
    def fake_run_experiment(cfg):
        return [_trace([4.0, 2.0], 5, status="diverged"),
                _trace([4.0, 3.0, 2.0, 1.0], 5)]

    monkeypatch.setattr(bench, "run_experiment", fake_run_experiment)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["status"], summary["diverged"]) == ("ok", 1)
    assert summary["queries_total"] == 15


def test_sweep_unknown_reference(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    assert run_cli("sweep", str(cfg), "--out", str(tmp_path / "o"),
                   "--reference", "nope") == 2
    assert not (tmp_path / "o").exists()


def test_plot_command(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    svg = tmp_path / "p.svg"
    assert run_cli("plot", str(out / "aggregate.csv"), "--out", str(svg),
                   "--log-y") == 0
    assert svg.read_text().startswith("<svg ")


def test_plot_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("iter,mean_gap,std_gap,n\n0,xx,0,1\n")
    assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.svg")) == 2
    assert "line 2" in capsys.readouterr().err
    # a non-finite gap used to be drawn as the coordinate "nan"
    bad.write_text("iter,mean_gap,std_gap,n\n0,1.0,0,1\n1,inf,0,1\n")
    assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.svg")) == 2
    assert "line 3" in capsys.readouterr().err
    # and iters out of order with a changing n used to be drawn
    bad.write_text("iter,mean_gap,std_gap,n\n0,1.0,0,2\n7,0.5,0,-3\n3,0.2,0,5\n")
    assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.svg")) == 2
    assert "line 3" in capsys.readouterr().err
    # and negative gaps, which no run writes, used to be drawn
    bad.write_text("iter,mean_gap,std_gap,n\n0,1.0,-2.0,2\n1,-0.5,-1.0,2\n")
    assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.svg")) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()
