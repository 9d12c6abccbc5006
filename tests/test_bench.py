import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from zoar import bench, optimizers
from zoar.bench import Aggregate, RunConfig, Theta0Mode, Theta0Spec
from zoar.estimators import EstimatorConfig
from zoar.objectives import ObjectiveKind, ObjectiveSpec
from zoar.optimizers import EstimatorKind, OptimizerConfig, Trace, UpdateRule
from zoar.sampling import DistTag


def _cfg(est_kind=EstimatorKind.VANILLA, repeats=3, iterations=30, seed=5,
         eta=0.01, rule=UpdateRule.RADAZO, n=2):
    return RunConfig(
        objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, 6),
        estimator_kind=est_kind,
        estimator=EstimatorConfig(mu=0.05, k=4, n=n, tag=DistTag.GAUSSIAN),
        optimizer=OptimizerConfig(rule=rule, eta=eta),
        iterations=iterations, repeats=repeats, master_seed=seed)


def _strip(trace):
    return trace.f_clean.tolist(), trace.queries_per_iter


@pytest.mark.parametrize("field,value", [
    ("iterations", 2.5), ("repeats", 2.0), ("master_seed", 1.5), ("iterations", True),
], ids=["iterations-float", "repeats-float", "master_seed-float", "iterations-bool"])
def test_run_config_rejects_non_integer_counts(field, value):
    # these used to fail late inside the run, or (True) run one iteration
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(_cfg(), **{field: value})


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_run_config_rejects_seeds_outside_u64(seed):
    # these were reduced mod 2**64: -1 ran the streams of 2**64 - 1 under
    # another fingerprint
    with pytest.raises(ValueError, match="master_seed must lie in"):
        dataclasses.replace(_cfg(), master_seed=seed)
    assert dataclasses.replace(_cfg(), master_seed=2 ** 64 - 1).master_seed == 2 ** 64 - 1


def test_run_experiment_repeats_and_determinism():
    traces = bench.run_experiment(_cfg())
    assert len(traces) == 3
    assert _strip(traces[0]) != _strip(traces[1])  # distinct per-repeat seeds
    again = bench.run_experiment(_cfg())
    for a, b in zip(traces, again):
        assert _strip(a) == _strip(b)


def test_initial_row_is_starting_value(tmp_path):
    cfg = _cfg(iterations=0, repeats=1)
    trace = bench.run_experiment(cfg)[0]
    assert trace.f_clean.shape == trace.wall_ms.shape == (1,)
    bench.write_trace_csv(trace, tmp_path / "t.csv")
    f = repr(trace.f_clean[0].item())
    assert (tmp_path / "t.csv").read_text().splitlines()[1] == f"0,0,{f},{f},0.0"


def test_matched_theta0_across_estimators():
    a = bench.run_experiment(_cfg(EstimatorKind.VANILLA, repeats=2))
    b = bench.run_experiment(_cfg(EstimatorKind.ZOAR, repeats=2))
    for ta, tb in zip(a, b):
        assert ta.f_clean[0] == tb.f_clean[0]


def _csv_without_wall(trace, path):
    bench.write_trace_csv(trace, path)
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


# (objective, mu, iterations) of a group whose rows diverge at different
# iterations: noisy Rosenbrock steps past the limit, and on Ackley noise of
# sigma = 1e308 overflows query values now and then.  Ackley is bounded on
# finite parameters, and at mu = 1e300 finite values take small steps, so
# an Ackley row stops only through non-finite parameters, which log inf
NOISY_ROSENBROCK = (ObjectiveSpec(ObjectiveKind.ROSENBROCK, 4, noise_sigma=0.1), 0.05, 40)
OVERFLOWING_NOISE = (ObjectiveSpec(ObjectiveKind.ACKLEY, 4, noise_sigma=1e308), 1e300, 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,rule,eta,diverged_at,setup", [
    (EstimatorKind.VANILLA, UpdateRule.SGD, 1e-3, [5, None, None, 3, 5, 7], NOISY_ROSENBROCK),
    (EstimatorKind.ZOHS, UpdateRule.RADAZO, 30.0, [9, None, 24, None, None, None],
     NOISY_ROSENBROCK),
    (EstimatorKind.ZOAR, UpdateRule.ADAMM, 100.0, [31, 12, None, None, 16, 29],
     NOISY_ROSENBROCK),
    (EstimatorKind.VANILLA, UpdateRule.SGD, 1e-3, [None, 3, None, 1, 1, None], OVERFLOWING_NOISE),
    (EstimatorKind.VANILLA, UpdateRule.ADAMM, 1e-3, [None, 3, 3, 1, 1, 2], OVERFLOWING_NOISE),
    (EstimatorKind.VANILLA, UpdateRule.RADAZO, 1e-3, [2, None, 4, 1, 1, 2], OVERFLOWING_NOISE),
    (EstimatorKind.ZOHS, UpdateRule.SGD, 1e-3, [None, 4, None, 1, 1, None], OVERFLOWING_NOISE),
    (EstimatorKind.ZOHS, UpdateRule.ADAMM, 1e-3, [None, 4, None, 1, 1, 2], OVERFLOWING_NOISE),
    (EstimatorKind.ZOHS, UpdateRule.RADAZO, 1e-3, [2, 3, None, 1, 1, 2], OVERFLOWING_NOISE),
    (EstimatorKind.ZOAR, UpdateRule.SGD, 1e-3, [None, 2, 4, 1, 2, 3], OVERFLOWING_NOISE),
    (EstimatorKind.ZOAR, UpdateRule.ADAMM, 1e-3, [None, 2, 4, 1, 2, 3], OVERFLOWING_NOISE),
    (EstimatorKind.ZOAR, UpdateRule.RADAZO, 1e-3, [None, 2, 4, 1, 2, 3], OVERFLOWING_NOISE),
])
def test_mixed_divergence_in_a_group_matches_groups_of_one(tmp_path, monkeypatch, kind,
                                                            rule, eta, diverged_at, setup):
    # rows that diverge leave the group mid-run; the rows left behind keep
    # their ring, history and moments, so every repeat's trace is the one
    # it gets when it runs alone.  A non-finite query value stops its run
    # by the same rule, for every kind, and nothing warns or raises
    objective, mu, iterations = setup
    cfg = RunConfig(
        objective=objective, estimator_kind=kind, estimator=EstimatorConfig(mu=mu, k=3, n=3),
        optimizer=OptimizerConfig(rule=rule, eta=eta, beta2=0.9),
        iterations=iterations, repeats=6, master_seed=7, theta0=Theta0Spec(lo=-2.5, hi=2.5))
    calls = []
    run_group = optimizers._run_group

    def counting(*args):
        calls.append(len(args[2]))
        return run_group(*args)

    monkeypatch.setattr(optimizers, "_run_group", counting)
    grouped = bench.run_experiment(cfg)
    monkeypatch.setattr(optimizers, "LOCKSTEP_ELEMENTS", 1)
    alone = bench.run_experiment(cfg)
    assert calls == [6] + [1] * 6
    assert [t.diverged_at for t in grouped] == diverged_at
    for i, (g, a) in enumerate(zip(grouped, alone)):
        assert (g.status, g.diverged_at) == (a.status, a.diverged_at)
        assert g.status == ("completed" if a.diverged_at is None else "diverged")
        assert (_csv_without_wall(g, tmp_path / f"g{i}.csv")
                == _csv_without_wall(a, tmp_path / f"a{i}.csv"))
        # the file ends with the value that stopped the run, so it reads
        # back with the same divergence
        assert bench.read_trace_csv(tmp_path / f"g{i}.csv").diverged_at == g.diverged_at
        if setup is OVERFLOWING_NOISE and g.diverged_at is not None:
            assert g.f_clean[-1] == math.inf


def test_wide_repeats_keep_one_ring_live_at_a_time():
    # d = 10^4 and n*k = 60: one repeat's ring is 4.8 MB, so the loop runs
    # the repeats in groups of one, and two repeats peak no higher than one
    # does plus a ring
    k, n, dim = 10, 6, 10_000

    def peak(repeats):
        cfg = RunConfig(
            objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, dim),
            estimator_kind=EstimatorKind.ZOAR,
            estimator=EstimatorConfig(mu=0.05, k=k, n=n, tag=DistTag.GAUSSIAN),
            optimizer=OptimizerConfig(eta=0.001), iterations=n + 1, repeats=repeats,
            master_seed=3)
        tracemalloc.start()
        try:
            traces = bench.run_experiment(cfg)
            high = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.completed for t in traces)
        return high

    ring = n * k * dim * 8
    one = peak(1)
    assert one > ring
    assert peak(2) < one + ring


def lockstep_plans(monkeypatch):
    """The arm groups each ``run_optimization`` call packs, as the loop's
    ``pack`` returns them (its per-step evaluation batches aside)."""
    plans, pack = [], optimizers.pack

    def spy(keys, sizes, budget):
        bins = pack(keys, sizes, budget)
        if budget == optimizers.LOCKSTEP_ELEMENTS:
            plans.append(bins)
        return bins

    monkeypatch.setattr(optimizers, "pack", spy)
    return plans


def test_sweep_keeps_no_more_history_than_its_largest_cell(monkeypatch):
    # the cells share one seed stream, so they are the arms of one loop
    # call; two zoar rings (4.8 and 4.0 MB) exceed the larger alone, so the
    # loop runs those arms apart; the vanilla cell keeps none and rides with
    # one, and the sweep peaks below a zoar cell's peak plus the ring it
    # leaves out
    k, dim = 10, 10_000

    def cfg(kind, n):
        return RunConfig(
            objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, dim), estimator_kind=kind,
            estimator=EstimatorConfig(mu=0.05, k=k, n=n, tag=DistTag.GAUSSIAN),
            optimizer=OptimizerConfig(eta=0.001), iterations=7, repeats=2, master_seed=3)

    def peak(cfgs):
        tracemalloc.start()
        try:
            traces = bench.run_sweep(cfgs)
            high = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(t.completed for cell in traces for t in cell)
        return high

    grid = [cfg(EstimatorKind.ZOAR, 6), cfg(EstimatorKind.ZOAR, 5),
            cfg(EstimatorKind.VANILLA, 6)]
    peak(grid[:1])  # allocations made once per process
    one = peak(grid[:1])
    plans = lockstep_plans(monkeypatch)
    assert peak(grid) < one + 5 * k * dim * 8
    assert plans == [[[0], [1, 2]]]


@pytest.mark.parametrize("kinds,dim,calls", [
    ((EstimatorKind.VANILLA, EstimatorKind.ZOHS), 1_000, [(2, 5)]),
    ((EstimatorKind.VANILLA,), 10_000, [(1, 1)] * 5),
], ids=["vanilla-zohs", "vanilla-wide"])
def test_lockstep_repeats_are_sized_by_kept_history(monkeypatch, kinds, dim, calls):
    # the loop gives a lockstep group of repeats 1 MiB
    # (optimizers.LOCKSTEP_ELEMENTS): a repeat holds its arms' history and
    # one iteration's k*d directions; vanilla keeps no history and a ZOHS
    # window is n*d doubles, so at d = 10^3 all 5 repeats (128 kB each)
    # share one group, while at d = 10^4 the directions alone (0.8 MB)
    # leave one repeat per group
    runs = []
    run_group = optimizers._run_group

    def spy_run(arms, iterations, seeds):
        runs.append((len(arms), len(seeds)))
        return run_group(arms, iterations, seeds)

    monkeypatch.setattr(optimizers, "_run_group", spy_run)
    cfgs = [RunConfig(
        objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, dim), estimator_kind=kind,
        estimator=EstimatorConfig(mu=0.05, k=10, n=6, tag=DistTag.GAUSSIAN),
        optimizer=OptimizerConfig(eta=0.001), iterations=2, repeats=5, master_seed=3)
        for kind in kinds]
    traces = bench.run_sweep(cfgs)
    assert runs == calls
    assert [len(cell) for cell in traces] == [5] * len(kinds)


def _fake_trace(gaps):
    return Trace(np.array(gaps), np.zeros(len(gaps)), 1)


def test_aggregate_mean_and_population_std():
    agg = bench.aggregate([_fake_trace([1.0]), _fake_trace([3.0])])
    assert agg.mean_gap[0] == 2.0
    assert agg.std_gap[0] == 1.0  # population convention
    same = bench.aggregate([_fake_trace([5.0, 4.0])] * 3)
    assert np.all(same.std_gap == 0.0)


def test_aggregate_permutation_invariant():
    traces = [_fake_trace([1.0, 2.0]), _fake_trace([3.0, 1.0]), _fake_trace([0.5, 4.0])]
    a = bench.aggregate(traces)
    b = bench.aggregate(traces[::-1])
    assert np.array_equal(a.mean_gap, b.mean_gap)
    assert np.array_equal(a.std_gap, b.std_gap)


def test_aggregate_excludes_diverged():
    bad = _fake_trace([9.0, math.inf])  # the value that stopped the run is its last
    assert bad.diverged_at == 1
    agg = bench.aggregate([_fake_trace([1.0]), bad])
    assert agg.n == 1 and agg.excluded == 1
    with pytest.raises(ValueError):
        bench.aggregate([bad])


def _agg_from(gaps):
    gaps = np.asarray(gaps, dtype=np.float64)
    return Aggregate(iters=np.arange(gaps.shape[0]), mean_gap=gaps,
                     std_gap=np.zeros_like(gaps), n=1)


def test_speedup_examples():
    ref = _agg_from(np.linspace(10, 0.5, 801))   # hits 1.0 late
    cand = _agg_from(np.concatenate([np.linspace(10, 1.0, 101), np.full(700, 0.9)]))
    r_it = np.nonzero(ref.mean_gap <= 1.0)[0][0]
    c_it = np.nonzero(cand.mean_gap <= 1.0)[0][0]
    assert bench.speedup(ref, cand, 1.0) == r_it / c_it
    assert bench.speedup(ref, ref, 1.0) == 1.0
    assert bench.speedup(ref, cand, 1e-9) is None


def test_speedup_hand_ratio():
    ref = _agg_from([10.0] * 800 + [1.0])
    cand = _agg_from([10.0] * 100 + [1.0] + [1.0] * 700)
    assert bench.speedup(ref, cand, 1.0) == 8.0


def test_trace_csv_roundtrip(tmp_path):
    trace = bench.run_experiment(_cfg(repeats=1, iterations=10))[0]
    path = tmp_path / "t.csv"
    bench.write_trace_csv(trace, path)
    back = bench.read_trace_csv(path)
    assert _strip(back) == _strip(trace)
    assert back.wall_ms.tolist() == trace.wall_ms.tolist()
    header = path.read_text().splitlines()[0]
    assert header == "iter,queries_cum,f_clean,gap,wall_ms"


def test_empty_trace_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    bench.write_trace_csv(Trace(np.zeros(0), np.zeros(0), 5), path)
    assert path.read_text() == "iter,queries_cum,f_clean,gap,wall_ms\n"


def test_aggregate_csv_roundtrip(tmp_path):
    agg = bench.aggregate(bench.run_experiment(_cfg(repeats=2, iterations=8)))
    path = tmp_path / "a.csv"
    bench.write_aggregate_csv(agg, path)
    back = bench.read_aggregate_csv(path)
    assert np.array_equal(back.mean_gap, agg.mean_gap)
    assert np.array_equal(back.std_gap, agg.std_gap)
    assert np.array_equal(back.iters, agg.iters)


@pytest.mark.parametrize("body,message", [
    ("0,0,1.5\n", "line 2: expected 5 numeric fields"),
    ("0,0,1.5,1.5,0.0\n1,x,0.9,0.9,0.1\n", "line 3: expected 5 numeric fields"),
    ("0,0,1.5,1.5,0.0\n3,5,0.9,0.9,0.1\n", "line 3: want iter = row index"),
    ("0,2,1.5,1.5,0.0\n", "line 2: want"),
    ("0,0,1.5,1.5,0.0\n1,5,0.9,0.9,0.1\n2,11,0.8,0.8,0.1\n", "line 4: want"),
    ("0,0,1.5,1.5,0.0\n1,5,0.9,0.8,0.1\n", "line 3: want"),
], ids=["short", "non-numeric", "iter", "queries-row-0", "queries", "gap"])
def test_trace_csv_malformed_reports_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("iter,queries_cum,f_clean,gap,wall_ms\n" + body)
    with pytest.raises(ValueError, match=message):
        bench.read_trace_csv(path)


def test_aggregate_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,mean_gap,std_gap,n\n0,1.0,0.0,2\n1,oops,0.0,2\n")
    with pytest.raises(ValueError, match="line 3"):
        bench.read_aggregate_csv(path)
    # float() reads these, but a gap that is not finite is no reference
    # and no point of a plot
    for row in ("1,nan,0.0,2", "1,inf,0.0,2", "1,-inf,0.0,2", "1,1.0,nan,2"):
        path.write_text(f"iter,mean_gap,std_gap,n\n0,1.0,0.0,2\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            bench.read_aggregate_csv(path)
    # the iter column counts 0, 1, 2, ... and every row has the same n >= 1;
    # the first body once read back as iters [0 7 3] with n = 2
    for body, message in (("0,1.0,0,2\n7,0.5,0,-3\n3,0.2,0,5\n", "line 3: expected iter 1"),
                          ("1,1.0,0,2\n", "line 2: expected iter 0"),
                          ("0,1.0,0,2\n1,0.5,0,2\n1,0.2,0,2\n", "line 4: expected iter 2"),
                          ("0,1.0,0,2\n1,0.5,0,3\n", "line 3: n must be"),
                          ("0,1.0,0,0\n", "line 2: n must be"),
                          ("0,1.0,0,-1\n1,0.5,0,-1\n", "line 2: n must be"),
                          # every gap is >= 0, and so are their mean and spread
                          ("0,1.0,-2.0,2\n1,-0.5,-1.0,2\n", "line 2: mean_gap and std_gap")):
        path.write_text("iter,mean_gap,std_gap,n\n" + body)
        with pytest.raises(ValueError, match=message):
            bench.read_aggregate_csv(path)


def test_svg_output(tmp_path):
    agg = _agg_from([1.0, 0.1, 0.0])
    path = tmp_path / "plot.svg"
    bench.emit_plot_svg([("a", agg)], path, log_y=True)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert "polyline" in text and "</svg>" in text
    single = _agg_from([2.0])
    bench.emit_plot_svg([("one", single)], path)
    assert path.read_text().startswith("<svg ")
    with pytest.raises(ValueError):
        bench.emit_plot_svg([], path)


def test_theta0_modes():
    fixed = Theta0Spec(mode=Theta0Mode.FIXED, value=0.25)
    assert np.array_equal(fixed.build(3, 1), np.full(3, 0.25))
    uni = Theta0Spec(mode=Theta0Mode.UNIFORM, lo=-2, hi=2)
    x = uni.build(1000, 7)
    assert x.min() >= -2 and x.max() < 2
    assert np.array_equal(x, uni.build(1000, 7))


@pytest.mark.parametrize("kwargs,match", [
    ({"value": float("nan")}, "finite"),
    ({"lo": -float("inf")}, "finite"),
    ({"hi": float("inf")}, "finite"),
    ({"lo": 1.0, "hi": -1.0}, "must not exceed"),
    ({"lo": -1e308, "hi": 1e308}, "overflows"),
], ids=["value-nan", "lo-inf", "hi-inf", "lo-above-hi", "range-overflows"])
def test_theta0_spec_refuses_bad_bounds(kwargs, match):
    # lo = 1, hi = -1 used to run silently, and a range of 2e308 built
    # initial points of inf
    with pytest.raises(ValueError, match=match):
        Theta0Spec(**kwargs)
    assert Theta0Spec(lo=-1e308, hi=0.0).build(4, 3).min() >= -1e308


def test_trailing_mean_decreases_on_quadratic_sgd():
    cfg = RunConfig(
        objective=ObjectiveSpec(ObjectiveKind.QUADRATIC, 100),
        estimator_kind=EstimatorKind.VANILLA,
        estimator=EstimatorConfig(mu=0.05, k=10, tag=DistTag.GAUSSIAN),
        optimizer=OptimizerConfig(rule=UpdateRule.SGD, eta=0.002),
        iterations=1000, repeats=1, master_seed=2)
    trace = bench.run_experiment(cfg)[0]
    gaps = trace.f_clean
    trailing = np.convolve(gaps, np.ones(100) / 100, mode="valid")
    for t in range(500, trailing.shape[0], 100):
        assert trailing[t] < trailing[t - 500]
