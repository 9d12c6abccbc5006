"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402


def test_self_time_subtracts_nested_children():
    a = Span("a", 1, 0.0, 10.0)
    b = Span("b", 1, 1.0, 4.0, parent=a)
    c = Span("c", 1, 2.0, 3.0, parent=b)
    d = Span("d", 1, 5.0, 6.0, parent=a)
    assert tracer.self_times([a, b, c, d]) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_ignores_children_on_other_threads():
    a = Span("a", 1, 0.0, 10.0)
    w1 = Span("w", 2, 1.0, 9.0, parent=a)
    w2 = Span("w", 3, 1.0, 8.0, parent=a)
    x = Span("x", 2, 2.0, 5.0, parent=w1)
    spans = [a, w1, w2, x]
    assert tracer.self_times(spans) == [10.0, 5.0, 7.0, 3.0]
    m = tracer.layer_metrics(spans)
    assert (m["a.self_s"], m["w.calls"], m["w.self_s"], m["x.self_s"]) == (10.0, 2, 12.0, 3.0)


def test_pool_threads_get_the_submitting_span_as_parent():
    fake = ModuleType("perfbench_fake")
    fake.inner = lambda x: x + 1

    def outer(xs):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(fake.inner, xs))

    fake.outer = outer
    sys.modules[fake.__name__] = fake
    try:
        targets = [(fake.__name__, "inner", "inner", None, None),
                   (fake.__name__, "outer", "outer", None, None)]
        with tracer.Tracer(targets) as trace:
            assert fake.outer([1, 2, 3]) == [2, 3, 4]
    finally:
        del sys.modules[fake.__name__]
    outer = [s for s in trace.spans if s.name == "outer"]
    inner = [s for s in trace.spans if s.name == "inner"]
    assert len(outer) == 1 and len(inner) == 3
    assert all(s.parent is outer[0] and s.tid != outer[0].tid for s in inner)
    # the pool's work overlaps the outer call, so none of it is subtracted
    assert tracer.self_times(trace.spans)[trace.spans.index(outer[0])] == (
        outer[0].end - outer[0].start)


TRACE_A = "iter,queries_cum,f_clean,gap,wall_ms\n0,0,1.5,1.5,0.0\n1,11,0.9,0.9,0.123\n"
TRACE_B = TRACE_A.replace("0.123", "0.456")


def test_wall_ms_is_stripped_before_hashing(tmp_path):
    stripped = "iter,queries_cum,f_clean,gap\n0,0,1.5,1.5\n1,11,0.9,0.9\n"
    assert outputs.strip_column(TRACE_A) == stripped
    trace_c = TRACE_A.replace("0.9,0.9", "0.9,0.8")
    for name, text in (("a", TRACE_A), ("b", TRACE_B), ("c", trace_c)):
        (tmp_path / name / "cell").mkdir(parents=True)
        (tmp_path / name / "cell" / "trace_r0.csv").write_text(text)
        (tmp_path / name / "cell" / "aggregate.csv").write_text(text)
    a, b, c = (outputs.collect(tmp_path / name) for name in "abc")
    assert a["cell/trace_r0.csv"] == b["cell/trace_r0.csv"] != c["cell/trace_r0.csv"]
    # only trace files carry a timing column; elsewhere every byte counts
    assert a["cell/aggregate.csv"] != b["cell/aggregate.csv"]


def test_a_mismatch_fails_the_operations_it_covers():
    ref = {"c1/trace_r0.csv": "a", "c1/trace_r1.csv": "b", "c1/aggregate.csv": "c",
           "c2/trace_r0.csv": "d", "c2/summary.json": "e", "speedup.csv": "f"}

    def failed(changes, rc=0):
        return outputs.sweep_failures(ref, {**ref, **changes}, rc)[:2]

    assert failed({}) == (3, 0)
    assert failed({"c1/trace_r1.csv": "x"}) == (3, 1)
    assert failed({"c1/aggregate.csv": "x"}) == (3, 2)
    assert failed({"speedup.csv": "x"}) == (3, 3)
    assert outputs.sweep_failures(ref, {k: v for k, v in ref.items() if k != "c2/summary.json"},
                                  0)[:2] == (3, 1)
    assert failed({}, rc=3) == (3, 3)


TINY_SWEEP = """\
[objective]
kind = quadratic
dim = 8
noise_sigma = 0.05
[estimator]
kind = [vanilla, zoar]
k = 4
n = [1, 2]
[run]
iterations = 6
repeats = 3
master_seed = 11
"""


def _originals():
    return [tracer.lookup(owner, attr)[1] for owner, attr, *_ in tracer.TARGETS]


def test_wrappers_change_no_output_bit_and_are_removed_afterwards(tmp_path):
    from zoar import cli

    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_SWEEP)

    def argvs(out):
        return [["sweep", str(config), "--out", str(out / "sweep")],
                ["verify", "exact", "--seed", "3", "--out", str(out / "report.json")]]

    before = _originals()
    for argv in argvs(tmp_path / "plain"):
        assert cli.main(argv) == 0
    traces = []
    for argv in argvs(tmp_path / "traced"):
        with tracer.Tracer() as trace:
            assert cli.main(argv) == 0
        assert trace.missing == []
        traces.append(trace)
    assert all(now is then for now, then in zip(_originals(), before))

    plain, traced = outputs.collect(tmp_path / "plain"), outputs.collect(tmp_path / "traced")
    assert len(plain) == 1 + 1 + 4 * (3 + 2) and plain == traced
    layers = tracer.layer_metrics(traces[0].spans)
    sweep_files = {k[len("sweep/"):]: v for k, v in traced.items() if k.startswith("sweep/")}
    assert layers["objectives.eval.points"] == outputs.final_queries(
        tmp_path / "traced" / "sweep", sweep_files)
    assert layers["optimizers.run_optimization.calls"] == 12
    assert layers["bench.run_experiment.zoar-n2.ms_per_iter"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.per_layer_names()
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in spec["per_layer"])


def test_references_cover_every_variant():
    refs = json.loads(run.REFERENCES.read_text())
    assert set(refs) == set(WORKLOADS)
    for name, by_variant in refs.items():
        assert set(by_variant) == {str(v) for v in range(VARIANTS)}, name
