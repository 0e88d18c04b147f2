"""Self-test of the benchmark's tracing and op checks.

    python3 -m pytest perfbench/tests

Spans must nest, the self times of an op's spans must add up to the op
span, counts must repeat exactly across two traced runs with one seed, and
tracing must leave every report byte unchanged.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import minsurf  # noqa: E402
import minsurf.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 5

#: counts the benchmark's README promises repeat exactly
EXACT_COUNTS = ("jets.mul.calls", "surfaces.phi_jet.points", "solver.newton_iters",
                "solver.grid_jets.calls")


class MemoryDigests(worker.DigestStore):
    def __init__(self):
        self.known = {}


def small_workload(tmp_dir):
    """Three cheap ops that together reach every layer, the oracle included."""

    def make_op(k, seed):
        if k == 1:
            return workloads.solve_grid_op(seed, 17, 20, f"{tmp_dir}/grid17.minsurf")
        return workloads.verify_op("scherk", 2, (1, -1), 0.3, 1.0, 0.25, 40, seed, oracle=k == 0)

    return workloads.Workload("selftest", make_op, trace_ops=3)


def run_ops(workload, digests, tracer=None):
    return worker.closed_loop(minsurf, workload, SEED, 0.0, workload.trace_ops, digests, tracer)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced run, then two traced runs checked against its digests."""
    workload = small_workload(tmp_path_factory.mktemp("grid"))
    digests = MemoryDigests()
    first, second = tracing.Tracer(), tracing.Tracer()
    records = (run_ops(workload, digests) + run_ops(workload, digests, first)
               + run_ops(workload, digests, second))
    return records, first, second


def test_every_op_passes_its_checks_traced_or_not(runs):
    records, _, _ = runs
    assert [r["traced"] for r in records] == [False] * 3 + [False, True] * 6
    assert [r["error"] for r in records] == [None] * 15


def test_spans_nest_and_layer_self_times_sum_to_the_op(runs):
    _, tracer, _ = runs
    spans = tracer.spans
    own = tracing.self_times(spans)
    per_layer = defaultdict(lambda: defaultdict(float))
    for span, t in zip(spans, own):
        if span.parent is None:
            assert span.name == tracing.OP_SPAN
        else:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.op == span.op
        assert t >= -1e-9
        per_layer[span.op][span.name.split(".")[0]] += t
    roots = [s for s in spans if s.parent is None]
    assert [s.op for s in roots] == [0, 1, 2]
    for root in roots:
        assert sum(per_layer[root.op].values()) == pytest.approx(root.end - root.start, rel=1e-9)

    summary = tracing.summarize(spans, [0, 1, 2], points=40 + 20 + 40)
    for layer in tracing.LAYERS:
        mean = sum(per_layer[op][layer] for op in range(3)) / 3
        assert summary[f"{layer}.self_s"] == pytest.approx(mean, rel=1e-9)
        assert mean > 0.0, layer


def test_counts_repeat_exactly_across_traced_runs(runs):
    _, first, second = runs
    one = tracing.summarize(first.spans, [0, 1, 2], points=100)
    two = tracing.summarize(second.spans, [0, 1, 2], points=100)
    for name in EXACT_COUNTS + ("curvature.ricci_fd.calls", "solver.spsolve.calls"):
        assert one[name] == two[name] and one[name] > 0, name
    assert set(one) == set(tracing.METRICS)


def test_uninstall_restores_every_binding():
    originals = (minsurf.cli.main, minsurf.jets.Jet3.__dict__["__rmul__"],
                 minsurf.geometry2d.ricci_arrays, minsurf.solver.splinalg.spsolve,
                 minsurf.geometry2d.SurfaceFrame.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert minsurf.geometry2d.ricci_arrays is not originals[2]
    tracer.uninstall()
    assert (minsurf.cli.main, minsurf.jets.Jet3.__dict__["__rmul__"],
            minsurf.geometry2d.ricci_arrays, minsurf.solver.splinalg.spsolve,
            minsurf.geometry2d.SurfaceFrame.__init__) == originals


def test_sweep_prefix_covers_every_surface_at_every_n():
    seen = set()
    for k in range(15):
        argv = workloads.sweep_op(k, SEED + k).argvs[0]
        seen.add((argv[argv.index("--surface") + 1], argv[argv.index("--n") + 1]))
    assert seen == {(s, str(n)) for s in workloads.MINIMAL_SURFACES for n in (1, 2, 3)}


def test_digest_ignores_wall_time_only():
    a = '{"pass": true, "wall_time_ms": 12}'
    assert workloads.report_digest(a) == workloads.report_digest(a.replace("12", "9001"))
    assert workloads.report_digest(a) != workloads.report_digest(a.replace("true", "false"))


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_throughput_is_a_median_over_whole_blocks():
    timed = [{"s": s, "points": 100} for s in (0.5, 1.5, 1.0, 1.0, 9.0, 9.0, 0.1)]
    values = run.end_to_end(timed, 2, 50.0, [1.0, 3.0, 2.0])
    # blocks of 2 ops give 100, 100 and 11.1 points/s; the lone last op is not a block
    assert values["points_per_s"] == 100.0
    assert values["op_s.p50"] == 1.0
    assert values["setup_s"] == 2.0
