"""Self-test of the benchmark harness; runs in seconds.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import math

import pytest

import run

run.import_program(run.ROOT)

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "train-32": (("size", 16), ("pairs", 2), ("pair_batch", 2),
                 ("extra_config", "codec.hidden = 4,8\ncodec.batch = 2\nflow.hidden = 8,8\n"
                                  "flow.batch = 4\n")),
    "fuse-128": (("size", 32), ("pairs", 2), ("extra_config", "codec.hidden = 4,8\n"
                                                              "flow.hidden = 8,8\n")),
    "fuse-128-sg20": (("size", 32), ("pairs", 2),
                      ("extra_config", "codec.hidden = 4,8\nflow.hidden = 8,8\n"
                                       "guidance.grad_mode = stop-grad\nflow.steps = 20\n")),
    "eval-128": (("size", 32), ("triples", 2)),
}


def tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], sizes=TINY[name], **changes)


def ticking(step: float = 1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


# -- percentiles ------------------------------------------------------------------


def test_p90_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert sum(v > 90 for v in values) == 10


def test_p90_refused_with_too_few_samples():
    with pytest.raises(ValueError, match="needs 10"):
        harness.percentile(list(range(99)), 90)


def test_min_ops_gives_p90_its_ten_samples():
    n = harness.MIN_OPS
    assert n - math.ceil(0.9 * n) >= harness.MIN_BEYOND


# -- closed loop and error_rate ------------------------------------------------------


def test_error_rate_counts_raises_and_failed_checks():
    def op(i):
        if i % 4 == 1:
            raise RuntimeError("op raised")
        return i

    def check(i, out):
        if i % 4 == 2:
            raise harness.CheckFailed("bad output")

    loop = harness.closed_loop(op, check, seconds=0, min_ops=8, deadline=math.inf, cycle=4,
                               clock=ticking(), log=io.StringIO())
    assert loop.attempted == 8
    assert loop.failed == 4
    assert loop.error_rate == 0.5
    assert loop.completed == 4
    assert sum(math.isinf(x) for x in loop.latencies) == 4


def test_loop_stops_on_whole_cycles_and_deadline():
    loop = harness.closed_loop(lambda i: i, lambda i, out: None, seconds=0, min_ops=5,
                               deadline=math.inf, cycle=3, clock=ticking())
    assert loop.attempted == 6
    stopped = harness.closed_loop(lambda i: i, lambda i, out: None, seconds=0, min_ops=10**6,
                                  deadline=20.0, clock=ticking())
    assert stopped.attempted < 10


# -- spans and self time ---------------------------------------------------------------


def test_self_time_is_span_minus_union_of_children():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("parent", 0.0, 10.0, -1, 0),
        tracing.Span("a", 1.0, 3.0, 0, 0),
        tracing.Span("b", 2.0, 5.0, 0, 0),  # overlaps a: union of a and b is 4
        tracing.Span("c", 7.0, 8.0, 0, 0),
        tracing.Span("grandchild", 7.5, 8.0, 3, 0),
    ]
    assert t.self_times() == [5.0, 2.0, 3.0, 0.5, 0.5]


def test_wrapped_calls_nest_and_record_only_inside_an_op():
    t = tracing.Tracer(clock=ticking())
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: inner())
    outer()
    assert t.spans == []
    with t.active(7):
        outer()
    names = [(s.name, s.parent, s.op) for s in t.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]
    secs, calls, _ = t.totals([7])
    assert calls == {"outer": 1, "inner": 1}
    assert secs["outer"] + secs["inner"] == t.spans[0].end - t.spans[0].start


def test_patch_reaches_names_imported_by_value_and_restores():
    from flowfuse import cli, codec, fft, guidance, image, metrics

    before = (cli.encode, codec.saliency_weights, metrics._fft2_raw, guidance.gaussian_blur)
    with tracing.Patched(tracing.Tracer()):
        assert cli.encode is codec.encode is not before[0]
        assert codec.saliency_weights is guidance.saliency_weights is not before[1]
        assert metrics._fft2_raw is fft._fft2_raw is not before[2]
        assert guidance.gaussian_blur is image.gaussian_blur is not before[3]
    assert (cli.encode, codec.saliency_weights, metrics._fft2_raw,
            guidance.gaussian_blur) == before


# -- traced runs ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    first = run.measure(tiny(name), 3, 0.0, True, tmp_path / "a")
    monkeypatch.setattr(run, "TRACE_MIN_OPS", 2 * run.TRACE_MIN_OPS)  # another op count
    second = run.measure(tiny(name), 3, 0.0, True, tmp_path / "b")
    assert set(first["metrics"]) == set(tracing.PER_LAYER)
    counts = [m for m, unit in tracing.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}
    assert first["loop"].failed == second["loop"].failed == 0
    assert first["digest"] == second["digest"]


def test_wasted_work_ratios_on_the_stop_grad_path(tmp_path):
    m = run.measure(tiny("fuse-128-sg20"), 3, 0.0, True, tmp_path)["metrics"]
    assert m["flow.euler_steps"] == 20
    assert m["guidance.source_pairs"] == 1
    assert m["guidance.saliency_weights.per_pair"] == 20
    assert m["flow.evaluate.per_step"] == 2


def test_traced_run_fails_loudly_on_an_unreached_function(tmp_path):
    w = tiny("fuse-128")
    w = dataclasses.replace(w, reaches=w.reaches + ("metrics.report",))
    with pytest.raises(tracing.TraceError, match="metrics.report"):
        run.measure(w, 3, 0.0, True, tmp_path)


def test_untraced_run_reports_every_e2e_metric(tmp_path):
    res = run.measure(tiny("fuse-128"), 3, 0.0, False, tmp_path)
    assert set(res["metrics"]) == set(harness.E2E)
    assert all(v > 0 for v in res["metrics"].values())
    assert res["loop"].attempted == harness.MIN_OPS
    assert set(res["phases"]) == {"encode_ms", "sample_ms", "decode_ms"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
