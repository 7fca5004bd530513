"""Tests of the benchmark's own code: spans, metric names, fail counting.

Run with: python3 -m pytest perfbench/tests
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dpstab import dispersion, evans, kernel, wave  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    with tr.span("outer"):
        clock.t = 1.0
        with tr.span("a"):
            clock.t = 3.0
        clock.t = 4.0
        with tr.span("b"):
            clock.t = 5.0
            with tr.span("c"):
                clock.t = 6.0
            clock.t = 8.0
        clock.t = 10.0
    outer, a, b, c = tr.spans
    assert [s["parent"] for s in tr.spans] == [None, outer["id"], outer["id"], b["id"]]
    kids = spans.children(tr.spans)
    assert spans.self_time(outer, kids[outer["id"]]) == pytest.approx(10.0 - 2.0 - 4.0)
    assert spans.self_time(b, kids[b["id"]]) == pytest.approx(4.0 - 1.0)
    assert spans.self_time(c, kids[c["id"]]) == pytest.approx(1.0)
    agg = spans.summarize(tr.spans)
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert agg["b"]["self_s"] == pytest.approx(3.0)


def test_summarize_skips_reentrant_spans_and_sums_counts():
    span_list = [_span(0, "f", None, 0.0, 4.0, n=2),
                 _span(1, "f", 0, 1.0, 3.0, n=5),
                 _span(2, "g", None, 5.0, 6.0)]
    agg = spans.summarize(span_list)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(2.0 + 2.0)
    assert agg["f"]["n"] == 7


@pytest.mark.parametrize("name", ["wall_s", "backend.shoot_final.calls",
                                  "cli.run.self_s", "a-b.c_d", "9x", "x" * 64])
def test_good_metric_names(name):
    assert run.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_backend.shoot_final.calls", ".x", "a b",
                                  "a/b", "x" * 65, "é"])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        run.check_name(name)


def test_benchmark_json_names_match_the_harness():
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e, layer = run.load_units()
    for name in list(e2e) + list(layer):
        run.check_name(name)
    res = {"workload": "evolve", "wall_s": 1.0, "adj_wall_s": 1.0, "work": 1.0,
           "work_s": 1.0, "work_speed": 1.0, "peak_rss_mb": 1.0, "figures": {}, "ops": []}
    assert list(run.end_to_end(res, [1.0])) == list(e2e)
    produced = workloads.layer_metrics([], 0)
    # the rest come from the untraced run: rates, failures, accuracy figures
    assert set(layer) - set(produced) == {
        "wall_s", "probe.speed", "trace.overhead_s",
        "evans_lambda_per_s", "evolve_steps_per_s", "fail_frac",
        "winding_digits", "evans_ref_digits", "conj_sym_digits", "lax_residual_digits",
        "kernel_drift_digits", "invariant_drift_digits", "decay_slope", "free_decay_slope"}
    assert set(produced) <= set(layer)
    assert set(sum(run.ACCURACY.values(), ())) <= set(layer)
    # every layer whose metrics the trace produces has a wrapped call site
    site_names = {site[2] for site in workloads.sites()}
    assert {name.rsplit(".", 1)[0] for name in produced} <= site_names


def _ok(value):
    return {"c": (value, 1.0, value <= 1.0)}


def test_fail_counting(tmp_path):
    r = workloads.Run(spans.Tracer(), tmp_path)
    r.attempt("good", lambda: _ok(0.5), work=lambda: 3)
    r.attempt("missed", lambda: _ok(2.0), work=lambda: 5)

    def boom():
        raise RuntimeError("solver blew up")

    r.attempt("raised", boom, work=lambda: 7)
    assert [op["ok"] for op in r.ops] == [True, False, False]
    assert "solver blew up" in r.ops[2]["error"]
    # work counts from operations that ran to the end, checked or not
    assert r.work == 8
    assert run.tally({"ops": r.ops}) == (3, 2)
    res = {"workload": "pointwise", "wall_s": 1.0, "speed": 1.0, "adj_wall_s": 1.0,
           "work": 2.0, "work_s": 0.5, "work_speed": 1.0, "figures": {}, "ops": r.ops}
    names = run.load_units()[1]
    layer = run.per_layer({**res, "layers": {}}, res, names)
    assert layer["fail_frac"] == pytest.approx(2 / 3)
    assert layer["evans_lambda_per_s"] == run.ops_rate(res) == 4.0
    assert set(layer) == set(names)


def test_mean_speed_over_windows():
    # at REF_S a sample has speed 1; half as long, speed 2
    samples = [[0.0, run.REF_S], [1.0, run.REF_S / 2], [2.0, run.REF_S / 4]]
    assert run.mean_speed(samples) == pytest.approx(7 / 3)
    # a sample counts for the window it starts in
    assert run.mean_speed(samples, [(0.5, 1.5), (1.9, 2.0)]) == pytest.approx(2.0)
    assert run.mean_speed(samples, [(0.5, 1.5), (1.9, 2.1)]) == pytest.approx(3.0)
    with pytest.raises(run.BenchError):
        run.mean_speed(samples, [(3.0, 4.0)])


def test_failed_cli_command_is_a_failed_operation(tmp_path):
    r = workloads.Run(spans.Tracer(), tmp_path)
    # k > c/4 is outside the admissible region: the command exits with code 2
    r.attempt("bad", lambda: r.cli("profile", ["profile", "--k", "1", "--c", "1"]))
    assert not r.ops[0]["ok"]
    assert "exited with code 2" in r.ops[0]["error"]


def test_digits():
    assert workloads.digits(0.0) == 16.0
    assert workloads.digits(1e-20) == 16.0
    assert workloads.digits(1e-10) == pytest.approx(10.0)
    assert workloads.digits(math.nan) == 0.0


def test_end_to_end_takes_the_smallest_accuracy_figure():
    res = {"workload": "pointwise", "wall_s": 2.0, "speed": 1.2, "adj_wall_s": 3.0,
           "work": 2.0, "work_s": 0.5, "work_speed": 1.5, "peak_rss_mb": 100.0,
           "figures": {"evans_ref_digits": 12.5, "conj_sym_digits": 16.0,
                       "lax_residual_digits": 9.75}}
    e2e = run.end_to_end(res, [2.0, 1.0, 5.0])
    # the rate divides by the counted operations' time at their own speed
    assert e2e == {"setup_s": 2.0, "adj_wall_s": 3.0, "adj_ops_per_s": 2.0 / 0.75,
                   "peak_rss_mb": 100.0, "accuracy_digits": 9.75}


def test_refinement_counts_from_loop_spans():
    span_list = [
        _span(0, "evans.winding_count", None, 0.0, 10.0),
        _span(1, "evans.winding_loop", 0, 0.0, 6.0),
        _span(2, "evans.evans_batch", 1, 0.0, 4.0, lambdas=64),
        _span(3, "evans.evans_batch", 1, 4.0, 5.0, lambdas=3),
        _span(4, "backend.shoot_final", 3, 4.0, 4.5, lambdas=3, lambda_steps=30),
        _span(5, "evans.evans_batch", 1, 5.0, 6.0, lambdas=2),
        _span(6, "evans.winding_loop", 0, 6.0, 10.0),
        _span(7, "evans.evans_batch", 6, 6.0, 10.0, lambdas=48),
    ]
    m = workloads.layer_metrics(span_list, 123)
    assert m["evans.winding_count.refine_passes"] == 2
    assert m["evans.winding_count.refine_lambdas"] == 5
    assert m["evans.winding_count.refine_s"] == pytest.approx(2.0)
    assert m["evans.evans_batch.lambdas"] == 64 + 3 + 2 + 48
    assert m["backend.shoot_final.narrow_calls"] == 1
    assert m["backend.shoot_final.ns_per_lambda_step"] == pytest.approx(0.5e9 / 30)
    assert m["cli.run.bytes_written"] == 123


def _targets():
    return [(owner, attr) for owner, attr, _, _ in workloads.sites()]


def test_wrappers_are_restored_after_a_traced_run():
    before = [vars(owner)[attr] for owner, attr in _targets()]
    tr = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(workloads.sites()):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr), orig in zip(_targets(), before))
            x = np.linspace(-8.0, 8.0, 161)
            kernel.conserved(wave.WaveParams(0.1, 1.0), 0.1,
                             m=0.1 + 0.05 * np.exp(-x * x))
            raise RuntimeError("leave the block early")
    assert [vars(owner)[attr] for owner, attr in _targets()] == before
    assert evans.char_roots is dispersion.char_roots
    # from m, conserved inverts (1 - d^2) and (4 - d^2): two calls in its span
    (top,) = [s for s in tr.spans if s["name"] == "kernel.conserved"]
    inner = [s for s in tr.spans if s["name"] == "kernel.helmholtz_solve"]
    assert len(inner) == 2
    assert all(s["parent"] == top["id"] for s in inner)


def test_missing_site_fails_and_restores_earlier_wrappers():
    class Owner:
        @staticmethod
        def present():
            return 1

    original = vars(Owner)["present"]
    tr = spans.Tracer()
    with pytest.raises(AttributeError, match="Owner.absent"):
        with tr.installed([(Owner, "present", "x.present", None),
                           (Owner, "absent", "x.absent", None)]):
            pass
    assert vars(Owner)["present"] is original
    assert not hasattr(Owner, "absent")
