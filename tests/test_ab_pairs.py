import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

# ten parent runs with median 2.3 and quartiles 2.2 and 2.4 (IQR 0.2)
PARENT = [2.0, 2.2, 2.2, 2.3, 2.3, 2.3, 2.3, 2.4, 2.4, 2.6]


def test_gain_needs_nine_tenths_of_pairs_won():
    change = [p - 0.3 for p in PARENT]
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert (v["won"], v["pairs"], v["holds"]) == (10, 10, True)
    assert v["gap"] == pytest.approx(0.3) and v["parent_iqr"] == pytest.approx(0.2)
    # nine wins still hold; a tie counts for neither side, so eight do not
    assert ab_pairs.verdict(PARENT, change[:-1] + [3.0], "lower")["holds"]
    v = ab_pairs.verdict(PARENT, change[:-2] + [PARENT[-2], 3.0], "lower")
    assert (v["won"], v["holds"]) == (8, False)


def test_gain_needs_median_gap_above_parent_iqr():
    # every pair won, but by less than the parent's own spread
    change = [p - 0.1 for p in PARENT]
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert (v["won"], v["holds"]) == (10, False)


def test_direction_and_failures():
    rates = [1000.0 + 10.0 * i for i in range(10)]
    faster = [r + 200.0 for r in rates]
    assert ab_pairs.verdict(rates, faster, "higher")["holds"]
    assert not ab_pairs.verdict(rates, faster, "lower")["holds"]
    assert ab_pairs.verdict(rates, faster, "lower")["won"] == 0
    # more failed operations than at the parent void the gain
    assert not ab_pairs.verdict(rates, faster, "higher", failed=(0, 1))["holds"]
    for bad in (([1.0], [0.5], "lower"), ([1.0, 2.0], [1.0], "lower"),
                ([1.0, 2.0], [0.5, 1.0], "smaller")):
        with pytest.raises(ValueError):
            ab_pairs.verdict(*bad)


_RUN_OUTPUT = """\
op linear-evolve      ok         0.140 s  decay_slope=-0.3466 (limit -0.175)  kernel_drift=5.27e-10 (limit 1e-06)
op nonlinear-evolve   ok         0.239 s  invariant_drift=1.29e-12 (limit 1e-06)
op free-evolve        FAILED     0.045 s
adj_wall_s = 0.61 s
"""


def test_op_checks_reads_every_operation():
    assert ab_pairs.op_checks(_RUN_OUTPUT) == {
        "linear-evolve": {"decay_slope": -0.3466, "kernel_drift": 5.27e-10},
        "nonlinear-evolve": {"invariant_drift": 1.29e-12},
        "free-evolve": {}}


def test_record_keeps_other_workloads(tmp_path):
    path = tmp_path / "BENCH.json"
    metrics = [{"name": "adj_wall_s", "unit": "s", "better": "lower"}]
    prov = {"python": "3", "numpy": "2", "scipy": "1", "backend": "numpy", "nproc": 2}
    change = [p - 0.3 for p in PARENT]
    values = {"parent": {"adj_wall_s": PARENT}, "change": {"adj_wall_s": change}}
    verdicts = {"adj_wall_s": ab_pairs.verdict(PARENT, change, "lower")}
    checks = {side: [ab_pairs.op_checks(_RUN_OUTPUT)] * 10 for side in values}
    seeds = list(range(401, 411))
    for workload in ("evolve", "contour"):
        ab_pairs.write_record(path, workload, seeds, metrics, values, verdicts, checks,
                              "parent 0 of 30, change 0 of 30", prov, [])
    record = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(record["workloads"]) == ["contour", "evolve"]
    entry = record["workloads"]["evolve"]
    assert entry["seeds"] == "401-410" and entry["metrics"]["adj_wall_s"]["gain_holds"]
    assert entry["per_pair"][0]["adj_wall_s"] == {"parent": 2.0, "change": 1.7}
    assert entry["per_pair"][0]["checks"]["change"]["linear-evolve"]["kernel_drift"] == 5.27e-10


def _fake_run(metrics, fail_at):
    """run_once stand-in: adj_wall_s 2.0 at the parent and 1.0 at the change,
    and exit code 1 for (side, seed) in fail_at."""
    def run_once(root, workload, seed, seconds):
        side = root.name
        if (side, seed) in fail_at:
            raise ab_pairs.RunFailed(1, "error: the speed probe took no sample")
        value = 2.0 if side == "parent" else 1.0
        return {"metrics": {m["name"]: {"value": value} for m in metrics},
                "failed": 0, "attempted": 2, "checks": {"op": {}},
                "provenance": {"python": "3", "numpy": "2", "scipy": "1",
                               "backend": "numpy", "nproc": 2}}
    return run_once


@pytest.mark.parametrize("fail_at, complete, holds", [
    ({("change", 3)}, 9, False),
    ({("parent", 3)}, 9, True),
    ({("change", s) for s in range(1, 10)}, 1, None),
], ids=["change-fails", "parent-fails", "one-complete-pair"])
def test_failed_run_ends_no_series(tmp_path, monkeypatch, capsys, fail_at, complete, holds):
    # a failed run is recorded and the series goes on; verdicts use the
    # complete pairs, a gain cannot hold with more failed runs at the change,
    # and fewer than 2 complete pairs leave every metric unresolved
    metrics = [{"name": "adj_wall_s", "unit": "s", "better": "lower"}]
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": metrics, "run_seconds": 1}))
    monkeypatch.setattr(ab_pairs, "run_once", _fake_run(metrics, fail_at))
    record = tmp_path / "BENCH.json"
    monkeypatch.setattr("sys.argv", ["ab_pairs.py", str(tmp_path / "parent"),
                                     str(tmp_path / "change"), "--workload", "evolve",
                                     "--seed", "1", "--record", str(record)])
    assert ab_pairs.main() == 1
    out, err = capsys.readouterr()
    assert err.count("exit code 1: error: the speed probe took no sample") == len(fail_at)
    failed = {side: sum(s == side for s, _ in fail_at) for side in ("parent", "change")}
    assert f"failed runs: parent {failed['parent']}, change {failed['change']}" in out
    entry = json.loads(record.read_text(encoding="utf-8"))["workloads"]["evolve"]
    assert (entry["pairs"], entry["complete_pairs"], entry["seeds"]) == (10, complete, "1-10")
    assert len(entry["per_pair"]) == complete
    assert sorted((f["side"], f["seed"]) for f in entry["failed_runs"]) == sorted(fail_at)
    assert all(f["exit_code"] == 1 for f in entry["failed_runs"])
    verdict = entry["metrics"]["adj_wall_s"]
    if holds is None:
        assert verdict["unresolved"] and "adj_wall_s: unresolved" in out
    else:
        assert verdict["won"] == complete and verdict["gain_holds"] is holds
