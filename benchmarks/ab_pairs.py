"""Alternated benchmark pairs of one workload between two checkouts.

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`
in the parent checkout and in the change checkout, the parent first in even
pairs and the change first in odd ones; S is the `run_seconds` of the parent's
BENCHMARK.json.  Every `__pycache__` directory under
both checkouts is removed before every run, so neither side imports bytecode
left by an earlier run or test run.  A run that exits non-zero is recorded
with its pair, side, seed, exit code and last line of standard error, and the
series goes on with the next run.

For each end-to-end metric of BENCHMARK.json (read from the parent checkout)
the script prints, over the complete pairs (both runs finished), each side's
median and quartiles, the pairs the change won (ties count for neither side)
and whether a gain may be claimed: the change wins at least nine tenths of
the pairs, the medians differ in the metric's better direction by more than
the parent's interquartile range, and neither more operations nor more runs
failed than at the parent.  With fewer than 2 complete pairs every metric is
unresolved.  The exit code is 1 when any run failed, else 0, whatever the
verdicts.

With --record PATH the series is also written into the JSON file PATH (a
`BENCH_*.json` record) as its entry under "workloads", beside the entries of
other workloads already there: each metric's medians, quartiles and verdict,
per complete pair each side's metrics and the figures its operations checked
(the `op` lines of perfbench, such as kernel_drift or invariant_drift), and
the failed runs.

Usage: python benchmarks/ab_pairs.py PARENT CHANGE --workload evolve
           [--pairs 10] [--seed 1] [--record BENCH.json]
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def summary(values):
    """Median and the first and third quartiles of a list of at least 2 values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent, change, better, failed=(0, 0), failed_runs=(0, 0)):
    """The gain rule for one metric over pairs parent[i], change[i].

    better is "lower" or "higher"; failed holds the failed operations of the
    parent's and the change's runs, failed_runs the runs of each side that
    exited non-zero.  Returns the pairs won by the change, the median gap in
    the better direction, the parent's interquartile range and whether a
    gain may be claimed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least 2 pairs, the same number on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = summary(parent)
    gap = sign * (p_med - statistics.median(change))
    iqr = p_q3 - p_q1
    holds = (10 * won >= 9 * len(parent) and gap > iqr and failed[1] <= failed[0]
             and failed_runs[1] <= failed_runs[0])
    return {"won": won, "pairs": len(parent), "gap": gap, "parent_iqr": iqr,
            "holds": holds}


# "name=value (limit ...)", one checked figure of a perfbench `op` line
_CHECK = re.compile(r"(\w+)=(\S+) \(limit ")


def op_checks(stdout: str) -> dict:
    """{operation: {check: figure}} from the `op` lines of a perfbench run."""
    return {line.split()[1]: {name: float(value) for name, value in _CHECK.findall(line)}
            for line in stdout.splitlines() if line.startswith("op ")}


def _sig(x: float) -> float:
    return float(f"{x:.4g}")


def write_record(path: Path, workload: str, seeds: list, metrics: list, values: dict,
                 verdicts: dict, checks: dict, failed_ops: str, provenance: dict | None,
                 failed_runs: list) -> None:
    """Put one workload's series into the JSON record at path, keeping the
    record's other entries.  seeds, values and checks cover the complete
    pairs, failed_runs lists the runs that exited non-zero, a verdict of None
    is unresolved, and provenance is one run's perfbench provenance (None
    when no run finished)."""
    all_seeds = sorted(set(seeds) | {f["seed"] for f in failed_runs})
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if provenance is not None:
        record.setdefault("environment", {
            **{key: provenance[key]
               for key in ("python", "numpy", "scipy", "backend", "nproc")},
            "machine": platform.machine()})
    block = {}
    for m in metrics:
        v = verdicts[m["name"]]
        if v is None:
            block[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                "gain_holds": False, "unresolved": True}
            continue
        block[m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            **{side: dict(zip(("median", "q1", "q3"), map(_sig, summary(series[m["name"]]))))
               for side, series in values.items()},
            "won": v["won"], "gap": _sig(v["gap"]), "parent_iqr": _sig(v["parent_iqr"]),
            "gain_holds": v["holds"]}
    per_pair = [{"seed": seed,
                 **{m["name"]: {side: _sig(series[m["name"]][i])
                                for side, series in values.items()} for m in metrics},
                 "checks": {side: figures[i] for side, figures in checks.items()}}
                for i, seed in enumerate(seeds)]
    record.setdefault("workloads", {})[workload] = {
        "pairs": len(all_seeds), "complete_pairs": len(seeds),
        "seeds": f"{all_seeds[0]}-{all_seeds[-1]}", "metrics": block, "per_pair": per_pair,
        "failed_operations": failed_ops, "failed_runs": failed_runs}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def clear_bytecode(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


class RunFailed(RuntimeError):
    """A perfbench run that exited non-zero, with its exit code and the last
    line of its standard error."""

    def __init__(self, code: int, last: str):
        super().__init__(f"exit code {code}: {last}")
        self.code, self.last = code, last


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in a checkout; its summary JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1])
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["checks"] = op_checks(proc.stdout)
    res["provenance"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                             if line.startswith("provenance "))
    return res


def main():
    ap = argparse.ArgumentParser(
        description="alternated perfbench pairs of one workload between two checkouts")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("contour", "pointwise", "evolve"))
    ap.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    ap.add_argument("--record", type=Path,
                    help="JSON record to write the series into, under its workload")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {root}")
    with open(roots["parent"] / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    runs, failures = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        pair = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            for root in roots.values():
                clear_bytecode(root)
            try:
                pair[side] = run_once(roots[side], args.workload, seed, seconds)
            except RunFailed as exc:
                failures.append({"pair": i + 1, "side": side, "seed": seed,
                                 "exit_code": exc.code, "stderr": exc.last})
                print(f"error: pair {i + 1}, {side}, seed {seed}: {exc}", file=sys.stderr)
        runs.append(pair)
        if len(pair) == len(roots):
            print(f"pair {i + 1}/{args.pairs} (seed {seed}): " + ", ".join(
                f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g} -> "
                f"{pair['change']['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)

    # verdicts and operation counts over the pairs whose two runs both finished
    complete = [(args.seed + i, pair) for i, pair in enumerate(runs) if len(pair) == len(roots)]
    values = {side: {m["name"]: [pair[side]["metrics"][m["name"]]["value"]
                                 for _, pair in complete] for m in metrics} for side in roots}
    checks = {side: [pair[side]["checks"] for _, pair in complete] for side in roots}
    failed = {side: sum(pair[side]["failed"] for _, pair in complete) for side in roots}
    attempted = {side: sum(pair[side]["attempted"] for _, pair in complete) for side in roots}
    failed_runs = {side: sum(f["side"] == side for f in failures) for side in roots}
    failed_ops = (f"parent {failed['parent']} of {attempted['parent']}, "
                  f"change {failed['change']} of {attempted['change']}")
    print(f"\n{args.workload}, {args.pairs} alternated pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, {len(complete)} complete; "
          f"failed runs: parent {failed_runs['parent']}, change {failed_runs['change']}; "
          f"failed operations: {failed_ops}")
    verdicts = {}
    for m in metrics:
        if len(complete) < 2:
            verdicts[m["name"]] = None
            print(f"{m['name']}: unresolved, {len(complete)} complete pairs")
            continue
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        v = verdicts[m["name"]] = verdict(
            parent, change, m["better"], (failed["parent"], failed["change"]),
            (failed_runs["parent"], failed_runs["change"]))
        sides = "  ".join(f"{side} {med:.4g} [{q1:.4g}-{q3:.4g}]" for side, (med, q1, q3)
                          in (("parent", summary(parent)), ("change", summary(change))))
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): {sides}  "
              f"won {v['won']}/{v['pairs']}, gap {v['gap']:.4g} vs parent IQR "
              f"{v['parent_iqr']:.4g}: gain {'holds' if v['holds'] else 'not shown'}")
    if args.record:
        provenance = next((res["provenance"] for pair in reversed(runs)
                           for res in pair.values()), None)
        write_record(args.record, args.workload, [seed for seed, _ in complete], metrics,
                     values, verdicts, checks, failed_ops, provenance, failures)
        print(f"wrote {args.workload} into {args.record}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
