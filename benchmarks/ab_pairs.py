"""Alternated benchmark pairs of one workload between two checkouts.

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`
in the parent checkout and in the change checkout, the parent first in even
pairs and the change first in odd ones; S is the `run_seconds` of the parent's
BENCHMARK.json.  Every `__pycache__` directory under
both checkouts is removed before every run, so neither side imports bytecode
left by an earlier run or test run.  A run that exits non-zero stops the
series with its pair, side and standard error.

For each end-to-end metric of BENCHMARK.json (read from the parent checkout)
the script prints each side's median and quartiles, the pairs the change won
(ties count for neither side) and whether a gain may be claimed: the change
wins at least nine tenths of the pairs, the medians differ in the metric's
better direction by more than the parent's interquartile range, and no more
operations failed than at the parent.  The exit code is 0 when every run
finished, whatever the verdicts.

Usage: python benchmarks/ab_pairs.py PARENT CHANGE --workload evolve
           [--pairs 10] [--seed 1]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def summary(values):
    """Median and the first and third quartiles of a list of at least 2 values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent, change, better, failed=(0, 0)):
    """The gain rule for one metric over pairs parent[i], change[i].

    better is "lower" or "higher"; failed holds the failed operations of the
    parent's and the change's runs.  Returns the pairs won by the change, the
    median gap in the better direction, the parent's interquartile range and
    whether a gain may be claimed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least 2 pairs, the same number on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = summary(parent)
    gap = sign * (p_med - statistics.median(change))
    iqr = p_q3 - p_q1
    holds = 10 * won >= 9 * len(parent) and gap > iqr and failed[1] <= failed[0]
    return {"won": won, "pairs": len(parent), "gap": gap, "parent_iqr": iqr,
            "holds": holds}


def clear_bytecode(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in a checkout; its summary JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(
        description="alternated perfbench pairs of one workload between two checkouts")
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("contour", "pointwise", "evolve"))
    ap.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
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

    values = {side: {m["name"]: [] for m in metrics} for side in roots}
    failed = {side: 0 for side in roots}
    attempted = {side: 0 for side in roots}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            for root in roots.values():
                clear_bytecode(root)
            try:
                res = run_once(roots[side], args.workload, seed, seconds)
            except RuntimeError as exc:
                print(f"error: pair {i + 1}, {side}, seed {seed}: {exc}", file=sys.stderr)
                return 1
            failed[side] += res["failed"]
            attempted[side] += res["attempted"]
            for name, series in values[side].items():
                series.append(res["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs} (seed {seed}): " + ", ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)

    print(f"\n{args.workload}, {args.pairs} alternated pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}; failed operations: parent "
          f"{failed['parent']} of {attempted['parent']}, change {failed['change']} "
          f"of {attempted['change']}")
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        v = verdict(parent, change, m["better"], (failed["parent"], failed["change"]))
        sides = "  ".join(f"{side} {med:.4g} [{q1:.4g}-{q3:.4g}]" for side, (med, q1, q3)
                          in (("parent", summary(parent)), ("change", summary(change))))
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): {sides}  "
              f"won {v['won']}/{v['pairs']}, gap {v['gap']:.4g} vs parent IQR "
              f"{v['parent_iqr']:.4g}: gain {'holds' if v['holds'] else 'not shown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
