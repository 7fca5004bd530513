"""dpstab benchmark: three workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload contour|pointwise|evolve \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the dpstab sources under
src/ there.  Each workload is a fixed list of operations, sized to finish in
about --seconds on two cores (the value is recorded, not used to stretch the
run), and runs once, cold, in a fresh single-threaded process, one process at
a time.

--trace 0 measures the end-to-end metrics: set-up time (the median of
SETUP_SAMPLES fresh interpreters importing every dpstab module), then one
untraced workload process.  --trace 1 runs the workload untraced and then
traced, and reports the per-layer metrics of the traced run with the tracing
overhead (the difference of the two adjusted wall times).

All processes are pinned to one CPU.  Beside the set-up samples and each
workload process runs probe.py, which samples the speed of that CPU; setup_s,
adj_wall_s and adj_ops_per_s are scaled to the probe's reference speed REF_S
(see probe.py for why).  The raw wall time is reported too, as the per-layer
wall_s.

Every metric is printed by name with its unit; the last line of standard
output is the JSON object {"correct", "attempted", "failed", "metrics"}.
Metric names and units are read from BENCHMARK.json at the root of the
checkout.  Results and spans are also written under .bench_build/perfbench/.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("contour", "pointwise", "evolve")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# probe sample duration at the reference speed (about the median on a
# 2-vCPU x86-64 VM); adj_wall_s = wall_s * REF_S * mean(1 / probe samples)
REF_S = 5e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MODULES = ("dpstab", "dpstab._backend", "dpstab.wave", "dpstab.dispersion",
           "dpstab.evans", "dpstab.lax", "dpstab.kernel", "dpstab.evolve",
           "dpstab.cli")

# a metric name: a letter or digit, then up to 63 letters, digits, _ . -
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# the figures whose smallest value is a workload's accuracy_digits
ACCURACY = {
    "contour": ("winding_digits",),
    "pointwise": ("evans_ref_digits", "conj_sym_digits", "lax_residual_digits"),
    "evolve": ("kernel_drift_digits", "invariant_drift_digits"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd, env, deadline) -> str:
    """Run one child process to completion; return its standard output."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"timed out: {' '.join(cmd[1:3])}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with code {proc.returncode}")
    return proc.stdout


def mean_speed(samples, windows=None) -> float:
    """The CPU's mean speed relative to REF_S over probe samples
    [start, duration], or over those that start inside one of windows."""
    if windows is not None:
        samples = [p for p in samples if any(a <= p[0] < b for a, b in windows)]
    if not samples:
        raise BenchError("the speed probe took no sample")
    return REF_S * statistics.fmean(1.0 / p[1] for p in samples)


@contextmanager
def probed(env):
    """Run probe.py beside the with-block; on exit the yielded dict holds its
    samples and speed, the CPU's mean speed over the block."""
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py")], env=env,
                             cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
    box = {}
    try:
        yield box
        samples = json.loads(probe.communicate(timeout=30)[0])
    finally:
        probe.kill()
        probe.wait()
    box["samples"] = samples
    box["speed"] = mean_speed(samples)


def import_seconds(env, deadline) -> float:
    """Time to import every dpstab module in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in MODULES)
            + "; print(time.perf_counter() - t)")
    return float(_run([sys.executable, "-c", code], env, deadline).split()[-1])


def run_workload(workload, seed, traced, out, env, deadline) -> dict:
    """One workload process, with the speed probe running beside it."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    with probed(env) as probe:
        lines = _run(cmd, env, deadline).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no result")
    res = json.loads(lines[-1])
    res["speed"] = probe["speed"]
    res["adj_wall_s"] = res["wall_s"] * res["speed"]
    res["work_speed"] = (mean_speed(probe["samples"], res["work_windows"])
                         if res["work_windows"] else 0.0)
    return res


def tally(*results) -> tuple[int, int]:
    ops = [op for res in results for op in res["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: want {NAME_RE.pattern}")
    return name


def load_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return tuple({check_name(m["name"]): m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def ops_rate(res: dict) -> float:
    """The workload's work per probe-adjusted second of the operations that
    do it: Evans lambda per second on contour (the nodes of the requested
    contours, over the two winding commands) and pointwise (the single-lambda
    evaluations, over those alone), RK4 time steps per second on evolve (over
    the linear and nonlinear commands).  The time is scaled by the probe's
    speed during those operations.  0 if no such operation succeeded."""
    adj_work_s = res["work_s"] * res["work_speed"]
    return res["work"] / adj_work_s if adj_work_s > 0 else 0.0


def end_to_end(res: dict, setup: list[float]) -> dict:
    """End-to-end metrics of one untraced run.

    adj_ops_per_s is ops_rate(res); accuracy_digits is the smallest of the
    workload's accuracy figures.
    """
    figures = res["figures"]
    return {
        "setup_s": statistics.median(setup),
        "adj_wall_s": res["adj_wall_s"],
        "adj_ops_per_s": ops_rate(res),
        "peak_rss_mb": res["peak_rss_mb"],
        "accuracy_digits": min((figures.get(f, 0.0) for f in ACCURACY[res["workload"]]),
                               default=0.0),
    }


def per_layer(traced: dict, base: dict, names) -> dict:
    """Per-layer metrics of a traced run, 0 for layers the workload skips.

    Rates, fail_frac and accuracy figures come from the untraced run; the
    rate is reported under the name of the workload's kind of work, and is
    the same figure as the end-to-end adj_ops_per_s.
    """
    out = {name: 0 for name in names}
    out.update(traced["layers"])
    out["wall_s"] = base["wall_s"]
    out["probe.speed"] = base["speed"]
    out["trace.overhead_s"] = traced["adj_wall_s"] - base["adj_wall_s"]
    key = "evolve_steps_per_s" if base["workload"] == "evolve" else "evans_lambda_per_s"
    out[key] = ops_rate(base)
    attempted, failed = tally(base)
    out["fail_frac"] = failed / attempted if attempted else 1.0
    out.update({k: v for k, v in base["figures"].items() if k in names})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dpstab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "dpstab" / "__init__.py").is_file():
        print(f"error: no dpstab sources under {SRC}", file=sys.stderr)
        return 2

    # the probe must share the workload's CPU to measure its speed
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{tag}-{os.getpid()}"
    try:
        e2e_units, layer_units = load_units()
        if args.trace:
            base = run_workload(args.workload, args.seed, False, out / "untraced", env, deadline)
            traced = run_workload(args.workload, args.seed, True, out / "traced", env, deadline)
            metrics, units, runs = per_layer(traced, base, layer_units), layer_units, (base, traced)
        else:
            with probed(env) as probe:
                setup = [import_seconds(env, deadline) for _ in range(SETUP_SAMPLES)]
            setup = [t * probe["speed"] for t in setup]
            base = run_workload(args.workload, args.seed, False, out, env, deadline)
            metrics, units, runs = end_to_end(base, setup), e2e_units, (base,)
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = tally(*runs)
    if not attempted:
        print("error: the workload attempted no operation", file=sys.stderr)
        return 1
    provenance = {**base["provenance"], "nproc": nproc, "cpu": cpu, "seconds": args.seconds,
                  "trace": args.trace, "setup_samples": SETUP_SAMPLES}
    for op in (op for r in runs for op in r["ops"]):
        print(f"op {op['op']:<18} {'ok' if op['ok'] else 'FAILED':<6} {op['s']:9.3f} s  "
              + "  ".join(f"{k}={v[0]!r} (limit {v[1]!r})" for k, v in op["checks"].items()))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for r, label in zip(runs, ("untraced", "traced")):
        print(f"{label} run: wall_s = {r['wall_s']!r} s, probe speed = {r['speed']!r}, "
              f"adj_wall_s = {r['adj_wall_s']!r} s")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "provenance": provenance, "runs": runs}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
