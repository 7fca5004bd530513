"""Core-speed probe that runs beside a workload process on the same CPU.

Usage: python3 perfbench/probe.py   (stops when its standard input closes)

On a shared 2-vCPU x86-64 VM a core switches between a fast and a slow
state every few seconds (a fixed loop runs ~0.55x or ~1.1x its median time),
and the share of time in each state drifts from minute to minute, so raw
wall times of identical runs spread by 15-30% (IQR/median over 10 runs).
Every PERIOD_S the probe wakes, preempts the workload and times a fixed
small-array numpy loop, the same kind of work as the shooting march.  Its
samples give the core's mean speed over the run, by which run.py scales wall
times to a fixed reference speed.  The probe costs about 1% of the core.

On exit it prints its samples as one JSON list of [start, duration] pairs in
seconds; start is on time.monotonic(), the clock of the workload's spans.
"""
import json
import select
import sys
import time

import numpy as np

PERIOD_S = 0.05
REPS = 60


def sample(x) -> float:
    t = time.perf_counter()
    for _ in range(REPS):
        y = x * 1.0001 + 0.5 * x
        y[0] = y[1] - y[2]
    return time.perf_counter() - t


def main() -> None:
    x = np.random.default_rng(0).standard_normal((3, 64)) + 0j
    out = []
    # wait on stdin instead of sleeping: it becomes readable at EOF
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        out.append([time.monotonic(), sample(x)])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
