"""Wall time per RK4 step of the linearized and nonlinear evolve flows.

The linearized flow steps the rfft half-spectrum of its state (two real
transforms per RK4 stage); the nonlinear flow steps the momentum on the grid
(one forward and three inverse real transforms per stage).  Each flow is run
once to fill the profile caches (kernel basis, spectral radius), then timed
over `--repeats` runs to T = 5 with two records and no kernel projection, so
the time is that of the steps; the median per step is printed.

Usage: python benchmarks/bench_evolve.py [--repeats 5]
"""

import argparse
import statistics
import time

import numpy as np

from dpstab.evolve import linear_evolve, nonlinear_evolve
from dpstab.wave import WaveParams, solve_profile

T = 5.0


def _ms_per_step(run, repeats):
    """Median wall time per RK4 step over repeats, and the step count."""
    run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        traj = run()
        times.append(time.perf_counter() - t0)
    steps = round(traj.T / traj.dt)
    return statistics.median(times) / steps * 1e3, steps


def main():
    ap = argparse.ArgumentParser(
        description="time one RK4 step of the linearized and nonlinear flows")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per flow, the median is reported (default 5)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be positive")

    params = WaveParams(k=0.1, c=1.0)

    prof = solve_profile(params, L=40.0, h=0.02)
    w0 = np.exp(-((prof.xi - 2.0) ** 2) / 2.0)
    ms, steps = _ms_per_step(
        lambda: linear_evolve(w0, prof, 0.5, T, project_out=False, n_records=2),
        args.repeats)
    print(f"linear flow    (L=40, h=0.02, alpha=0.5, n_fft={prof.xi.size - 1}): "
          f"{steps} steps, {ms:.3f} ms per RK4 step")

    prof = solve_profile(params, L=60.0, h=0.05)
    m0 = prof.mu.copy()
    ms, steps = _ms_per_step(
        lambda: nonlinear_evolve(m0, params, T, prof.h, n_records=2),
        args.repeats)
    print(f"nonlinear flow (L=60, h=0.05, n_fft={prof.xi.size - 1}): "
          f"{steps} steps, {ms:.3f} ms per RK4 step")
    print(f"median of {args.repeats} runs of T={T:g}")


if __name__ == "__main__":
    main()
