"""Wall time per RK4 step of the linearized and nonlinear evolve flows.

The linearized flow steps the rfft half-spectrum of its state, its RK4 step
in Horner form (one inverse and one forward real transform per stage).  The
nonlinear flow carries the half-spectrum of m - k: a step opens with
one 4-row inverse transform to m - k, u - k, u' and m', each later stage
makes one forward transform of m - k and one 3-row inverse to u - k, u' and
m', and the new m - k one forward transform: 4 forward and 4 inverse per
step.  Each flow is run to T1 = 2.5 and to T2 = 5 with two records and no
kernel projection, and the time per step is (t(T2) - t(T1)) / (n2 - n1): the
set-up of a run (kernel basis, symbols and step bound) is the same at both
lengths and cancels.  Both flows run on the CLI's default grid of their
subcommand (L and h of `linear-evolve` and `nonlinear-evolve`).
One untimed run comes first; the median over `--repeats` pairs is printed.

Usage: python benchmarks/bench_evolve.py [--repeats 5]
"""

import argparse
import statistics
import time

import numpy as np

from dpstab.cli import _COMMANDS
from dpstab.evolve import linear_evolve, nonlinear_evolve
from dpstab.wave import WaveParams, solve_profile

T1, T2 = 2.5, 5.0


def _timed(run, T):
    """Wall time of one run to T, and its RK4 step count."""
    t0 = time.perf_counter()
    traj = run(T)
    return time.perf_counter() - t0, round(traj.T / traj.dt)


def _ms_per_step(run, repeats):
    """Median over repeats of (t(T2) - t(T1)) / (n2 - n1) per RK4 step, and n2."""
    run(T1)
    per_step = []
    for _ in range(repeats):
        (t1, n1), (t2, n2) = _timed(run, T1), _timed(run, T2)
        per_step.append((t2 - t1) / (n2 - n1))
    return statistics.median(per_step) * 1e3, n2


def _cli_grid(command):
    """The default L and h of a CLI subcommand."""
    table = _COMMANDS[command][1]
    return table["L"].default, table["h"].default


def main():
    ap = argparse.ArgumentParser(
        description="time one RK4 step of the linearized and nonlinear flows")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed run pairs per flow, the median is reported (default 5)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be positive")

    params = WaveParams(k=0.1, c=1.0)

    L, h = _cli_grid("linear-evolve")
    prof = solve_profile(params, L=L, h=h)
    w0 = np.exp(-((prof.xi - 2.0) ** 2) / 2.0)
    ms, steps = _ms_per_step(
        lambda T: linear_evolve(w0, prof, 0.5, T, project_out=False, n_records=2),
        args.repeats)
    print(f"linear flow    (L={L:g}, h={h:g}, alpha=0.5, n_fft={prof.xi.size - 1}): "
          f"{steps} steps, {ms:.3f} ms per RK4 step")

    L, h = _cli_grid("nonlinear-evolve")
    prof = solve_profile(params, L=L, h=h)
    m0 = prof.mu.copy()
    ms, steps = _ms_per_step(
        lambda T: nonlinear_evolve(m0, params, T, prof.h, n_records=2),
        args.repeats)
    print(f"nonlinear flow (L={L:g}, h={h:g}, n_fft={prof.xi.size - 1}): "
          f"{steps} steps, {ms:.3f} ms per RK4 step")
    print(f"median of {args.repeats} run pairs, T={T1:g} and T={T2:g}")


if __name__ == "__main__":
    main()
