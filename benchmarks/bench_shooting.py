"""Wall time of the shooting march on Evans contour batches, and of the
half-step samples it marches over.

The march takes one lambda at a time: it builds the RK4 step maps of a chunk
of steps into a workspace allocated per call and runs the step recursion as
one banded triangular solve (BLAS ztbsv), so its cost grows linearly with the
number of lambda.  The samples (`half_step_samples`, one profile evaluation
on the 4 L nsub / h + 1 half-step points) are timed first, on a fresh profile
cache each time, in points per second.

Each batch size is timed separately.  Beside each time the script prints
the count of lambda actually marched and the time per marched lambda-step
(one RK4 step of one lambda; each lambda takes a forward and an adjoint
march of L/hs steps).  evans_batch marches each exact conjugate pair of
lambda once.  The linspace circle used here is not exactly closed under
conjugation (node n - j is in general not bit for bit the conjugate of node
j; at 64 nodes a single pair is), so nearly every node is marched and the
timing stays that of the raw batch march.

Usage: python benchmarks/bench_shooting.py [--batch 1 16 64] [--nsub 10] [--repeats 5]
"""

import argparse
import dataclasses
import time

import numpy as np

from dpstab import _backend
from dpstab.evans import evans_batch
from dpstab.wave import WaveParams, half_step_samples, solve_profile


def _time_march(lams, profile, alpha, nsub, repeats):
    """Best-of-repeats wall time and the number of lambda marched per batch."""
    shoot = _backend.shoot_final
    columns = []

    def counting(p0, p1, p2, pinv, lams, *rest):
        columns.append(len(lams))
        return shoot(p0, p1, p2, pinv, lams, *rest)

    _backend.shoot_final = counting
    try:
        # warmup: the cached coefficient arrays and the count
        evans_batch(lams, profile, alpha=alpha, nsub=nsub)
        _backend.shoot_final = shoot
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            evans_batch(lams, profile, alpha=alpha, nsub=nsub)
            best = min(best, time.perf_counter() - t0)
    finally:
        _backend.shoot_final = shoot
    return best, columns[0]


def _time_samples(profile, nsub, repeats):
    """Best-of-repeats wall time of `half_step_samples` and its point count."""
    best = float("inf")
    for _ in range(repeats):
        fresh = dataclasses.replace(profile)  # an empty sample cache
        t0 = time.perf_counter()
        arrays = half_step_samples(fresh, nsub)
        best = min(best, time.perf_counter() - t0)
    return best, 4 * arrays["n"] + 1


def main():
    ap = argparse.ArgumentParser(
        description="time the shooting march on Evans contour batches")
    ap.add_argument("--batch", type=int, nargs="+", default=[1, 16, 64],
                    help="numbers of lambda nodes marched together, one timing "
                         "each (default 1 16 64)")
    ap.add_argument("--nsub", type=int, default=10,
                    help="integration substeps per profile grid cell (default 10)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed repetitions, best is reported (default 5)")
    ap.add_argument("--alpha", type=float, default=0.5,
                    help="exponential weight for the marched system (default 0.5)")
    args = ap.parse_args()
    if min(args.batch) < 1 or args.repeats < 1:
        ap.error("--batch and --repeats must be positive")

    params = WaveParams(k=0.1, c=1.0)
    profile = solve_profile(params, L=40.0, h=0.02)
    nsteps = round(profile.L / (profile.h / args.nsub))
    print(f"workload: two marches of {nsteps} RK4 steps per lambda (L={profile.L:g}, "
          f"h={profile.h:g}, nsub={args.nsub}, alpha={args.alpha:g})")

    t, points = _time_samples(profile, args.nsub, args.repeats)
    print(f"half-step samples at nsub={args.nsub}: {points} points in {t * 1e3:.1f} ms "
          f"({points / t:.3g} points per s)")
    for batch in args.batch:
        theta = np.linspace(0.0, 2.0 * np.pi, batch, endpoint=False)
        lams = 0.05 * np.exp(1j * theta)
        t, marched = _time_march(lams, profile, args.alpha, args.nsub, args.repeats)
        ns = t / (2 * nsteps * marched) * 1e9
        print(f"batch of {batch} lambda nodes: {t * 1e3:9.1f} ms   ({marched} lambda "
              f"marched, {ns:6.0f} ns per lambda-step)")


if __name__ == "__main__":
    main()
