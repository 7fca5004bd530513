"""Wall-time comparison of the two shooting backends on the Evans batch march.

The marching kernel ships in two interchangeable implementations: a numba
compiled loop and a numpy path, normally selected once at import from the
DPSTAB_NO_NUMBA environment variable.  The numpy path marches one lambda at
a time: it forms the RK4 step maps of a chunk of steps as whole-array
expressions and runs the step recursion as one banded triangular solve
(BLAS ztbsv), so its cost grows linearly with the number of lambda.  Here
the selection flag is toggled at run time so a single process times both
paths on identical inputs, and the printed max relative difference confirms
they agree.  When the process was started with DPSTAB_NO_NUMBA=1 (or numba
is not installed) only the numpy path is measured.

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
import time

import numpy as np

from dpstab import _backend
from dpstab.evans import evans_batch
from dpstab.wave import WaveParams, solve_profile


def _time_backend(use_numba, lams, profile, alpha, nsub, repeats):
    """Best-of-repeats wall time for one backend, the Evans values and the
    number of lambda marched per batch."""
    prev = _backend.USE_NUMBA
    shoot = _backend.shoot_final
    columns = []

    def counting(p0, p1, p2, pinv, lams, *rest):
        columns.append(len(lams))
        return shoot(p0, p1, p2, pinv, lams, *rest)

    _backend.USE_NUMBA = use_numba
    _backend.shoot_final = counting
    try:
        # warmup: jit compilation, the cached coefficient arrays and the count
        evans_batch(lams, profile, alpha=alpha, nsub=nsub)
        _backend.shoot_final = shoot
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            D, _ex = evans_batch(lams, profile, alpha=alpha, nsub=nsub)
            best = min(best, time.perf_counter() - t0)
    finally:
        _backend.USE_NUMBA = prev
        _backend.shoot_final = shoot
    return best, D, columns[0]


def main():
    ap = argparse.ArgumentParser(
        description="time the compiled and numpy shooting kernels on Evans "
                    "contour batches")
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

    def report(name, t, marched, extra=""):
        ns = t / (2 * nsteps * marched) * 1e9
        print(f"  {name} backend: {t * 1e3:9.1f} ms   ({marched} lambda marched, "
              f"{ns:6.0f} ns per lambda-step{extra})")

    for batch in args.batch:
        theta = np.linspace(0.0, 2.0 * np.pi, batch, endpoint=False)
        lams = 0.05 * np.exp(1j * theta)
        print(f"batch of {batch} lambda nodes:")
        t_np, D_np, marched = _time_backend(False, lams, profile, args.alpha, args.nsub,
                                            args.repeats)
        report("numpy", t_np, marched)
        if _backend.USE_NUMBA:
            t_nb, D_nb, marched = _time_backend(True, lams, profile, args.alpha, args.nsub,
                                                args.repeats)
            report("numba", t_nb, marched, f", speedup x{t_np / t_nb:.1f}")
            rel = float(np.max(np.abs(D_nb - D_np) / np.abs(D_np)))
            print(f"  agreement: max relative difference {rel:.3e}")
    if not _backend.USE_NUMBA:
        print("numba backend: " + ("disabled by DPSTAB_NO_NUMBA, skipped"
                                   if _backend.HAVE_NUMBA else "not installed, skipped"))


if __name__ == "__main__":
    main()
