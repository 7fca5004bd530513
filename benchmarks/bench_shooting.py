"""Wall-time comparison of the two shooting backends on the Evans batch march.

The marching kernel ships in two interchangeable implementations: a numba
compiled loop and a vectorized numpy fallback, normally selected once at
import from the DPSTAB_NO_NUMBA environment variable.  Here the selection
flag is toggled at run time so a single process times both paths on identical
inputs, and the printed max relative difference confirms they agree.  When
the process was started with DPSTAB_NO_NUMBA=1 (or numba is not installed)
only the vectorized path is measured.

evans_batch marches each exact conjugate pair of lambda once.  The
linspace circle used here is not exactly closed under conjugation (node
n - j is in general not bit for bit the conjugate of node j; at the default
64 nodes a single pair is), so nearly every node is marched and the timing
stays that of the raw batch march.  The count of lambda actually marched
is printed beside each time.

Usage: python benchmarks/bench_shooting.py [--batch 64] [--nsub 10] [--repeats 5]
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
        description="time the compiled and vectorized shooting kernels on one "
                    "Evans contour batch")
    ap.add_argument("--batch", type=int, default=64,
                    help="number of lambda nodes marched together (default 64)")
    ap.add_argument("--nsub", type=int, default=10,
                    help="integration substeps per profile grid cell (default 10)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed repetitions, best is reported (default 5)")
    ap.add_argument("--alpha", type=float, default=0.5,
                    help="exponential weight for the marched system (default 0.5)")
    args = ap.parse_args()
    if args.batch < 1 or args.repeats < 1:
        ap.error("--batch and --repeats must be positive")

    params = WaveParams(k=0.1, c=1.0)
    profile = solve_profile(params, L=40.0, h=0.02)
    theta = np.linspace(0.0, 2.0 * np.pi, args.batch, endpoint=False)
    lams = 0.05 * np.exp(1j * theta)

    nsteps = round(profile.L / (profile.h / args.nsub))
    print(f"workload: {args.batch} lambda nodes, two marches of {nsteps} RK4 "
          f"steps each (L={profile.L:g}, h={profile.h:g}, nsub={args.nsub}, "
          f"alpha={args.alpha:g})")

    t_np, D_np, marched = _time_backend(False, lams, profile, args.alpha, args.nsub,
                                        args.repeats)
    print(f"numpy backend: {t_np * 1e3:9.1f} ms   ({marched} lambda marched)")

    if _backend.USE_NUMBA:
        t_nb, D_nb, marched = _time_backend(True, lams, profile, args.alpha, args.nsub,
                                            args.repeats)
        rel = float(np.max(np.abs(D_nb - D_np) / np.abs(D_np)))
        print(f"numba backend: {t_nb * 1e3:9.1f} ms   ({marched} lambda marched, "
              f"speedup x{t_np / t_nb:.1f})")
        print(f"agreement: max relative difference {rel:.3e}")
    elif _backend.HAVE_NUMBA:
        print("numba backend: disabled by DPSTAB_NO_NUMBA, skipped")
    else:
        print("numba backend: not installed, skipped")


if __name__ == "__main__":
    main()
