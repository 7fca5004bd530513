"""Ten-point verification gate spanning every pipeline.

Each check prints one verdict line through the disabled-capture fixture
so the summary reaches the terminal under any capture mode.  The ninth
check pins the free resolvent along the positive real axis to the
Hille-Yosida law ||(x - A_alpha^inf)^{-1}|| = 1/(x + gap) by two routes:
the Fourier-multiplier norm scan and the piecewise-exponential Green
function applied to a low-frequency bump.  Its verdict line also records
that the |x|^2-scaled norm is not flat in L^2.
"""

import numpy as np
import pytest

from dpstab import evans, evolve, kernel, lax
from dpstab.dispersion import lambda_of_r, spectral_gap
from dpstab.wave import WaveParams, derived_constants, profile_w, solve_profile
from profile_oracle import dop853_w

PARAMS_SAMPLE = [WaveParams(0.1, 1.0), WaveParams(0.05, 1.0),
                 WaveParams(0.2, 1.0)]


@pytest.fixture
def report(capfd):
    # verdict lines must reach the terminal regardless of capture mode
    def emit(num, ok, detail):
        with capfd.disabled():
            print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}",
                  flush=True)
        return ok

    return emit


def test_criterion_01_profile_exactness(report):
    worst_height, worst_slope, worst_route = 0.0, 0.0, 0.0
    for p in PARAMS_SAMPLE:
        d = derived_constants(p)
        # the bounded crest solves E = ku + (c-u)u - ... at c - k - sqrt(ck);
        # the opposite sign branch exceeds the wave speed
        target = p.c - p.k - np.sqrt(p.c * p.k)
        prof = solve_profile(p)
        worst_height = max(worst_height, abs(prof.u0[prof.i0] - target))
        xs = np.linspace(20.0, 30.0, 201)
        w, _ = profile_w(prof.params, xs)
        slope = np.polyfit(xs, np.log(w), 1)[0]
        worst_slope = max(worst_slope, abs(slope + d.r_decay) / d.r_decay)
        # second route: the tail-launched DOP853 quadrature, on x > 0
        x = prof.xi[prof.i0 + 1:]
        w_q, wp_q = dop853_w(p, prof.L, x)
        w, wp = profile_w(prof.params, x)
        worst_route = max(worst_route, np.abs(w / w_q - 1.0).max(),
                          np.abs(wp / wp_q - 1.0).max())
    ok = worst_height <= 1e-8 and worst_slope <= 0.01 and worst_route <= 1e-11
    assert report(1, ok, "crest height error "
                   f"{worst_height:.2e} (tol 1e-8), tail slope error "
                   f"{worst_slope:.2e} relative (tol 1e-2), closed form vs "
                   f"DOP853 {worst_route:.1e} relative in w and w' (tol 1e-11) "
                   f"over {len(PARAMS_SAMPLE)} parameter pairs")


def test_criterion_02_essential_spectrum(params01, report):
    sig = np.linspace(-400.0, 400.0, 160001)
    lam = lambda_of_r(1j * sig - 0.5, params01)
    i = int(np.argmax(lam.real))
    ok = abs(lam.real[i] + 0.25) <= 1e-10 and sig[i] == 0.0
    far = lambda_of_r(1j * np.array([1e5, -1e5, 1e6]) - 0.5, params01).real
    ok &= bool(np.all(np.abs(far + 0.45) < 1e-6))
    acrit = np.sqrt(2.0 / 3.0)
    max_crit = np.max(lambda_of_r(1j * sig - acrit, params01).real)
    ok &= abs(max_crit) <= 1e-8
    lam12 = lambda_of_r(1j * np.concatenate([sig, [1e5, 1e6]]) - 1.2,
                        params01).real
    ok &= bool(np.max(lam12) <= -1.08 + 1e-10)
    assert report(2, ok, f"max Re at alpha=0.5 is {lam.real[i]:.12f} at "
                   f"sigma={sig[i]}, asymptote -0.45, closure at "
                   f"alpha=sqrt(2/3) to {abs(max_crit):.1e}, alpha=1.2 "
                   f"bounded by {np.max(lam12):.6f}")


def test_criterion_03_evans_counts(prof01, params01, report):
    res2 = evans.winding_count(evans.circle_contour(0.0, 0.05, 64), prof01,
                               alpha=0.5)
    gap = spectral_gap(params01, 0.5)
    loops = evans.keyhole_contour(-gap / 2.0, 2.0, 2.0, hole_radius=0.05)
    res0 = evans.winding_count(loops, prof01, alpha=0.5)
    conj_err = 0.0
    for lam in (0.3 + 0.2j, 1.1 - 0.7j, 0.05 + 1.9j, 0.6 + 1.3j, 1.8 - 0.4j):
        a = evans.evans_eval(lam, prof01, alpha=0.5).value
        b = evans.evans_eval(np.conj(lam), prof01, alpha=0.5).value
        conj_err = max(conj_err, abs(a - np.conj(b)) / abs(a))
    rng = np.random.default_rng(11)
    equiv_err = 0.0
    for _ in range(10):
        lam = complex(0.3 + 1.2 * rng.random(), -1.0 + 2.0 * rng.random())
        equiv_err = max(equiv_err,
                        evans.weighted_equivalence_check(lam, prof01, 0.5))
    ok = (res2.winding == 2 and res0.winding == 0
          and conj_err <= 1e-10 and equiv_err <= 1e-6)
    assert report(3, ok, f"winding {res2.winding} on |lambda|=0.05, "
                   f"{res0.winding} on the keyhole rectangle, conjugate "
                   f"symmetry {conj_err:.1e} (tol 1e-10), weighted match "
                   f"{equiv_err:.1e} at 10 points (tol 1e-6)")


def test_criterion_04_lax_algebra(params01, report):
    rng = np.random.default_rng(5)
    lams = rng.normal(0, 3, 100) + 1j * rng.normal(0, 3, 100)
    lams[:30] = 1j * lams[:30].imag
    checked, worst = 0, 0.0
    for lam in lams:
        if abs(lam) < 1e-6:
            continue
        checked += 1
        for b in lax.m_cubic(lam, params01).branches:
            if not b.degenerate:
                worst = max(worst, b.checks["lambda_roundtrip"])
    disc_err = abs(lax.discriminant(1j, params01) - 16.5676)
    ts = np.linspace(-10.0, 10.0, 41)
    scan = lax.completeness_scan(ts[ts != 0.0], params01)
    ok = (checked == 100 and worst <= 1e-10 and disc_err <= 1e-10
          and scan["all_pass"])
    assert report(4, ok, f"roundtrip error {worst:.1e} on {checked} samples "
                   f"(tol 1e-10), discriminant at i off by {disc_err:.1e}, "
                   f"completeness scan {'passes' if scan['all_pass'] else 'fails'} "
                   f"at {scan['n']} axis points")


def test_criterion_05_squared_eigenfunction(prof01, params01, report):
    pairings = [(0.7, 0, "+", 0, "+"), (0.9, 0, "+", 2, "-"),
                (1.2, 0, "+", 0, "+"), (1.5, 0, "+", 2, "-"),
                (2.0, 0, "+", 0, "+")]
    worst = 0.0
    for sigma, i, d1, j, d2 in pairings:
        phi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma)[i],
                            d1)
        psi = lax.lax_solve(sigma, prof01,
                            lax.l_roots(params01.k * sigma, adjoint=True)[j],
                            d2, adjoint=True)
        worst = max(worst,
                    lax.squared_eigenfunction(phi, psi).residual_interior)
    ok = worst < 1e-5
    assert report(5, ok, f"interior relative residual {worst:.1e} over "
                   f"{len(pairings)} (sigma, root) pairings (tol 1e-5)")


def test_criterion_06_kernel_projection(prof60, report):
    basis = kernel.kernel_basis(prof60, 0.5)
    gram = max(abs(v) for v in basis.gram_residuals.values())
    chain = evolve.l2_norm(
        evolve.apply_linearized(basis.z2, prof60, 0.5) + basis.z1, prof60.h)
    theta_min = np.inf
    for p in PARAMS_SAMPLE:
        prof = solve_profile(p, L=40.0, h=0.05)
        alpha = 0.5 * derived_constants(p).alpha_crit
        # theta1 is the reciprocal of the speed derivative of the momentum
        # functional, so positivity transfers directly
        theta_min = min(theta_min, kernel.kernel_basis(prof, alpha).theta1)
    ok = gram <= 1e-8 and chain < 1e-6 and theta_min > 0.0
    assert report(6, ok, f"Gram residual {gram:.1e} (tol 1e-8), chain "
                   f"residual {chain:.1e} (tol 1e-6), min theta1 "
                   f"{theta_min:.3f} > 0 over {len(PARAMS_SAMPLE)} pairs")


def test_criterion_07_linear_decay(prof01, cert01, report):
    # every keyhole up to eta = 7 gap/8 winds zero times
    certified = (cert01["windings"] == [0] * 7
                 and abs(cert01["certified_eta"] - 7 * cert01["gap"] / 8) < 1e-12)
    threshold = -0.8 * min(0.25, cert01["certified_eta"])
    rng = np.random.default_rng(7)
    w0 = rng.standard_normal(prof01.xi.size)
    norm0 = evolve.l2_norm(w0, prof01.h)
    traj = evolve.linear_evolve(w0, prof01, 0.5, T=25.0)
    rate = evolve.decay_rate(traj)
    drift = max(np.max(np.abs(traj.records["ip_eta1"])),
                np.max(np.abs(traj.records["ip_eta2"])))
    ok = certified and rate <= threshold and drift <= 1e-6 * norm0
    assert report(7, ok, f"fitted slope {rate:.4f} vs threshold "
                   f"{threshold:.4f} (certified eta "
                   f"{cert01['certified_eta']:.5f} = 7 gap/8, windings "
                   f"{cert01['windings']}), kernel pairing drift "
                   f"{drift / norm0:.1e} of the data norm (tol 1e-6)")


def test_criterion_08_free_semigroup(params01, report):
    L, h = 40.0, 0.02
    n = int(round(2.0 * L / h))
    xi = -L + h * np.arange(n)
    w0 = np.exp(-xi * xi / 18.0)
    traj = evolve.free_evolve(w0, params01, 0.5, 80.0, h, n_records=161)
    fit = traj.t >= 20.0  # the 121 records t = 20, 20.5, ..., 80
    rate = np.polyfit(traj.t[fit], np.log(traj.norm_w[fit]), 1)[0]
    norm0 = evolve.l2_norm(w0, h)
    flat = evolve.free_evolve(w0, params01, 0.0, 80.0, h, n_records=9)
    drift = max(abs(flat.norm_w[i] - norm0) for i in (1, 4, 8))  # t = 10, 40, 80
    ok = abs(rate + 0.25) <= 0.05 * 0.25 and drift <= 1e-10 * norm0
    assert report(8, ok, f"decay rate {rate:.4f} within "
                   f"{abs(rate + 0.25) / 0.25:.1%} of 0.25 (tol 5%), "
                   f"unweighted norm drift {drift / norm0:.1e} (tol 1e-10)")


def test_criterion_09_resolvent_scaling(params01, report):
    xs = np.linspace(10.0, 200.0, 96)
    scan = evolve.resolvent_norm_scan(params01, 0.5, xs)
    gap = scan["gap"]
    gap_err = abs(gap - spectral_gap(params01, 0.5))
    # route 1: the free operator is a Fourier multiplier, hence normal, so
    # its resolvent norm is the reciprocal distance to the symbol curve
    fourier_err = float(np.max(np.abs(scan["norm"] * (xs + gap) - 1.0)))
    # route 2: the Green function applied to a low-frequency bump nearly
    # attains the supremum at sigma = 0 and can never exceed it
    h = 0.025
    n = int(round(2 * 60.0 / h)) + 1
    xi = h * (np.arange(n) - (n - 1) // 2)
    phi = np.exp(-((xi / 12.0) ** 2))
    phi_norm = evolve.l2_norm(phi, h)
    q = np.array([
        evolve.l2_norm(evolve.green_apply(evolve.free_green(x, 0.5, params01),
                                          phi, h), h) / phi_norm * (x + gap)
        for x in xs
    ])
    prod2 = scan["norm_times_x2"]
    prod1 = scan["norm_times_x1"]
    var2 = float(prod2.max() / prod2.min())
    var1 = float(prod1.max() / prod1.min())
    ok = (gap_err <= 1e-12 and fourier_err <= 1e-10
          and q.min() >= 1.0 - 2e-3 and q.max() <= 1.0 + 1e-6
          and var1 <= 1.05 and var2 >= 3.0)
    assert report(9, ok, f"Fourier norm times (x + {gap:.2f}) within "
                   f"{fourier_err:.1e} of 1 (tol 1e-10), Green-function "
                   f"ratio in [{q.min():.5f}, {q.max():.5f}] (tol "
                   f"[1-2e-3, 1+1e-6]) on [10,200], first-power scaling "
                   f"varies by {var1:.3f} (tol 1.05), |lambda|^2 scaling "
                   f"varies by {var2:.2f} (tol >= 3, not flat in L^2)")


def test_criterion_10_nonlinear_demonstration(params01, report):
    # the leftward radiation reaches xi ~ -43 by T=50; the half-length must
    # keep it away from the periodic seam where the weight is largest
    L, h = 60.0, 0.05
    prof = solve_profile(params01, L=L, h=h)
    xi = prof.xi

    def to_m(u):
        return kernel.spectral_multiplier(u, h, lambda s: 1.0 + s * s)

    def to_u(m):
        return kernel.spectral_multiplier(m, h, lambda s: 1.0 / (1.0 + s * s))

    m_sol = to_m(prof.u0)
    traj_eq = evolve.nonlinear_evolve(m_sol, params01, T=10.0, h=h,
                                      n_records=11)
    eq_err = float(np.max(np.abs(traj_eq.w - m_sol))
                   / np.max(np.abs(m_sol)))

    u_pert = prof.u0 + 1e-3 * np.exp(-((xi - 2.0) ** 2) / 2.0)
    m0 = to_m(u_pert)
    traj = evolve.nonlinear_evolve(m0, params01, T=50.0, h=h, n_records=11)
    drift = max(abs(v[-1] - v[0]) / abs(v[0]) for v in traj.records.values())

    # the states at t = 5 and t = 50 are the final states of two runs
    early = evolve.nonlinear_evolve(m0, params01, T=5.0, h=h, n_records=2)
    residuals = {}
    for run in (early, traj):
        u_end = to_u(run.w)
        residuals[run.T] = evolve.modulation_fit(u_end, params01, 0.2, h).residual
    ratio = residuals[5.0] / residuals[50.0]

    ok = eq_err <= 1e-6 and drift < 1e-6 and ratio >= 10.0
    assert report(10, ok, f"equilibrium error {eq_err:.1e} at T=10 "
                   f"(tol 1e-6), invariant drift {drift:.1e} over T=50 "
                   f"(tol 1e-6), weighted misfit shrinks {ratio:.1f}x "
                   f"from t=5 to t=50 (tol 10x)")
