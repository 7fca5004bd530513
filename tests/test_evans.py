import numpy as np
import pytest

from dpstab import _backend, evans, lax
from dpstab.dispersion import (char_coeffs, char_roots, ess_spectrum_curve, lambda_of_r,
                               spectral_gap)
from dpstab.evolve import (apply_linearized, decay_rate, free_green, green_apply,
                           linear_evolve, nonlinear_evolve)
from dpstab.kernel import conserved, kernel_basis
from dpstab.wave import (ParameterError, SolverError, WaveParams, half_step_samples,
                         solve_profile)
from march_oracle import marches as oracle_marches

# regression anchor, first simple zero is well right of lambda = 1
D_ONE_UNWEIGHTED = 0.20436288257374657


def test_translation_zero(prof01):
    s = evans.evans_eval(0.0, prof01, alpha=0.5)
    assert abs(s.value) < 1e-6
    assert abs(s.value) < 1e-10
    assert s.renorm_exponent > 0


def test_nonzero_away_from_origin(prof01):
    s = evans.evans_eval(1.0, prof01, alpha=0.0)
    assert abs(s.value) > 1e-4
    assert abs(s.value - D_ONE_UNWEIGHTED) < 1e-10


def test_conjugate_symmetry(prof01):
    for lam in (0.3 + 0.2j, 1.1 - 0.7j, 0.05 + 1.9j):
        a = evans.evans_eval(lam, prof01, alpha=0.5).value
        b = evans.evans_eval(np.conj(lam), prof01, alpha=0.5).value
        assert abs(a - np.conj(b)) <= 1e-10 * abs(a)


def test_weighted_equivalence(prof01):
    assert evans.weighted_equivalence_check(0.5, prof01, 0.5) < 1e-8
    assert evans.weighted_equivalence_check(2j * (1 + 1e-3), prof01, 0.5) < 1e-6
    assert evans.weighted_equivalence_check(0.5, prof01, 0.0) == 0.0


def _fixed_march_agrees(res, prof):
    """Check the error-controlled count res against the nsub=10 march of the
    nodes it refined: every phase step of the nsub-10 values stays below
    pi/2, and their winding and min|D| match res."""
    assert res.err_ratio <= 1e-2 and res.nsub_max == 1
    winding, min_abs = 0.0, np.inf
    for loop in res.loops:
        D10 = evans.evans_batch(loop, prof, 0.5, nsub=10)[0]
        ph = np.angle(D10)
        dph = (np.diff(np.append(ph, ph[0])) + np.pi) % (2.0 * np.pi) - np.pi
        assert np.abs(dph).max() < 0.5 * np.pi
        winding += dph.sum() / (2.0 * np.pi)
        min_abs = min(min_abs, np.abs(D10).min())
    assert abs(winding - res.winding) < 1e-6
    assert abs(res.min_abs_D - min_abs) <= 1e-6 * min_abs


def test_winding_small_circle(prof01):
    loop = evans.circle_contour(0.0, 0.05, 64)
    res = evans.winding_count(loop, prof01, alpha=0.5)
    assert res.winding == 2
    assert res.min_abs_D > 0
    assert len(res.values) == 1 and len(res.values[0]) == len(res.loops[0])
    _fixed_march_agrees(res, prof01)


def test_winding_keyhole(prof01, params01):
    gap = spectral_gap(params01, 0.5)
    loops = evans.keyhole_contour(-gap / 2, 2.0, 2.0, hole_radius=0.05)
    res = evans.winding_count(loops, prof01, alpha=0.5)
    assert res.winding == 0
    assert len(res.loops) == 2
    assert [len(v) for v in res.values] == [len(l) for l in res.loops]
    _fixed_march_agrees(res, prof01)


@pytest.mark.parametrize("contour", [
    [], np.array([]), np.array([0.1 + 0.1j]),
    [evans.circle_contour(1.0, 0.1, 8), np.array([0.5, 0.6])],
])
def test_degenerate_contour_rejected(prof01, contour):
    with pytest.raises(ParameterError, match="at least 3 nodes"):
        evans.winding_count(contour, prof01, 0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: evans.circle_contour(NAN, 0.05, 16),
    lambda: evans.circle_contour(complex(0.0, INF), 0.05, 16),
    lambda: evans.circle_contour(0.0, NAN, 16),
    lambda: evans.circle_contour(0.0, INF, 16),
    lambda: evans.circle_contour(0.0, 0.05, 8.5),
    lambda: evans.rectangle_contour(NAN, 1.0, 1.0),
    lambda: evans.rectangle_contour(-1.0, INF, 1.0),
    lambda: evans.rectangle_contour(-1.0, 1.0, NAN),
    lambda: evans.rectangle_contour(-1.0, 1.0, 1.0, density=INF),
    lambda: evans.rectangle_contour(-1.0, 1.0, 1.0, density=NAN),
    lambda: evans.rectangle_contour(-1.0, 1.0, 1.0, density=0.0),
    lambda: evans.keyhole_contour(-INF, 1.0, 1.0),
    lambda: evans.keyhole_contour(-1.0, 1.0, 1.0, density=INF),
    lambda: evans.keyhole_contour(-1.0, 1.0, 1.0, hole_radius=NAN),
    lambda: evans.keyhole_contour(-1.0, 1.0, 1.0, hole_center=complex(NAN, 0.0)),
], ids=["circle-center-nan", "circle-center-inf", "circle-radius-nan", "circle-radius-inf",
        "circle-n-8.5", "rect-re_min-nan", "rect-re_max-inf", "rect-im_abs-nan", "rect-density-inf",
        "rect-density-nan", "rect-density-0", "keyhole-re_min-inf", "keyhole-density-inf",
        "keyhole-hole_radius-nan", "keyhole-hole_center-nan"])
def test_contour_builders_reject_bad_geometry(build):
    with pytest.raises(ParameterError):
        build()


def _winding_with_node(lam, prof):
    loop = evans.circle_contour(1.0, 0.1, 8)
    loop[3] = lam
    return evans.winding_count(loop, prof, 0.5)


# every library entry point that reaches np.roots with a lambda (or sigma)
@pytest.mark.parametrize("lam", [NAN, INF, complex(NAN, 1.0)], ids=["nan", "inf", "nan+1j"])
@pytest.mark.parametrize("entry", [
    lambda lam, prof: evans.evans_eval(lam, prof, 0.5),
    _winding_with_node,
    lambda lam, prof: lax.m_cubic(lam, prof.params),
    lambda lam, prof: lax.lax_solve(lam, prof, 1.0, "+"),
    lambda lam, prof: free_green(lam, 0.5, prof.params),
], ids=["evans_eval", "winding_count", "m_cubic", "lax_solve", "free_green"])
def test_non_finite_lambda_rejected(prof01, entry, lam):
    with pytest.raises(ParameterError, match="finite"):
        entry(lam, prof01)


def _perturb_node(monkeypatch, node, bump):
    """Make every Evans march return D (1 + bump(m)) at node, where the step is
    h/m (m = 1/2 for the stride-2 march); records (m, B)."""
    march = evans._march
    calls = []

    def perturbed(lams, profile, alpha, nsub, meet, stride):
        D, ex = march(lams, profile, alpha, nsub, meet, stride)
        calls.append((nsub / stride, len(lams)))
        D[np.asarray(lams) == node] *= 1.0 + bump(nsub / stride)
        return D, ex

    monkeypatch.setattr(evans, "_march", perturbed)
    return calls


def test_error_control_remarches_a_bad_node(prof01, monkeypatch):
    # a coarse value off by 0.5 |D| gives e = 0.5 |D| / 15 > 1e-2 |D|
    loop = evans.circle_contour(0.0, 0.05, 64)
    calls = _perturb_node(monkeypatch, loop[5], lambda m: 0.5 if m == 0.5 else 0.0)
    res = evans.winding_count(loop, prof01, 0.5)
    assert res.winding == 2
    assert res.nsub_max == 2 and res.err_ratio <= 1e-2
    assert calls == [(0.5, 64), (1, 64), (2, 1)]


def test_error_control_failure_returns_no_count(prof01, monkeypatch):
    # values that do not converge as nsub grows fail at every level
    loop = evans.circle_contour(0.0, 0.05, 64)
    calls = _perturb_node(monkeypatch, loop[5], lambda m: 0.5 * m)
    with pytest.raises(SolverError, match="error control failed"):
        evans.winding_count(loop, prof01, 0.5)
    assert [c[0] for c in calls] == [0.5, 1, 2, 4, 8, 16]


def test_winding_away_from_zero(prof01):
    res = evans.winding_count(evans.circle_contour(1.0, 0.1, 32), prof01, alpha=0.0)
    assert res.winding == 0


def test_certify_eta(cert01):
    assert cert01["windings"] == [0] * 7
    assert abs(cert01["certified_eta"] - 7 * cert01["gap"] / 8) < 1e-12


@pytest.mark.parametrize("alpha", [1.2, 1.5])
def test_certify_eta_refuses_weights_past_alpha_crit(prof01, monkeypatch, alpha):
    # spectral_gap accepts alpha > 1, but no keyhole can be marched there
    def no_march(*args, **kwargs):
        raise AssertionError("winding_count called")
    monkeypatch.setattr(evans, "winding_count", no_march)
    with pytest.raises(ParameterError, match=r"certify_eta needs a weight in \(0, 0\.8"):
        evans.certify_eta(prof01, alpha)


def test_cauchy_riemann(prof01):
    lam, h = 0.8 + 0.3j, 1e-4
    ev = lambda z: evans.evans_eval(z, prof01, 0.5).value
    dx = (ev(lam + h) - ev(lam - h)) / (2 * h)
    dy = (ev(lam + 1j * h) - ev(lam - 1j * h)) / (2j * h)
    assert abs(dx - dy) / abs(dx) < 1e-5


def test_domain_robustness(params01, prof01):
    prof50 = solve_profile(params01, L=50.0)
    for lam in (0.5, 0.3 + 2.0j, 1.5 - 1.2j):
        a = evans.evans_eval(lam, prof01, 0.5).value
        b = evans.evans_eval(lam, prof50, 0.5).value
        assert abs(a - b) <= 1e-6 * abs(a)


@pytest.mark.parametrize("a", [0.37, 3.0])
def test_scale_covariance(prof01, a):
    # DP's scaling u(x, t) -> a u(x, a t) maps the wave (k, c) to (a k, a c)
    # on the same grid: D is unchanged at lambda -> a lambda, A_alpha becomes
    # a A_alpha, and the Lax pairings at sigma/a solve the scaled linearized
    # equation.  Powers of 2 would scale bit for bit; at a = 0.37 and 3 the
    # measured errors are 2.8e-13 (D), 1.2e-13 (A_alpha) and 2.8e-11 (the
    # interior residual)
    p = prof01.params
    prof_a = solve_profile(WaveParams(a * p.k, a * p.c))
    for lam in (0.5, 0.3 + 0.4j):
        d = evans.evans_eval(lam, prof01, 0.25).value
        d_a = evans.evans_eval(a * lam, prof_a, 0.25).value
        assert abs(d - d_a) <= 1e-8 * abs(d)
    w = np.exp(-0.5 * (prof01.xi - 2.0) ** 2)
    aw = a * apply_linearized(w, prof01, 0.5)
    assert np.abs(apply_linearized(w, prof_a, 0.5) - aw).max() <= 1e-11 * np.abs(aw).max()
    for sigma in (0.7, 0.9):
        phi = lax.lax_solve(sigma / a, prof_a, lax.l_roots(p.k * sigma)[0], "+")
        psi = lax.lax_solve(sigma / a, prof_a, lax.l_roots(p.k * sigma, adjoint=True)[0],
                            "+", adjoint=True)
        assert lax.squared_eigenfunction(phi, psi).residual_interior < 1e-8


@pytest.mark.parametrize("a", [0.37, 3.0])
def test_scale_covariance_chain(params01, a):
    # the same scaling through the rest of the chain, (a k, a c) against (k, c):
    # the gap and the weighted curve scale by a, the spatial roots at a lambda
    # are unchanged, the free resolvent at a lambda is 1/a times its value, z1
    # and eta1 scale by a and 1/a while z2 and eta2 stay, E, Q and H scale by
    # a, a^2 and a^3, and a flow run to T/a takes the same steps, keeping the
    # linear norms and scaling the decay slope and the final momentum by a.
    # Measured errors are at most 1.1e-14 (eta1), 2.9e-15 (linear slope) and
    # 6.3e-15 (final momentum); each bound is 100 to 250 times its error
    p, pa = params01, WaveParams(a * params01.k, a * params01.c)
    for alpha in (0.5, 1.5):
        gap = a * spectral_gap(p, alpha)
        assert abs(spectral_gap(pa, alpha) - gap) <= 3e-14 * gap
    sigma = np.linspace(-40.0, 40.0, 81)
    curve = a * ess_spectrum_curve(p, 0.5, sigma)
    assert np.abs(ess_spectrum_curve(pa, 0.5, sigma) - curve).max() <= 3e-14 * np.abs(curve).max()
    r = 1j * sigma[::8] - 0.5
    curve = a * lambda_of_r(r, p)
    assert np.abs(lambda_of_r(r, pa) - curve).max() <= 3e-14 * np.abs(curve).max()
    prof = solve_profile(p, L=40.0, h=0.04)
    prof_a = solve_profile(pa, L=40.0, h=0.04)
    phi = np.exp(-((prof.xi - 3.0) / 4.0) ** 2) * np.cos(0.7 * prof.xi)
    for lam in (0.3 + 0.2j, 1.0):
        # at real lambda a conjugate pair of roots may swap places
        dist = np.abs(char_roots(a * lam, pa)[:, None] - char_roots(lam, p))
        assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 2e-13
        u = green_apply(free_green(lam, 0.5, p), phi, prof.h) / a
        u_a = green_apply(free_green(a * lam, 0.5, pa), phi, prof.h)
        assert np.abs(u_a - u).max() <= 3e-13 * np.abs(u).max()
    basis, basis_a = kernel_basis(prof, 0.5), kernel_basis(prof_a, 0.5)
    for name, factor in (("z1", a), ("z2", 1.0), ("eta1", 1.0 / a), ("eta2", 1.0)):
        want = factor * getattr(basis, name)
        assert np.abs(getattr(basis_a, name) - want).max() <= 1e-12 * np.abs(want).max()
    cv, cv_a = conserved(p, prof.h, u=prof.u0), conserved(pa, prof.h, u=prof_a.u0)
    for name, power in (("E_mass", 1), ("Q", 2), ("H", 3)):
        want = a ** power * getattr(cv, name)
        assert abs(getattr(cv_a, name) - want) <= 6e-14 * abs(want)
    w0 = np.exp(-0.5 * (prof.xi - 2.0) ** 2)
    run = linear_evolve(w0, prof, 0.5, T=10.0, n_records=21)
    run_a = linear_evolve(w0, prof_a, 0.5, T=10.0 / a, n_records=21)
    assert abs(a * run_a.dt - run.dt) <= 3e-14 * run.dt
    assert np.abs(run_a.norm_w - run.norm_w).max() <= 1e-13 * run.norm_w.max()
    slope = a * decay_rate(run)
    assert abs(decay_rate(run_a) - slope) <= 3e-13 * abs(slope)
    xi = 0.1 * np.arange(-400, 401)
    m0 = p.k + 0.5 * np.exp(-0.5 * xi ** 2)
    m = a * nonlinear_evolve(m0, p, T=5.0, h=0.1, n_records=11).w
    m_a = nonlinear_evolve(a * m0, pa, T=5.0 / a, h=0.1, n_records=11).w
    assert np.abs(m_a - m).max() <= 6e-13 * np.abs(m).max()


def test_meet_point_invariance(prof01):
    base = evans.evans_eval(0.7 + 0.1j, prof01, 0.5).value
    for meet in (2.5, -3.0, 10.0):
        d = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, meet=meet).value
        assert abs(d - base) <= 1e-9 * abs(base)
    with pytest.raises(ParameterError):
        evans.evans_eval(0.5, prof01, 0.5, meet=prof01.L)


def test_step_refinement(prof01):
    d8 = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=8).value
    d14 = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=14).value
    assert abs(d8 - d14) <= 1e-8 * abs(d8)


def test_rejects_left_of_spectrum(prof01):
    with pytest.raises(ParameterError):
        evans.evans_eval(-0.5, prof01, alpha=0.0)
    with pytest.raises(ParameterError):
        evans.evans_eval(-0.3, prof01, alpha=0.5)
    with pytest.raises(ParameterError):
        evans.evans_eval(0.5, prof01, alpha=1.0)


def test_batch_matches_single(prof01):
    # 20 lambda, more than one vectorized group of the former product march,
    # with no exact conjugate pair among them
    lams = [0.4, 0.9 + 0.2j, 1.6 - 0.8j]
    lams += list(0.3 + 1.4 * np.exp(0.07j * np.arange(1, 18)))
    D, ex = evans.evans_batch(lams, prof01, 0.5)
    for lam, d, e in zip(lams, D, ex):
        s = evans.evans_eval(lam, prof01, 0.5)
        assert d == s.value
        assert e == s.renorm_exponent


def _rhs_np(i, p0, p1, p2, pinv, lams, alpha, shifts, y, sign, adjoint):
    """Vectorized right-hand side at sample index i; y has shape (B, 3)."""
    q0 = p0[i] - lams * pinv[i]
    q1 = p1[i]
    q2 = p2[i] + lams * pinv[i]
    a = alpha
    Q0 = q0 - a * q1 + a * a * q2 + a * a * a
    Q1 = q1 - 2.0 * a * q2 - 3.0 * a * a
    Q2 = q2 + 3.0 * a
    f = np.empty_like(y)
    if adjoint:
        f[:, 0] = -Q0 * y[:, 2] + shifts * y[:, 0]
        f[:, 1] = -y[:, 0] - Q1 * y[:, 2] + shifts * y[:, 1]
        f[:, 2] = -y[:, 1] + (shifts - Q2) * y[:, 2]
    else:
        f[:, 0] = y[:, 1] - shifts * y[:, 0]
        f[:, 1] = y[:, 2] - shifts * y[:, 1]
        f[:, 2] = Q0 * y[:, 0] + Q1 * y[:, 1] + (Q2 - shifts) * y[:, 2]
    return sign * f


def shoot_final_stepwise(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """Reference march: four vectorized RHS calls per RK4 step, final states (B, 3).

    Slow (a Python loop over steps) but transparent; `_backend.shoot_final`
    and `_backend.shoot_traj` are checked against it.
    """
    nstep = (p0.shape[0] - 1) // 2
    y = np.array(y0s, dtype=np.complex128, copy=True)
    h6 = hs / 6.0
    for j in range(nstep):
        i = 2 * j
        k1 = _rhs_np(i, p0, p1, p2, pinv, lams, alpha, shifts, y, sign, adjoint)
        k2 = _rhs_np(i + 1, p0, p1, p2, pinv, lams, alpha, shifts, y + 0.5 * hs * k1, sign, adjoint)
        k3 = _rhs_np(i + 1, p0, p1, p2, pinv, lams, alpha, shifts, y + 0.5 * hs * k2, sign, adjoint)
        k4 = _rhs_np(i + 2, p0, p1, p2, pinv, lams, alpha, shifts, y + hs * k3, sign, adjoint)
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _launch(lams, alpha, params):
    """Launch roots and decaying eigenvectors of the forward march."""
    shifts = np.empty(len(lams), dtype=complex)
    inits = np.empty((len(lams), 3), dtype=complex)
    for i, lam in enumerate(lams):
        s = char_roots(lam, params) + alpha
        shifts[i] = s[0]
        inits[i] = (1.0, s[0], s[0] ** 2)
    return shifts, inits


def test_propagator_march_matches_stepwise(prof01):
    # the march solves for the states of RK4 step maps; the stepwise
    # loop applies the same RK4 steps to the vectors one at a time
    arrays = half_step_samples(prof01, 10)
    # 700 steps ending at xi = 0, where the coefficients vary and the step
    # maps do not commute
    m = 2 * 700 + 1
    lo = 2 * arrays["n"] - (m - 1)
    lams = np.array([0.5 + 0.0j, 0.7 + 0.1j, 1.3 - 0.9j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[lo:lo + m] for a in arrays[tag])
        args = (p0, p1, p2, pinv, lams, 0.5, shifts, inits, arrays["hs"], sign, adjoint)
        a = _backend.shoot_final(*args)
        b = shoot_final_stepwise(*args)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        traj = _backend.shoot_traj(p0, p1, p2, pinv, lams[1], 0.5, shifts[1],
                                   inits[1], arrays["hs"], sign, adjoint)
        assert traj.shape == (701, 3)
        assert np.array_equal(traj[0], inits[1])
        assert np.max(np.abs(traj[-1] - b[1])) <= 1e-12 * np.max(np.abs(b[1]))


def test_long_chunks_match_stepwise(prof01, monkeypatch):
    # the full half-domain at nsub=1 is 2000 steps; 512-step solve chunks
    # make it three full chunks and a partial one.  lambda sits at the
    # contour corners where |lambda| is largest and where the rectangle
    # reaches left of the imaginary axis
    monkeypatch.setattr(_backend, "_STEPS", 512)
    arrays = half_step_samples(prof01, 1)
    m = 2 * arrays["n"] + 1
    lams = np.array([2.0 + 2.0j, -0.06 + 2.0j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[:m] for a in arrays[tag])
        args = (p0, p1, p2, pinv, lams, 0.5, shifts, inits, arrays["hs"], sign, adjoint)
        a = _backend.shoot_final(*args)
        b = shoot_final_stepwise(*args)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        for i in range(len(lams)):
            traj = _backend.shoot_traj(p0, p1, p2, pinv, lams[i], 0.5, shifts[i],
                                       inits[i], arrays["hs"], sign, adjoint)
            # one march serves both entry points
            assert np.array_equal(traj[-1], a[i])
            # the march forms only the states y_j; the shift by the launch
            # root keeps them bounded (measured max_j |y_j| / |y_0| = 1.12)
            growth = np.max(np.linalg.norm(traj, axis=1)) / np.linalg.norm(inits[i])
            assert growth < 10.0


def test_batch_march_equals_single_marches(prof01):
    # every march of a shoot_final call reuses one band and state buffer
    arrays = half_step_samples(prof01, 1)
    m = 2 * arrays["n"] + 1
    lams = np.array([0.05, 0.3 + 0.2j, 2.0 + 2.0j, -0.06 + 2.0j, 1.1 - 0.7j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        coef = [a[:m] for a in arrays[tag]]
        rest = (arrays["hs"], sign, adjoint)
        batch = _backend.shoot_final(*coef, lams, 0.5, shifts, inits, *rest)
        for i in range(len(lams)):
            one = slice(i, i + 1)
            alone = _backend.shoot_final(*coef, lams[one], 0.5, shifts[one], inits[one], *rest)
            assert np.array_equal(batch[i], alone[0])


def test_workspace_maps_equal_whole_array_build(prof01, monkeypatch):
    # 700 steps in chunks of 300: the workspace and the band carry the
    # previous chunk's and the previous lambda's entries into each chunk
    monkeypatch.setattr(_backend, "_STEPS", 300)
    arrays = half_step_samples(prof01, 1)
    m = 2 * 700 + 1
    lams = np.array([0.05, 0.3 + 0.2j, 2.0 + 2.0j, -0.06 + 2.0j, 1.1 - 0.7j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    solve = _backend.ztbsv
    bands = []

    def capture(k, band, x, **kw):
        # the last 3 columns hold no entry the solve reads
        bands.append(band[:, :-3].copy())
        return solve(k, band, x, **kw)

    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        coef = [a[:m] for a in arrays[tag]]
        rest = (arrays["hs"], sign, adjoint)
        oracle = list(oracle_marches(*coef, lams, 0.5, shifts, inits, *rest, 300))
        bands.clear()
        monkeypatch.setattr(_backend, "ztbsv", capture)
        final = _backend.shoot_final(*coef, lams, 0.5, shifts, inits, *rest)
        monkeypatch.setattr(_backend, "ztbsv", solve)
        # chunk by chunk, lambda by lambda
        expected = [maps[j] for j in range(3) for maps, _ in oracle]
        assert len(bands) == len(expected) == 15
        for got, want in zip(bands, expected):
            assert np.array_equal(got, want)
        assert np.array_equal(final, np.array([y[-1] for _, y in oracle]))
        for i in (1, 3):
            traj = _backend.shoot_traj(*coef, lams[i], 0.5, shifts[i], inits[i], *rest)
            assert np.array_equal(traj, oracle[i][1])


def test_traj_prefix_matches_stepwise(prof01):
    # traj[k] is the state after k steps, across the default chunk boundary
    arrays = half_step_samples(prof01, 10)
    lam = np.array([0.7 + 0.1j])
    shifts, inits = _launch(lam, 0.5, prof01.params)
    assert _backend._STEPS < 2500
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[:2 * 2500 + 1] for a in arrays[tag])
        traj = _backend.shoot_traj(p0, p1, p2, pinv, lam[0], 0.5, shifts[0],
                                   inits[0], arrays["hs"], sign, adjoint)
        for k in (1, 7, _backend._STEPS, 2500):
            m = 2 * k + 1
            b = shoot_final_stepwise(p0[:m], p1[:m], p2[:m], pinv[:m], lam, 0.5,
                                     shifts, inits, arrays["hs"], sign, adjoint)
            assert np.max(np.abs(traj[k] - b[0])) <= 1e-12 * np.max(np.abs(b[0]))


def test_ascending_arrays_mirror(prof01):
    # oracle: the direct evaluation at the ascending points -L + j hs/2
    c = prof01.params.c
    for nsub in (1, 10):
        arrays = half_step_samples(prof01, nsub)
        hs, n = arrays["hs"], arrays["n"]
        f = prof01.eval(-prof01.L + 0.5 * hs * np.arange(4 * n + 1))
        cmu = c - f.u0
        direct = ((f.u0_ppp - 4.0 * f.u0_p) / cmu,
                  (3.0 * f.u0_pp - 4.0 * f.u0 + c) / cmu,
                  3.0 * f.u0_p / cmu,
                  1.0 / cmu)
        for got, want in zip(arrays["asc"], direct):
            assert np.array_equal(got, want)


def test_nsub_must_be_integer_at_least_one(prof01, params01):
    sigma = 1.2
    l_plus = lax.l_roots(params01.k * sigma)[0]
    for bad in (0, 1.5):
        with pytest.raises(ParameterError, match="nsub"):
            evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=bad)
        with pytest.raises(ParameterError, match="nsub"):
            lax.lax_solve(sigma, prof01, l_plus, "+", nsub=bad)
    # numpy integers are integers
    assert (evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=np.int64(1)).value
            == evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=1).value)


def test_conjugate_pairs_marched_once(prof01, monkeypatch):
    # lam2 shares lam's real part but is not its conjugate
    lam, lam2 = 0.7 + 0.3j, 0.7 - 0.5j
    lams = [lam, np.conj(lam), 0.9, lam2]
    marched = []
    shoot = _backend.shoot_final

    def counting(p0, p1, p2, pinv, lams, *rest):
        marched.append(np.array(lams))
        return shoot(p0, p1, p2, pinv, lams, *rest)

    monkeypatch.setattr(_backend, "shoot_final", counting)
    D, ex = evans.evans_batch(lams, prof01, 0.5)
    # two marches (forward and adjoint), each over the 3 representatives
    assert len(marched) == 2
    for cols in marched:
        assert np.array_equal(cols, [lam, 0.9, lam2])
    assert D[1] == np.conj(D[0]) and ex[1] == ex[0]
    monkeypatch.undo()
    for i in (0, 2, 3):
        s = evans.evans_eval(lams[i], prof01, 0.5)
        assert D[i] == s.value and ex[i] == s.renorm_exponent
    direct = evans.evans_eval(np.conj(lam), prof01, 0.5).value
    assert abs(D[1] - direct) <= 1e-13 * abs(direct)


def _shifted_companion(lam, alpha, params):
    """Monic coefficients Q0, Q1, Q2 of P(lambda, s - alpha), with
    s^3 = Q2 s^2 + Q1 s + Q0, from the coefficients of P(lambda, .)."""
    c0, c1, c2, c3 = char_coeffs(lam, params)
    a = alpha
    Q2 = -(c1 - 3.0 * a * c0) / c0
    Q1 = -(c2 - 2.0 * a * c1 + 3.0 * a * a * c0) / c0
    Q0 = -(c3 - a * c2 + a * a * c1 - a ** 3 * c0) / c0
    return Q0, Q1, Q2


@pytest.mark.parametrize("lam, alpha", [
    (0.3 + 0.2j, 0.5), (50 + 50j, 0.5), (1 + 1000j, 0.5), (1e-3, 0.5),
    (-0.2 + 1j, 0.5), (2.002j, 0.0)])
def test_launch_by_two_routes(params01, lam, alpha):
    # the launch vectors come from the roots alone; the second route is the
    # left eigenvector written with the shifted companion coefficients
    s1, v, w = evans._launch(complex(lam), alpha, params01)
    Q0, Q1, Q2 = _shifted_companion(lam, alpha, params01)
    oracle = np.array([s1 * s1 - Q2 * s1 - Q1, s1 - Q2, 1.0])
    oracle /= oracle @ v
    assert np.abs(w - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert abs(w @ v - 1.0) <= 1e-13
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [Q0, Q1, Q2]])
    residual = w @ (C - s1 * np.eye(3))
    assert np.abs(residual).max() <= 1e-13 * np.abs(w).max() * np.abs(C).max()


def test_launch_data_once_per_node(prof01, monkeypatch):
    # the error-controlled count marches the 33 distinct lambda of the
    # default circle at step 2h and h; the roots are found once per lambda
    loop = evans.circle_contour(0.0, 0.05, 64)
    values = evans.winding_count(loop, prof01, 0.5).values[0]
    roots = []
    char_roots = evans.char_roots

    def counting(lam, params):
        roots.append(complex(lam))
        return char_roots(lam, params)

    monkeypatch.setattr(evans, "char_roots", counting)
    evans._launch.cache_clear()
    res = evans.winding_count(loop, prof01, 0.5)
    assert len(roots) == len(set(roots)) == 33
    assert np.array_equal(res.values[0], values)
    assert res.err_ratio <= 1e-2 and res.nsub_max == 1


def test_error_control_work(prof01, monkeypatch):
    # the 33 distinct lambda of the default circle are marched once at step 2h
    # (1000 steps each way on L = 40, h = 0.02) and once at h (2000 each way)
    loop = evans.circle_contour(0.0, 0.05, 64)
    shoot_final = _backend.shoot_final
    work = []

    def counting(p0, p1, p2, pinv, lams, *rest):
        work.append(len(lams) * ((len(p0) - 1) // 2))
        return shoot_final(p0, p1, p2, pinv, lams, *rest)

    monkeypatch.setattr(_backend, "shoot_final", counting)
    res = evans.winding_count(loop, prof01, 0.5)
    assert res.winding == 2 and res.nsub_max == 1
    assert sum(work) == 33 * (2 * 1000 + 2 * 2000)


def test_error_control_odd_grid(params01):
    # L/h = 1499 is odd: the step-2h march meets at xi = h instead of 0
    prof = solve_profile(params01, L=29.98, h=0.02)
    loop = evans.circle_contour(0.0, 0.05, 64)
    res = evans.winding_count(loop, prof, 0.5)
    assert res.winding == 2 and res.nsub_max == 1
    _fixed_march_agrees(res, prof)


def _marched_columns(nodes, prof, monkeypatch):
    """Columns the forward march receives for one evans_batch call."""
    cols = []

    def stub(p0, p1, p2, pinv, lams, alpha, shifts, y0s, *rest):
        cols.append(len(lams))
        return np.ones((len(lams), 3), dtype=complex)

    monkeypatch.setattr(_backend, "shoot_final", stub)
    evans.evans_batch(nodes, prof, 0.5)
    monkeypatch.undo()
    return cols[0]


def test_contours_conjugate_closed(prof01, params01, monkeypatch):
    def unpaired(z):
        nodes = set(z.tolist())
        return [i for i, x in enumerate(z.tolist()) if x.conjugate() not in nodes]

    # same nodes, order and orientation as center + radius exp(i theta)
    for center, n, orient in ((0.0, 64, 1), (0.3, 33, 1), (0.02 + 0.01j, 48, -1)):
        z = evans.circle_contour(center, 0.05, n, orient)
        th = orient * 2.0 * np.pi * np.arange(n) / n
        assert np.max(np.abs(z - (center + 0.05 * np.exp(1j * th)))) <= 1e-16
    assert evans.circle_contour(0.0, 0.05, np.int64(16)).size == 16
    # a real center: only the node at angle pi (even n) has no exact partner
    assert unpaired(evans.circle_contour(0.0, 0.05, 64)) == [32]
    assert unpaired(evans.circle_contour(0.3, 0.05, 33)) == []
    gap = spectral_gap(params01, 0.5)
    rect, hole = evans.keyhole_contour(-gap / 2.0, 2.0, 2.0, hole_radius=0.05)
    assert unpaired(rect) == []
    assert unpaired(evans.rectangle_contour(-0.1, 1.7, 0.3, density=5.0)) == []
    assert unpaired(hole) == [24]
    # marched: the real nodes (theta = 0 on the circle, the midpoints of the
    # rectangle's vertical sides), the node at pi and one per conjugate pair
    assert _marched_columns(evans.circle_contour(0.0, 0.05, 64), prof01, monkeypatch) == 33
    assert _marched_columns(rect, prof01, monkeypatch) == len(rect) // 2 + 1
    off_axis = evans.circle_contour(0.003 + 0.004j, 0.05, 64)
    assert _marched_columns(off_axis, prof01, monkeypatch) == 64
