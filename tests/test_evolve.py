import dataclasses
import json
import warnings

import numpy as np
import pytest

from dpstab import WaveParams, derived_constants, solve_profile
from dpstab import evolve, kernel
from dpstab.dispersion import lambda_of_r, spectral_gap
from dpstab.wave import ParameterError, SolverError

LAM_BRANCH_01 = 0.45 / np.sqrt(3.0)  # double spatial root at r = 1/sqrt(3)


def _grid(L, h):
    n = int(round(2 * L / h)) + 1
    return h * (np.arange(n) - (n - 1) // 2)


def _flat(profile):
    k = profile.params.k
    return dataclasses.replace(profile, u0=np.full_like(profile.u0, k))


def _grid_freq(n, h):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


# ---------------------------------------------------------------- operator


def test_plane_wave_multiplier(params01, prof01):
    flat = _flat(prof01)
    sig = _grid_freq(prof01.xi.size, prof01.h)
    for alpha in (0.0, 0.5):
        for idx in (0, 3, 40, 333):
            s0 = sig[idx]
            w = np.exp(1j * s0 * prof01.xi)
            aw = evolve.apply_linearized(w, flat, alpha)
            lam = lambda_of_r(1j * s0 - alpha, params01)
            assert np.max(np.abs(aw - lam * w)) <= 1e-10


def test_plane_wave_adjoint_multiplier(params01, prof01):
    flat = _flat(prof01)
    sig = _grid_freq(prof01.xi.size, prof01.h)
    s0 = sig[40]
    w = np.exp(1j * s0 * prof01.xi)
    aw = evolve.apply_linearized(w, flat, 0.5, adjoint=True)
    lam = lambda_of_r(-1j * s0 - 0.5, params01)
    assert np.max(np.abs(aw - lam * w)) <= 1e-10


def test_apply_linearized_validation(prof01):
    w = np.zeros(prof01.xi.size)
    for alpha in (1.0, -1.0):
        with pytest.raises(ParameterError):
            evolve.apply_linearized(w, prof01, alpha)
    with pytest.raises(ParameterError):
        evolve.apply_linearized(w[:-1], prof01, 0.5)


def test_apply_linearized_real_and_linear(prof01):
    rng = np.random.default_rng(0)
    u = np.exp(-prof01.xi ** 2 / 9.0) * rng.standard_normal(prof01.xi.size)
    v = np.exp(-prof01.xi ** 2 / 9.0) * rng.standard_normal(prof01.xi.size)
    au = evolve.apply_linearized(u, prof01, 0.5)
    assert au.dtype == np.float64
    both = evolve.apply_linearized(u + 2j * v, prof01, 0.5)
    av = evolve.apply_linearized(v, prof01, 0.5)
    assert np.max(np.abs(both - (au + 2j * av))) <= 1e-12 * np.max(np.abs(au))


def test_kernel_chain_under_operator(prof60):
    # z1 in the kernel, z2 mapped to -z1, eta2 in the adjoint kernel
    basis = kernel.kernel_basis(prof60, 0.5)
    h = prof60.h
    az1 = evolve.apply_linearized(basis.z1, prof60, 0.5)
    assert evolve.l2_norm(az1, h) <= 3e-7
    az2 = evolve.apply_linearized(basis.z2, prof60, 0.5)
    assert evolve.l2_norm(az2 + basis.z1, h) <= 1e-6
    aet2 = evolve.apply_linearized(basis.eta2, prof60, 0.5, adjoint=True)
    assert evolve.l2_norm(aet2, h) <= 3e-7


def test_adjoint_pairing(prof01):
    # <A u, v> = <u, A^T v> for decaying data on the periodic grid
    rng = np.random.default_rng(1)
    env = np.exp(-prof01.xi ** 2 / 16.0)
    u = env * rng.standard_normal(prof01.xi.size)
    v = env * rng.standard_normal(prof01.xi.size)
    h = prof01.h
    lhs = h * np.sum(evolve.apply_linearized(u, prof01, 0.5) * v)
    rhs = h * np.sum(u * evolve.apply_linearized(v, prof01, 0.5, adjoint=True))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


# ------------------------------------------------------------- free flow


def test_free_evolve_zero(params01):
    w = evolve.free_evolve(np.zeros(512), params01, 0.5, 3.0, 0.05)
    assert np.all(w == 0.0)


def test_free_evolve_unitary_at_alpha_zero(params01):
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal(4001)
    n0 = evolve.l2_norm(w0, 0.03)
    for t in (1.0, 10.0):
        nt = evolve.l2_norm(evolve.free_evolve(w0, params01, 0.0, t, 0.03), 0.03)
        assert abs(nt / n0 - 1.0) <= 1e-10


def test_free_evolve_decay_rate(params01):
    h = 0.025
    xi = _grid(60.0, h)
    w0 = np.exp(-xi ** 2 / 18.0) * (1.0 + 0.3 * np.cos(1.1 * xi))
    ts = np.linspace(5.0, 40.0, 8)
    norms = [
        evolve.l2_norm(evolve.free_evolve(w0, params01, 0.5, t, h), h) for t in ts
    ]
    slope = np.polyfit(ts, np.log(norms), 1)[0]
    assert -0.27 <= slope <= -0.24  # gap 0.25 plus curvature prefactor


def test_free_evolve_warnings(params01):
    w0 = np.exp(-_grid(40.0, 0.02) ** 2)
    for alpha in (0.9, -0.2):
        with pytest.warns(UserWarning):
            evolve.free_evolve(w0, params01, alpha, 1.0, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve.free_evolve(w0, params01, 0.5, 1.0, 0.02)
        evolve.free_evolve(w0, params01, 1.2, 1.0, 0.02)
    with pytest.raises(ParameterError):
        evolve.free_evolve(w0, params01, 1.0, 1.0, 0.02)


def test_weighted_transport_decay(params01):
    # pure translation toward +inf contracts the weighted norm exactly
    h = 0.02
    xi = _grid(40.0, h)
    f = np.exp(-xi ** 2)
    alpha = 0.5
    for m in (40, 200):
        shifted = np.roll(f, -m)  # f(xi + m h)
        r = evolve.l2_norm(np.exp(alpha * xi) * shifted, h) / evolve.l2_norm(
            np.exp(alpha * xi) * f, h
        )
        assert abs(r - np.exp(-alpha * m * h)) <= 1e-12


# ---------------------------------------------------------------- resolvent


def test_free_green_structure(params01):
    gf = evolve.free_green(0.3 + 0.2j, 0.5, params01)
    scale = max(abs(a) for a in gf.a)
    c1, c2 = gf.continuity_residuals()
    assert abs(c1) <= 1e-12 * scale
    assert abs(c2) <= 1e-12 * scale
    assert abs(gf.jump - 1.0 / (params01.c - params01.k)) <= 1e-14
    assert abs(gf.jump_value() - gf.jump) <= 1e-10
    assert np.real(gf.roots[0]) < 0 < np.real(gf.roots[1])
    assert np.real(gf.roots[2]) > 0


def test_free_green_rejections(params01):
    for lam in (-0.25, -1.0):
        with pytest.raises(ParameterError):
            evolve.free_green(lam, 0.5, params01)
    with pytest.raises(ParameterError):
        evolve.free_green(1.0, 1.0, params01)
    with pytest.raises(SolverError):
        evolve.free_green(LAM_BRANCH_01, 0.5, params01)


def test_green_eval_piecewise(params01):
    gf = evolve.free_green(0.4 + 0.1j, 0.5, params01)
    y = np.array([-3.0, -0.5, 0.5, 3.0])
    g0 = evolve.green_eval(gf, y)
    s1, s2, s3 = gf.roots
    a1, a2, a3 = gf.a
    right = a1 * np.exp(s1 * y[2:])
    left = -(a2 * np.exp(s2 * y[:2]) + a3 * np.exp(s3 * y[:2]))
    assert np.max(np.abs(g0[2:] - right)) <= 1e-14
    assert np.max(np.abs(g0[:2] - left)) <= 1e-14
    # C^0 and C^1 continuity across zero, finite-difference consistency
    eps = 1e-7
    for deriv in (0, 1):
        gl = evolve.green_eval(gf, -eps, deriv=deriv)[0]
        gr = evolve.green_eval(gf, eps, deriv=deriv)[0]
        assert abs(gl - gr) <= 1e-6
    d_fd = (evolve.green_eval(gf, 1.0 + eps)[0] - evolve.green_eval(gf, 1.0 - eps)[0]) / (
        2 * eps
    )
    assert abs(d_fd - evolve.green_eval(gf, 1.0, deriv=1)[0]) <= 1e-6
    with pytest.raises(ParameterError):
        evolve.green_eval(gf, 1.0, deriv=3)


def test_green_apply_manufactured(params01):
    # oracle: the periodic multiplier inverse on exact grid modes
    h = 0.025
    xi = _grid(60.0, h)
    sig = _grid_freq(xi.size, h)
    phi = np.exp(-((xi - 3.0) / 4.0) ** 2) * np.cos(0.7 * xi)
    interior = np.abs(xi) <= 45.0
    for lam in (0.3 + 0.2j, 1.0, 0.05 + 1.5j):
        gf = evolve.free_green(lam, 0.5, params01)
        u_ref = np.fft.ifft(np.fft.fft(phi) / (lam - lambda_of_r(1j * sig - 0.5, params01)))
        u = evolve.green_apply(gf, phi, h)
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(u - u_ref)[interior]) <= 1e-9 * scale


def test_green_apply_constant_family(params01):
    # the jump constant family 1/(c - k) validates; the alternative
    # normalization by u0(0) - c fails by an order-one factor
    h = 0.025
    xi = _grid(60.0, h)
    sig = _grid_freq(xi.size, h)
    phi = np.exp(-((xi - 3.0) / 4.0) ** 2)
    lam = 0.3 + 0.2j
    gf = evolve.free_green(lam, 0.5, params01)
    u_ref = np.fft.ifft(np.fft.fft(phi) / (lam - lambda_of_r(1j * sig - 0.5, params01)))
    u = evolve.green_apply(gf, phi, h)
    interior = np.abs(xi) <= 45.0
    scale = np.max(np.abs(u_ref))
    assert np.max(np.abs(u - u_ref)[interior]) <= 1e-9 * scale
    other = (params01.c - params01.k) / (
        derived_constants(params01).u_max - params01.c
    )
    assert np.max(np.abs(u * other - u_ref)[interior]) >= 0.1 * scale


def test_green_apply_real_and_validation(params01):
    h = 0.025
    xi = _grid(60.0, h)
    phi = np.exp(-(xi ** 2) / 9.0)
    gf = evolve.free_green(1.0, 0.5, params01)
    u = evolve.green_apply(gf, phi, h)
    assert u.dtype == np.float64
    with pytest.raises(ParameterError):
        evolve.green_apply(gf, phi[:4], h)


def test_resolvent_norm_scan(params01):
    xs = np.linspace(10.0, 200.0, 20)
    scan = evolve.resolvent_norm_scan(params01, 0.5, xs)
    assert abs(scan["gap"] - 0.25) <= 1e-12
    # distance to the spectrum is attained at sigma = 0: norm = 1/(x + gap)
    ref = 1.0 / (xs + 0.25)
    assert np.max(np.abs(scan["norm"] - ref) / ref) <= 1e-6
    r1 = scan["norm_times_x1"]
    assert r1.max() / r1.min() <= 1.05  # first-power scaling is flat
    r2 = scan["norm_times_x2"]
    assert r2.max() / r2.min() >= 3.0  # quadratic product grows like x


# ------------------------------------------------------------ linear flow


def test_linear_evolve_z1_stationary(prof60):
    basis = kernel.kernel_basis(prof60, 0.5)
    traj = evolve.linear_evolve(
        basis.z1.copy(), prof60, 0.5, T=2.0, project_out=False, n_records=11
    )
    assert abs(traj.norm_w[-1] / traj.norm_w[0] - 1.0) <= 1e-8
    assert evolve.l2_norm(traj.w - basis.z1, prof60.h) <= 1e-6


def test_linear_evolve_z2_secular(prof60):
    # w(t) = z2 - t z1 exactly; <eta1, w> drifts with unit-slope
    basis = kernel.kernel_basis(prof60, 0.5)
    traj = evolve.linear_evolve(
        basis.z2.copy(), prof60, 0.5, T=2.0, project_out=False, n_records=41
    )
    coef = np.polyfit(traj.t, traj.ip_eta1, 1)[0]
    assert abs(coef + 1.0) <= 1e-3
    assert np.max(np.abs(traj.ip_eta2 - 1.0)) <= 1e-6
    recon = basis.z2 - traj.T * basis.z1
    assert evolve.l2_norm(traj.w - recon, prof60.h) <= 1e-5


def test_linear_evolve_projected_decay(prof60):
    rng = np.random.default_rng(11)
    w0 = np.exp(-prof60.xi ** 2 / 25.0) * rng.standard_normal(prof60.xi.size)
    traj = evolve.linear_evolve(w0, prof60, 0.5, T=25.0, n_records=101)
    slope = evolve.decay_rate(traj, window=(5.0, 20.0))
    assert slope <= -0.175  # 0.8 * min(gap, certified eta)
    n0 = evolve.l2_norm(w0, prof60.h)
    assert np.max(np.abs(traj.ip_eta1)) <= 1e-6 * n0
    assert np.max(np.abs(traj.ip_eta2)) <= 1e-6 * n0


def test_linear_evolve_step_rejection(prof60):
    basis = kernel.kernel_basis(prof60, 0.5)
    with pytest.raises(ParameterError, match="use dt <="):
        evolve.linear_evolve(basis.z1, prof60, 0.5, T=1.0, dt=1.0)
    with pytest.raises(ParameterError):
        evolve.linear_evolve(basis.z1[:-1], prof60, 0.5, T=1.0)


def test_linear_evolve_rk4_order(prof60):
    w0 = np.exp(-prof60.xi ** 2 / 16.0) * (1.0 + 0.2 * np.cos(2.3 * prof60.xi))
    rho = evolve._spectral_radius(prof60, 0.5)
    T = 0.5
    outs = {}
    for f in (1, 2, 8):
        dt = T / (np.ceil(T * rho) * f)
        traj = evolve.linear_evolve(
            w0, prof60, 0.5, T, dt=dt, project_out=False, n_records=2
        )
        outs[f] = traj.w
    e1 = evolve.l2_norm(outs[1] - outs[8], prof60.h)
    e2 = evolve.l2_norm(outs[2] - outs[8], prof60.h)
    assert 12.0 <= e1 / e2 <= 20.0


# --------------------------------------------------------- nonlinear flow


def test_nonlinear_soliton_stationary(params01, prof60):
    traj = evolve.nonlinear_evolve(prof60.mu.copy(), params01, T=10.0, h=prof60.h,
                                   n_records=21)
    scale = evolve.l2_norm(prof60.mu - params01.k, prof60.h)
    assert evolve.l2_norm(traj.w - prof60.mu, prof60.h) <= 1e-6 * scale
    for name in ("E", "Q", "H"):
        v = traj.extra[name]
        assert np.max(np.abs(v - v[0])) <= 1e-6 * max(1.0, abs(v[0]))


def test_nonlinear_soliton_filter_off(params01, prof60):
    traj = evolve.nonlinear_evolve(prof60.mu.copy(), params01, T=5.0, h=prof60.h,
                                   filter_modes=False, n_records=11)
    scale = evolve.l2_norm(prof60.mu - params01.k, prof60.h)
    assert evolve.l2_norm(traj.w - prof60.mu, prof60.h) <= 1e-6 * scale
    for name in ("E", "Q", "H"):
        v = traj.extra[name]
        assert np.max(np.abs(v - v[0])) <= 1e-6 * max(1.0, abs(v[0]))


def test_nonlinear_validation(params01):
    xi = _grid(10.0, 0.05)
    with pytest.raises(ParameterError):
        evolve.nonlinear_evolve(np.full(xi.size, -0.1), params01, 1.0, 0.05)
    with pytest.raises(ParameterError):
        evolve.nonlinear_evolve(np.full((4, 4), 0.1), params01, 1.0, 0.05)
    m0 = 0.1 + np.exp(-xi ** 2)
    with pytest.raises(ParameterError, match="use dt <="):
        evolve.nonlinear_evolve(m0, params01, 1.0, 0.05, dt=0.5)
    with pytest.raises(ParameterError, match="odd length"):
        evolve.nonlinear_evolve(m0[:-1], params01, 1.0, 0.05)


def test_nonlinear_positivity_abort(params01):
    # unresolved one-point spike with no filtering loses positivity fast
    h = 0.025
    xi = _grid(60.0, h)
    m0 = 1e-6 + np.exp(-xi ** 2 / 0.0005)
    with pytest.raises(SolverError, match="positivity"):
        evolve.nonlinear_evolve(m0, params01, T=1.0, h=h, filter_modes=False)


def test_nonlinear_rk4_order(params01, prof60):
    h = prof60.h
    sig = _grid_freq(prof60.xi.size, h)
    m0 = prof60.mu + np.fft.ifft(
        (1 + sig ** 2) * np.fft.fft(1e-2 * np.exp(-(prof60.xi - 2.0) ** 2 / 2.0))
    ).real
    T = 0.5
    base = 0.9 * np.abs(sig).max()
    outs = {}
    for f in (1, 2, 8):
        dt = T / (np.ceil(T * base) * f)
        traj = evolve.nonlinear_evolve(m0, params01, T, h, dt=dt,
                                       filter_modes=False, n_records=2)
        outs[f] = traj.w
    e1 = evolve.l2_norm(outs[1] - outs[8], h)
    e2 = evolve.l2_norm(outs[2] - outs[8], h)
    assert 12.0 <= e1 / e2 <= 20.0


def test_real_fft_operator_matches_complex_oracle(params01, prof60):
    # the complex-FFT formulas the real-transform flows replaced
    def oracle_linearized(w, profile, alpha, adjoint):
        n = w.size
        c = profile.params.c
        cmu = c - profile.u0[:n]
        d = (-1j if adjoint else 1j) * _grid_freq(n, profile.h) - alpha
        p = d * (4.0 - d * d) / (1.0 - d * d)
        q = d / (1.0 - d * d)
        if adjoint:
            out = cmu * np.fft.ifft(p * np.fft.fft(w)) - np.fft.ifft(
                3.0 * c * q * np.fft.fft(w))
        else:
            out = np.fft.ifft(p * np.fft.fft(cmu * w)
                              - 3.0 * c * q * np.fft.fft(w))
        return out.real if np.isrealobj(w) else out

    def oracle_momentum_rhs(mm, k, c, h):
        sig = _grid_freq(mm.size, h)
        inv_helm = 1.0 / (1.0 + sig * sig)
        mk = np.fft.fft(mm - k)
        u_k = np.fft.ifft(inv_helm * mk).real
        ux = np.fft.ifft(1j * sig * inv_helm * mk).real
        mx = np.fft.ifft(1j * sig * mk).real
        return -(u_k + k - c) * mx - 3.0 * ux * mm

    rng = np.random.default_rng(5)
    size = prof60.xi.size
    for n in (size, size - 1):
        xi = prof60.xi[:n]
        env = np.exp(-xi ** 2 / 16.0)
        u, v = env * rng.standard_normal((2, n))
        z = u + 1j * v
        if n % 2 == 0:
            # the Nyquist mode is one real mode: the real transform keeps the
            # real part of its symbol there, the complex formula all of it,
            # which differ for complex data; band-limit that data
            sig = _grid_freq(n, prof60.h)
            z = np.fft.ifft(np.fft.fft(z) * (np.abs(sig) <= 0.5 * sig.max()))
        for adjoint in (False, True):
            op = evolve._linearized_op(prof60, 0.5, n, adjoint)
            for w in (u, z):
                ref = oracle_linearized(w, prof60, 0.5, adjoint)
                err = np.max(np.abs(op(w) - ref)) / np.max(np.abs(ref))
                assert err <= 1e-13, (n, adjoint, w.dtype, err)

    # one RK4 step of the nonlinear flow against the oracle right-hand side
    k, c, h = params01.k, params01.c, prof60.h
    xi = prof60.xi
    m0 = k + np.exp(-(xi - 2.0) ** 2 / 2.0) * rng.uniform(0.8, 1.2, xi.size)
    dt = 0.01
    run = evolve.nonlinear_evolve(m0, params01, dt, h, dt=dt,
                                  filter_modes=False, n_records=2)
    ref = evolve._rk4(m0[:-1], dt,
                      lambda mm: oracle_momentum_rhs(mm, k, c, h))
    scale = np.max(np.abs(ref - m0[:-1]))
    assert np.max(np.abs(run.w[:-1] - ref)) <= 1e-13 * scale
    assert run.w[-1] == run.w[0]
    assert run.config["n_fft"] == size - 1
    assert run.config["L"] == prof60.L

    lin = evolve.linear_evolve(m0 - k, prof60, 0.5, T=0.05, n_records=3)
    assert lin.w[-1] == lin.w[0]
    assert lin.config["n_fft"] == size - 1
    assert lin.config["L"] == prof60.L


# ------------------------------------------------------------- modulation


def test_modulation_fit_exact_member(params01, prof60):
    u = prof60.eval_w(prof60.xi - 0.3)[0] + params01.k
    fit = evolve.modulation_fit(u, params01, 0.5, prof60.h)
    assert fit.converged
    assert abs(fit.c_star - params01.c) <= 1e-8
    assert abs(fit.gamma_star - 0.3) <= 1e-8
    assert fit.residual <= 1e-6


def test_modulation_fit_shifted_speed(params01, prof60):
    p2 = WaveParams(params01.k, params01.c + 1e-3)
    prof2 = solve_profile(p2, L=60.0, h=0.025)
    fit = evolve.modulation_fit(prof2.u0, params01, 0.5, prof60.h)
    assert fit.converged
    assert abs(fit.c_star - p2.c) <= 1e-6
    assert abs(fit.gamma_star) <= 1e-6


def test_modulation_fit_first_order_response(params01, prof60):
    # u0 + eps dc_u0 is the speed derivative direction: c shifts by eps
    eps = 1e-4
    fit = evolve.modulation_fit(
        prof60.u0 + eps * prof60.dc_u0, params01, 0.5, prof60.h
    )
    assert abs((fit.c_star - params01.c) / eps - 1.0) <= 0.1
    assert abs(fit.gamma_star) <= 1e-6


def test_modulation_fit_trust_region(params01, prof60):
    far = prof60.u0 + 0.3 * np.exp(-prof60.xi ** 2)
    with pytest.raises(ParameterError, match="trust region"):
        evolve.modulation_fit(far, params01, 0.5, prof60.h)
    with pytest.raises(ParameterError):
        evolve.modulation_fit(prof60.u0[:-1], params01, 0.5, prof60.h)


# ------------------------------------------------------------ trajectories


def test_evolution_state_invariants(params01):
    t = np.array([0.0, 1.0, 1.0])
    ones = np.ones_like(t)
    with pytest.raises(SolverError):
        evolve.EvolutionState(
            kind="linear", params=params01, alpha=0.5, h=0.1, dt=0.1, T=1.0,
            t=t, norm_w=ones, ip_eta1=None, ip_eta2=None, w=ones,
        )
    with pytest.raises(SolverError):
        evolve.EvolutionState(
            kind="linear", params=params01, alpha=0.5, h=0.1, dt=0.1, T=1.0,
            t=np.array([0.0, 1.0, 2.0]), norm_w=np.array([1.0, 0.0, 1.0]),
            ip_eta1=None, ip_eta2=None, w=ones,
        )


def test_trajectory_writers(params01, prof60, tmp_path):
    basis = kernel.kernel_basis(prof60, 0.5)
    traj = evolve.linear_evolve(
        basis.z1.copy(), prof60, 0.5, T=0.5, project_out=False, n_records=6
    )
    csv = tmp_path / "lin.csv"
    evolve.write_trajectory_csv(traj, csv)
    data = np.genfromtxt(csv, delimiter=",", names=True)
    assert data.dtype.names == ("t", "norm_w", "ip_eta1", "ip_eta2")
    assert np.array_equal(data["t"], traj.t)
    assert np.array_equal(data["norm_w"], traj.norm_w)

    run = evolve.nonlinear_evolve(prof60.mu.copy(), params01, T=0.2, h=prof60.h,
                                  n_records=3)
    csv2 = tmp_path / "non.csv"
    evolve.write_trajectory_csv(run, csv2)
    data2 = np.genfromtxt(csv2, delimiter=",", names=True)
    assert data2.dtype.names == ("t", "norm_w", "ip_eta1", "ip_eta2", "E", "Q", "H")
    assert np.array_equal(data2["Q"], run.extra["Q"])
    assert np.all(np.isnan(data2["ip_eta1"]))

    js = tmp_path / "run.json"
    evolve.write_run_json(run, js)
    cfg = json.loads(js.read_text())
    assert cfg["kind"] == "nonlinear"
    assert cfg["filter"] is True
    assert cfg["h"] == prof60.h
    assert cfg["T"] == 0.2


def test_decay_rate_validation(params01):
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve.EvolutionState(
        kind="linear", params=params01, alpha=0.5, h=0.1, dt=0.5, T=10.0,
        t=t, norm_w=np.exp(-0.3 * t), ip_eta1=None, ip_eta2=None,
        w=np.ones(5),
    )
    assert abs(evolve.decay_rate(traj) + 0.3) <= 1e-12
    with pytest.raises(ParameterError):
        evolve.decay_rate(traj, window=(9.9, 10.0))
