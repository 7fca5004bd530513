import dataclasses
import json
import warnings

import numpy as np
import pytest

from dpstab import WaveParams, dc_profile, derived_constants, solve_profile
from dpstab import cli, evolve, kernel
from dpstab.dispersion import ess_spectrum_curve, lambda_of_r, spectral_gap
from dpstab.wave import ParameterError, SolverError, profile_w
from sweep_oracle import causal_exp_conv6

LAM_BRANCH_01 = 0.45 / np.sqrt(3.0)  # double spatial root at r = 1/sqrt(3)


def _grid(L, h):
    n = int(round(2 * L / h)) + 1
    return h * (np.arange(n) - (n - 1) // 2)


def _flat(profile):
    k = profile.params.k
    return dataclasses.replace(profile, u0=np.full_like(profile.u0, k))


def _grid_freq(n, h):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _rk4(w, dt, rhs):
    # classical RK4, the oracle of the flows' fused steps
    k1 = rhs(w)
    k2 = rhs(w + 0.5 * dt * k1)
    k3 = rhs(w + 0.5 * dt * k2)
    k4 = rhs(w + dt * k3)
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _oracle_momentum_rhs(mm, k, c, h):
    # the co-moving momentum flow by complex FFTs
    sig = _grid_freq(mm.size, h)
    inv_helm = 1.0 / (1.0 + sig * sig)
    mk = np.fft.fft(mm - k)
    u_k = np.fft.ifft(inv_helm * mk).real
    ux = np.fft.ifft(1j * sig * inv_helm * mk).real
    mx = np.fft.ifft(1j * sig * mk).real
    return -(u_k + k - c) * mx - 3.0 * ux * mm


def _oracle_linearized(w, profile, alpha, adjoint=False):
    # A_alpha (or its adjoint) on the periodic grid of the first w.size
    # profile nodes by complex FFTs: independent of the real-transform route
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


# ---------------------------------------------------------------- operator


def test_plane_wave_multiplier(params01, prof01):
    # the modes of the periodic grid of the first N - 1 nodes, whose plane
    # waves take at the seam node the value of node 0
    flat = _flat(prof01)
    sig = _grid_freq(prof01.xi.size - 1, prof01.h)
    for alpha in (0.0, 0.5):
        for idx in (0, 3, 40, 333):
            s0 = sig[idx]
            w = np.exp(1j * s0 * prof01.xi)
            aw = evolve.apply_linearized(w, flat, alpha)
            lam = lambda_of_r(1j * s0 - alpha, params01)
            assert np.max(np.abs(aw - lam * w)) <= 1e-10


def test_plane_wave_adjoint_multiplier(params01, prof01):
    flat = _flat(prof01)
    sig = _grid_freq(prof01.xi.size - 1, prof01.h)
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
    # the zero datum is a valid run of norm 0, to which no decay rate fits
    traj = evolve.free_evolve(np.zeros(512), params01, 0.5, 3.0, 0.05)
    assert np.all(traj.norm_w == 0.0) and np.all(traj.w == 0.0)
    with pytest.raises(SolverError, match="strictly positive"):
        evolve.decay_rate(traj)
    # the real-transform flow takes one real, finite grid function
    w0 = np.exp(-_grid(10.0, 0.05)[:-1] ** 2)
    nan_w0 = w0.copy()
    nan_w0[7] = np.nan
    for bad in (nan_w0, np.stack([w0, w0]), w0 + 0.5j * w0, w0[:1]):
        with pytest.raises(ParameterError, match="real, finite 1-d"):
            evolve.free_evolve(bad, params01, 0.5, 3.0, 0.05)


def test_free_evolve_unitary_at_alpha_zero(params01):
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal(4001)
    n0 = evolve.l2_norm(w0, 0.03)
    traj = evolve.free_evolve(w0, params01, 0.0, 10.0, 0.03, n_records=11)
    assert np.max(np.abs(traj.norm_w / n0 - 1.0)) <= 1e-10


def test_free_evolve_decay_rate(params01):
    h = 0.025
    xi = _grid(60.0, h)
    w0 = np.exp(-xi ** 2 / 18.0) * (1.0 + 0.3 * np.cos(1.1 * xi))
    traj = evolve.free_evolve(w0, params01, 0.5, 40.0, h, n_records=9)
    # records at t = 5, 10, ..., 40
    slope = np.polyfit(traj.t[1:], np.log(traj.norm_w[1:]), 1)[0]
    assert -0.27 <= slope <= -0.24  # gap 0.25 plus curvature prefactor


def test_free_evolve_record(params01):
    # the last record is the exact multiplier flow of the datum at T
    h = 0.05
    xi = _grid(20.0, h)[:-1]
    w0 = np.exp(-xi ** 2 / 4.0)
    traj = evolve.free_evolve(w0, params01, 0.5, 3.0, h, n_records=7)
    assert np.array_equal(traj.t, np.linspace(0.0, 3.0, 7))
    assert traj.T == 3.0 and traj.dt == 0.5
    lam = lambda_of_r(1j * _grid_freq(xi.size, h) - 0.5, params01)
    w = np.fft.ifft(np.exp(3.0 * lam) * np.fft.fft(w0))
    assert np.max(np.abs(traj.w - w)) <= 1e-14
    assert traj.w.dtype == np.float64
    assert traj.norm_w[-1] == evolve.l2_norm(traj.w, h)


@pytest.mark.parametrize("T, n_records", [(0.0, 11), (-2.0, 11), (np.nan, 11),
                                          (1.0, 1), (1.0, -5), (1.0, 10 ** 9)])
def test_record_schedule_rejected(params01, prof60, T, n_records):
    xi = _grid(10.0, 0.05)
    with pytest.raises(ParameterError):
        evolve.free_evolve(np.exp(-xi ** 2), params01, 0.5, T, 0.05,
                           n_records=n_records)
    with pytest.raises(ParameterError):
        evolve.linear_evolve(np.exp(-prof60.xi ** 2), prof60, 0.5, T,
                             n_records=n_records)
    with pytest.raises(ParameterError):
        evolve.nonlinear_evolve(0.1 + np.exp(-xi ** 2), params01, T, 0.05,
                                n_records=n_records)


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


@pytest.mark.parametrize("x, match", [(-0.25, "x=-0.25 lies on"),
                                      (np.nan, "finite"), (np.inf, "finite"),
                                      (1e200, "overflows")],
                         ids=["on-curve", "nan", "inf", "huge"])
def test_resolvent_norm_scan_rejects(params01, x, match):
    # -0.25 = -gap is the sampled curve's point at sigma = 0, where the norm
    # is unbounded: a ParameterError naming x, not a division by zero
    with pytest.raises(ParameterError, match=match):
        evolve.resolvent_norm_scan(params01, 0.5, [10.0, x])


def test_free_green_structure(params01):
    # G = a1 e^{s1 y} (y > 0), -(a2 e^{s2 y} + a3 e^{s3 y}) (y < 0): G and G'
    # are continuous at 0 and G'' jumps by 1/(c - k)
    gf = evolve.free_green(0.3 + 0.2j, 0.5, params01)
    a, s = np.array(gf.a), np.array(gf.roots)
    scale = np.abs(a).max()
    assert abs(a.sum()) <= 1e-12 * scale
    assert abs((a * s).sum()) <= 1e-12 * scale
    assert abs((a * s * s).sum() - 1.0 / (params01.c - params01.k)) <= 1e-10
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
    phi[xi.size // 2] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        evolve.green_apply(gf, phi, h)


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize("entry", ["free_evolve", "green_apply", "nonlinear_evolve"])
def test_bad_spacing_rejected(params01, entry, h):
    g = 0.1 + np.exp(-_grid(5.0, 0.1) ** 2)
    call = {
        "free_evolve": lambda: evolve.free_evolve(g, params01, 0.5, 1.0, h),
        "green_apply": lambda: evolve.green_apply(
            evolve.free_green(1.0, 0.5, params01), g, h),
        "nonlinear_evolve": lambda: evolve.nonlinear_evolve(g, params01, 1.0, h),
    }[entry]
    with pytest.raises(ParameterError, match="grid spacing must be finite and positive"):
        call()


@pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", ["ess_spectrum_curve", "spectral_gap",
                                   "apply_linearized", "free_green", "free_evolve"])
def test_singular_or_non_finite_weight_rejected(params01, prof01, entry, alpha):
    # one rule for every weighted routine: alpha finite and |alpha| != 1
    call = {
        "ess_spectrum_curve": lambda: ess_spectrum_curve(params01, alpha, [0.0]),
        "spectral_gap": lambda: spectral_gap(params01, alpha),
        "apply_linearized": lambda: evolve.apply_linearized(
            np.zeros(prof01.xi.size), prof01, alpha),
        "free_green": lambda: evolve.free_green(1.0, alpha, params01),
        "free_evolve": lambda: evolve.free_evolve(
            np.exp(-_grid(5.0, 0.1) ** 2), params01, alpha, 1.0, 0.1),
    }[entry]
    with pytest.raises(ParameterError, match="singular" if alpha == -1.0 else "finite"):
        call()


# ------------------------------------------------------------ linear flow


def test_linear_evolve_z1_stationary(prof60):
    basis = kernel.kernel_basis(prof60, 0.5)
    traj = evolve.linear_evolve(
        basis.z1.copy(), prof60, 0.5, T=2.0, project_out=False, n_records=11
    )
    assert abs(traj.norm_w[-1] / traj.norm_w[0] - 1.0) <= 1e-8
    assert evolve.l2_norm(traj.w - basis.z1, prof60.h) <= 1e-6
    # projected, z1 leaves a residue whose pairings are its own size; the
    # drift gate admits it
    proj = evolve.linear_evolve(basis.z1.copy(), prof60, 0.5, T=2.0, n_records=11)
    assert np.max(proj.norm_w) <= 1e-10 * traj.norm_w[0]


def test_linear_evolve_z2_secular(prof60):
    # w(t) = z2 - t z1 exactly; <eta1, w> drifts with unit-slope
    basis = kernel.kernel_basis(prof60, 0.5)
    traj = evolve.linear_evolve(
        basis.z2.copy(), prof60, 0.5, T=2.0, project_out=False, n_records=41
    )
    coef = np.polyfit(traj.t, traj.records["ip_eta1"], 1)[0]
    assert abs(coef + 1.0) <= 1e-3
    assert np.max(np.abs(traj.records["ip_eta2"] - 1.0)) <= 1e-6
    recon = basis.z2 - traj.T * basis.z1
    assert evolve.l2_norm(traj.w - recon, prof60.h) <= 1e-5


def test_linear_evolve_projected_decay(prof60):
    rng = np.random.default_rng(11)
    w0 = np.exp(-prof60.xi ** 2 / 25.0) * rng.standard_normal(prof60.xi.size)
    traj = evolve.linear_evolve(w0, prof60, 0.5, T=25.0, n_records=101)
    slope = evolve.decay_rate(traj, window=(5.0, 20.0))
    assert slope <= -0.175  # 0.8 * min(gap, certified eta)
    n0 = evolve.l2_norm(w0, prof60.h)
    assert np.max(np.abs(traj.records["ip_eta1"])) <= 1e-6 * n0
    assert np.max(np.abs(traj.records["ip_eta2"])) <= 1e-6 * n0


def _cli_grid(command):
    table = cli._COMMANDS[command][1]
    return table["L"].default, table["h"].default


def _bump_drift(k, L, h):
    # kernel pairing drift of the CLI's default datum (bump at 2, width 1),
    # relative to its norm; by T = 5 it has reached its T = 25 size to 20 %
    prof = solve_profile(WaveParams(k, 1.0), L=L, h=h)
    w0 = np.exp(-((prof.xi - 2.0) ** 2) / 2.0)
    traj = evolve.linear_evolve(w0, prof, 0.5, T=5.0, n_records=11)
    ip = np.abs([traj.records["ip_eta1"], traj.records["ip_eta2"]])
    return float(np.max(ip)) / traj.norm_w[0]


@pytest.mark.parametrize("k", [0.1, 0.03])
def test_linear_default_grid_keeps_the_drift(k, monkeypatch):
    # the default grid (h 0.04) against the order-6 sweep on the grid of
    # half its spacing, the earlier default: at k = 0.03 the order-10 sweep
    # gives 2.0e-11, the order-6 sweep 1.2e-10 at h 0.02 and 7.5e-9 at h 0.04
    L, h = _cli_grid("linear-evolve")
    assert h == 0.04
    drift = _bump_drift(k, L, h)
    monkeypatch.setattr(kernel, "causal_exp_conv",
                        lambda g, rate, h, start=0.0: causal_exp_conv6(g, rate, h, start).real)
    assert drift <= 1.5 * _bump_drift(k, L, 0.5 * h)


def test_nonlinear_default_grid_keeps_the_invariants(tmp_path):
    # the default spacing 0.1 on the benchmark's run (L 60, T 50): the
    # order-10 sweeps of `conserved` give 1.1e-12, the order-6 ones 1.0e-10
    assert _cli_grid("nonlinear-evolve")[1] == 0.1
    out = str(tmp_path / "nl")
    assert cli.run(["nonlinear-evolve", "--k", "0.1", "--c", "1", "--t-final", "50",
                    "--L", "60", "--out", out]) == 0
    with open(out + ".json", encoding="utf-8") as fh:
        drift = json.load(fh)["invariant_drift"]
    assert max(abs(v) for v in drift.values()) <= 5e-12


def test_linear_evolve_step_rejection(prof60):
    basis = kernel.kernel_basis(prof60, 0.5)
    for dt in (1.0, 0.0, -0.01, np.nan):
        with pytest.raises(ParameterError, match="use dt <="):
            evolve.linear_evolve(basis.z1, prof60, 0.5, T=1.0, dt=dt)
    for T, dt in ((1e9, None), (1.0, 1e-300)):
        with pytest.raises(ParameterError, match="RK4 steps"):
            evolve.linear_evolve(basis.z1, prof60, 0.5, T=T, dt=dt)
    with pytest.raises(ParameterError):
        evolve.linear_evolve(basis.z1[:-1], prof60, 0.5, T=1.0)
    bad = basis.z1.copy()
    bad[7] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        evolve.linear_evolve(bad, prof60, 0.5, T=1.0)


def test_linear_step_bound_covers_the_spectrum():
    # RK4 is stable on the imaginary axis up to 2 sqrt(2) only, so the step
    # that puts the largest eigenvalue of the grid operator there must be
    # refused; on this grid an estimate 1 % below that eigenvalue passes it
    params = WaveParams(0.1, 1.0)
    prof = solve_profile(params, L=30.0, h=0.1)
    n = prof.xi.size - 1
    A = kernel.real_spectral_map(np.eye(n), evolve._spectral_rhs(prof, 0.01)).T
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    assert evolve._norm_bound(prof, 0.01) >= rho
    w0 = np.exp(-(prof.xi - 2.0) ** 2 / 2.0)
    with pytest.raises(ParameterError, match="use dt <="):
        evolve.linear_evolve(w0, prof, 0.01, T=1.0, dt=2.0 * np.sqrt(2.0) / rho,
                             n_records=2)


def test_linear_step_is_taylor_polynomial_of_apply_linearized(prof60):
    # one RK4 step of a linear flow is the degree-4 Taylor polynomial of
    # exp(dt A), so the operator apply_linearized applies is the one the flow
    # steps; the datum is the flow's own, the seam node a copy of node 0
    basis = kernel.kernel_basis(prof60, 0.5)
    v = basis.z2.copy()
    v[-1] = v[0]
    T = 2.5 / evolve._norm_bound(prof60, 0.5)  # the safe dt
    traj = evolve.linear_evolve(v, prof60, 0.5, T, project_out=False, n_records=2)
    assert traj.t.size == 2 and traj.dt == T
    y = v
    for j in (4, 3, 2, 1):
        y = v + (traj.dt / j) * evolve.apply_linearized(y, prof60, 0.5)
    assert np.max(np.abs(traj.w - y)) <= 1e-13 * np.max(np.abs(y - v))


def test_zero_states_run():
    # the zero datum of the linearized flow and the exact background of the
    # nonlinear flow are valid runs of norm 0, to which no decay rate fits
    params = WaveParams(0.1, 1.0)
    prof = solve_profile(params, L=30.0, h=0.1)
    lin = evolve.linear_evolve(np.zeros(prof.xi.size), prof, 0.5, T=1.0)
    non = evolve.nonlinear_evolve(np.full(1201, params.k), params, T=1.0, h=0.05)
    assert np.all(lin.norm_w == 0.0) and np.all(lin.w == 0.0)
    assert np.all(lin.records["ip_eta1"] == 0.0) and np.all(lin.records["ip_eta2"] == 0.0)
    assert np.all(non.norm_w == 0.0) and np.all(non.w == params.k)
    assert all(np.all(v == 0.0) for v in non.records.values())
    for traj in (lin, non):
        with pytest.raises(SolverError, match="strictly positive"):
            evolve.decay_rate(traj)


def test_linear_evolve_rk4_order(prof60):
    w0 = np.exp(-prof60.xi ** 2 / 16.0) * (1.0 + 0.2 * np.cos(2.3 * prof60.xi))
    rate = evolve._norm_bound(prof60, 0.5)
    T = 0.5
    outs = {}
    for f in (1, 2, 8):
        dt = T / (np.ceil(T * rate) * f)
        traj = evolve.linear_evolve(
            w0, prof60, 0.5, T, dt=dt, project_out=False, n_records=2
        )
        outs[f] = traj.w
    e1 = evolve.l2_norm(outs[1] - outs[8], prof60.h)
    e2 = evolve.l2_norm(outs[2] - outs[8], prof60.h)
    assert 12.0 <= e1 / e2 <= 20.0


def test_spectral_rhs_matches_physical_operator(prof60):
    # a random spectrum of a real function, enveloped in frequency, on the
    # periodic grid of the first N - 1 profile nodes
    rng = np.random.default_rng(3)
    n = prof60.xi.size - 1
    sig = 2.0 * np.pi * np.fft.rfftfreq(n, d=prof60.h)
    v = np.exp(-(4.0 * sig / sig.max()) ** 2) * (
        rng.standard_normal(sig.size) + 1j * rng.standard_normal(sig.size))
    v.imag[[0, -1]] = 0.0
    w = np.fft.irfft(v, n)
    for adjoint in (False, True):
        ref = np.fft.rfft(_oracle_linearized(w, prof60, 0.5, adjoint))
        out = evolve._spectral_rhs(prof60, 0.5, adjoint)(v)
        err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13, (adjoint, err)
        # irfft drops the DC and Nyquist imaginary parts; a march that kept
        # them would drift
        assert out.imag[0] == 0.0 and out.imag[-1] == 0.0


def test_stacked_rows_map_exactly(prof60):
    # one transform pair over stacked rows gives each row's own map bit for bit
    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, prof60.xi.size - 1))
    v = np.fft.rfft(w[:2])
    for adjoint in (False, True):
        rhs = evolve._spectral_rhs(prof60, 0.5, adjoint)
        assert np.array_equal(kernel.real_spectral_map(w, rhs),
                              [kernel.real_spectral_map(row, rhs) for row in w])
        z = w[0] + 1j * w[1]
        assert np.array_equal(
            kernel.real_spectral_map(z, rhs),
            kernel.real_spectral_map(z.real, rhs)
            + 1j * kernel.real_spectral_map(z.imag, rhs))
        assert np.array_equal(rhs(v), [rhs(row) for row in v])


def _transforms_per_step(run):
    """evolve's rfft and irfft calls per RK4 step of run(T), from runs of n
    and 2n steps with the same records, so set-up and records cancel."""
    calls = {}
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rfft", "irfft"):
            def counted(*args, _name=name, _fn=getattr(evolve, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            mp.setattr(evolve, name, counted)
        for T in (0.1, 0.2):
            calls.update(rfft=0, irfft=0)
            traj = run(T)
            runs.append((round(traj.T / traj.dt), dict(calls)))
    (n1, c1), (n2, c2) = runs
    assert n2 == 2 * n1
    return {name: (c2[name] - c1[name]) / n1 for name in c1}


def test_transforms_per_step(params01, prof01):
    # the linear flow: one inverse and one forward transform per stage
    w0 = np.exp(-(prof01.xi - 2.0) ** 2 / 2.0)
    assert _transforms_per_step(lambda T: evolve.linear_evolve(
        w0, prof01, 0.5, T, dt=0.01, project_out=False, n_records=2)
    ) == {"rfft": 4, "irfft": 4}
    # the nonlinear flow: one 4-row inverse of the carried spectrum opens the
    # step, each later stage makes one forward and one 3-row inverse
    # transform, and the new state one forward transform
    xi = _grid(10.0, 0.1)
    m0 = params01.k + np.exp(-xi ** 2 / 2.0)
    assert _transforms_per_step(lambda T: evolve.nonlinear_evolve(
        m0, params01, T, 0.1, dt=0.01, n_records=2)
    ) == {"rfft": 4, "irfft": 4}


def test_spectral_march_matches_physical_rk4(prof60):
    w0 = np.exp(-prof60.xi ** 2 / 16.0) * (1.0 + 0.2 * np.cos(2.3 * prof60.xi))
    h, T = prof60.h, 0.2
    nsteps = int(np.ceil(T * evolve._norm_bound(prof60, 0.5)))
    traj = evolve.linear_evolve(w0, prof60, 0.5, T, dt=T / nsteps,
                                project_out=False, n_records=nsteps + 1)
    basis = kernel.kernel_basis(prof60, 0.5)
    n = w0.size - 1
    w = w0[:n]
    rows = []
    for step in range(nsteps + 1):
        if step:
            w = _rk4(w, traj.dt, lambda v: _oracle_linearized(v, prof60, 0.5))
        wc = np.append(w, w[0])
        rows.append((evolve.l2_norm(wc, h), np.trapezoid(basis.eta1 * wc, dx=h),
                     np.trapezoid(basis.eta2 * wc, dx=h)))
    norms, ip1, ip2 = np.array(rows).T
    n0 = evolve.l2_norm(w0, h)
    assert np.max(np.abs(traj.norm_w - norms) / norms) <= 1e-13
    assert np.max(np.abs(traj.records["ip_eta1"] - ip1)) <= 1e-14 * n0
    assert np.max(np.abs(traj.records["ip_eta2"] - ip2)) <= 1e-14 * n0
    assert np.max(np.abs(traj.w - wc)) <= 1e-13 * np.max(np.abs(wc))


def test_l2_norm_of_huge_data():
    # squares of samples near 1e300 overflow; the flow is linear, so a datum
    # 1e300 times larger gives norms 1e300 times larger
    params = WaveParams(0.1, 1.0)
    prof = solve_profile(params, L=30.0, h=0.1)
    bump = np.exp(-(prof.xi - 2.0) ** 2 / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = evolve.linear_evolve(bump, prof, 0.5, T=5.0)
        huge = evolve.linear_evolve(1e300 * bump, prof, 0.5, T=5.0)
        assert evolve.l2_norm(np.full(4, 1e300), 0.25) == 1e300
    assert np.all(np.isfinite(huge.norm_w))
    assert np.max(np.abs(huge.norm_w / (1e300 * unit.norm_w) - 1.0)) <= 1e-14
    assert evolve.l2_norm([3.0, 4.0j], 1.0) == 5.0
    assert evolve.l2_norm(np.zeros(3), 0.1) == 0.0


# --------------------------------------------------------- nonlinear flow


def test_nonlinear_soliton_stationary(params01, prof60):
    traj = evolve.nonlinear_evolve(prof60.mu.copy(), params01, T=10.0, h=prof60.h,
                                   n_records=21)
    scale = evolve.l2_norm(prof60.mu - params01.k, prof60.h)
    assert evolve.l2_norm(traj.w - prof60.mu, prof60.h) <= 1e-6 * scale
    for name in ("E", "Q", "H"):
        v = traj.records[name]
        assert np.max(np.abs(v - v[0])) <= 1e-6 * max(1.0, abs(v[0]))


def test_nonlinear_validation(params01):
    xi = _grid(10.0, 0.05)
    with pytest.raises(ParameterError):
        evolve.nonlinear_evolve(np.full(xi.size, -0.1), params01, 1.0, 0.05)
    with pytest.raises(ParameterError):
        evolve.nonlinear_evolve(np.full((4, 4), 0.1), params01, 1.0, 0.05)
    nan_m0 = np.full(xi.size, 0.1)
    nan_m0[7] = np.nan
    with pytest.raises(ParameterError, match="positive"):
        evolve.nonlinear_evolve(nan_m0, params01, 1.0, 0.05)
    m0 = 0.1 + np.exp(-xi ** 2)
    for dt in (0.5, 0.0, -0.01, np.nan):
        with pytest.raises(ParameterError, match="use dt <="):
            evolve.nonlinear_evolve(m0, params01, 1.0, 0.05, dt=dt)
    with pytest.raises(ParameterError, match="RK4 steps"):
        evolve.nonlinear_evolve(m0, params01, 1e9, 0.05)
    with pytest.raises(ParameterError, match="odd length"):
        evolve.nonlinear_evolve(m0[:-1], params01, 1.0, 0.05)


def test_nonlinear_at_rest_in_frame(params01):
    # u = c everywhere sets no advective step bound: the run takes
    # n_records - 1 steps and stays at its datum
    m0 = np.ones(1201)
    traj = evolve.nonlinear_evolve(m0, params01, T=1.0, h=0.05)
    assert round(traj.T / traj.dt) == traj.t.size - 1 == 200
    assert np.all(np.isfinite(traj.norm_w))
    assert all(np.all(np.isfinite(v)) for v in traj.records.values())
    assert np.max(np.abs(traj.w - m0)) <= 1e-14


def test_nonlinear_positivity_abort(params01):
    # an unresolved one-point spike loses positivity fast
    h = 0.025
    xi = _grid(60.0, h)
    m0 = 1e-6 + np.exp(-xi ** 2 / 0.0005)
    with pytest.raises(SolverError, match="positivity"):
        evolve.nonlinear_evolve(m0, params01, T=1.0, h=h)


def test_nonlinear_rk4_order(params01, prof60):
    h = prof60.h
    m0 = prof60.mu + kernel.spectral_multiplier(
        1e-2 * np.exp(-(prof60.xi - 2.0) ** 2 / 2.0), h, lambda s: 1.0 + s * s)
    T = 0.5
    base = 0.9 * kernel.rfft_sigma(prof60.xi.size - 1, h).max()
    outs = {}
    for f in (1, 2, 8):
        dt = T / (np.ceil(T * base) * f)
        traj = evolve.nonlinear_evolve(m0, params01, T, h, dt=dt, n_records=2)
        outs[f] = traj.w
    e1 = evolve.l2_norm(outs[1] - outs[8], h)
    e2 = evolve.l2_norm(outs[2] - outs[8], h)
    assert 12.0 <= e1 / e2 <= 20.0


def test_real_fft_operator_matches_complex_oracle(params01, prof60):
    # the complex-FFT formulas the real-transform flows replaced
    rng = np.random.default_rng(5)
    size = prof60.xi.size
    n = size - 1
    env = np.exp(-prof60.xi[:n] ** 2 / 16.0)
    u, v = env * rng.standard_normal((2, n))
    # the Nyquist mode is one real mode: the real transform keeps the real
    # part of its symbol there, the complex formula all of it, which differ
    # for complex data; band-limit that data
    sig = _grid_freq(n, prof60.h)
    z = np.fft.ifft(np.fft.fft(u + 1j * v) * (np.abs(sig) <= 0.5 * sig.max()))
    for adjoint in (False, True):
        rhs = evolve._spectral_rhs(prof60, 0.5, adjoint)
        for w in (u, z):
            ref = _oracle_linearized(w, prof60, 0.5, adjoint)
            out = kernel.real_spectral_map(w, rhs)
            err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
            assert err <= 1e-13, (adjoint, w.dtype, err)

    # one RK4 step of the nonlinear flow against the oracle right-hand side
    k, c, h = params01.k, params01.c, prof60.h
    xi = prof60.xi
    m0 = k + np.exp(-(xi - 2.0) ** 2 / 2.0) * rng.uniform(0.8, 1.2, xi.size)
    dt = 0.01
    stepped = _rk4(m0[:-1], dt, lambda mm: _oracle_momentum_rhs(mm, k, c, h))
    run = evolve.nonlinear_evolve(m0, params01, dt, h, dt=dt, n_records=2)
    scale = np.max(np.abs(stepped - m0[:-1]))
    assert np.max(np.abs(run.w[:-1] - stepped)) <= 1e-13 * scale
    assert run.w[-1] == run.w[0]
    assert run.config["n_fft"] == size - 1
    assert run.config["L"] == prof60.L

    lin = evolve.linear_evolve(m0 - k, prof60, 0.5, T=0.05, n_records=3)
    assert lin.w[-1] == lin.w[0]
    assert lin.config["n_fft"] == size - 1
    assert lin.config["L"] == prof60.L


# ------------------------------------------------------------- modulation


def test_modulation_fit_exact_member(params01, prof60):
    u = profile_w(prof60.params, prof60.xi - 0.3)[0] + params01.k
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
    # u0 + eps d_c u0 is the speed derivative direction: c shifts by eps
    eps = 1e-4
    fit = evolve.modulation_fit(
        prof60.u0 + eps * dc_profile(prof60), params01, 0.5, prof60.h
    )
    assert abs((fit.c_star - params01.c) / eps - 1.0) <= 0.1
    assert abs(fit.gamma_star) <= 1e-6


def test_modulation_fit_trust_region(params01, prof60):
    far = prof60.u0 + 0.3 * np.exp(-prof60.xi ** 2)
    with pytest.raises(ParameterError, match="trust region"):
        evolve.modulation_fit(far, params01, 0.5, prof60.h)
    with pytest.raises(ParameterError):
        evolve.modulation_fit(prof60.u0[:-1], params01, 0.5, prof60.h)
    # non-finite data or weight: a bad input, not a failed fit
    nan_u = prof60.u0.copy()
    nan_u[prof60.i0] = np.nan
    for u, alpha in ((nan_u, 0.5), (prof60.u0, np.nan), (prof60.u0, np.inf)):
        with pytest.raises(ParameterError, match="finite"):
            evolve.modulation_fit(u, params01, alpha, prof60.h)


# ------------------------------------------------------------ trajectories


def test_evolution_state_invariants():
    t = np.array([0.0, 1.0, 1.0])
    ones = np.ones_like(t)
    with pytest.raises(SolverError):
        evolve.EvolutionState(
            dt=0.1, T=1.0, t=t, norm_w=ones, w=ones,
        )
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(SolverError, match="finite and non-negative"):
            evolve.EvolutionState(
                dt=0.1, T=1.0, t=np.array([0.0, 1.0, 2.0]),
                norm_w=np.array([1.0, bad, 1.0]), w=ones,
            )
    # a zero norm is the norm of a zero state, a valid run
    evolve.EvolutionState(dt=0.1, T=1.0, t=np.array([0.0, 1.0, 2.0]),
                          norm_w=np.array([1.0, 0.0, 1.0]), w=ones)


def test_decay_rate_validation():
    t = np.linspace(0.0, 10.0, 21)
    traj = evolve.EvolutionState(
        dt=0.5, T=10.0, t=t, norm_w=np.exp(-0.3 * t), w=np.ones(5),
    )
    assert abs(evolve.decay_rate(traj) + 0.3) <= 1e-12
    with pytest.raises(ParameterError):
        evolve.decay_rate(traj, window=(9.9, 10.0))
    # record times whose squares under- or overflow: no fit, no LAPACK failure
    for T in (1e-300, 1e-160, 1e160):
        short = dataclasses.replace(traj, T=T, t=t * (T / 10.0))
        with pytest.raises(ParameterError, match="least-squares fit"):
            evolve.decay_rate(short)
    # the slope resolves to about eps/(window length): 3.7e-8 is fitted,
    # 3.7e-5 is rounding noise
    short = dataclasses.replace(traj, T=1e-8, t=t * 1e-9)
    assert abs(evolve.decay_rate(short) + 0.3e9) <= 1e-12 * 0.3e9
    short = dataclasses.replace(traj, T=1e-11, t=t * 1e-12)
    with pytest.raises(ParameterError, match="rounding floor"):
        evolve.decay_rate(short)
    # a record that turns NaN after construction is caught in the window
    traj.norm_w[10] = np.nan
    with pytest.raises(SolverError, match="strictly positive"):
        evolve.decay_rate(traj)
