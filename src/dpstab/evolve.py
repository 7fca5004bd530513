"""Linearized and nonlinear time evolution in exponentially weighted norms.

The linearization about the wave in the co-moving frame is

    A w = d (1 - d^2)^{-1} (4 - d^2) [(c - u0) w] - 3 c d (1 - d^2)^{-1} w,

with d the spatial derivative; the weighted operator A_alpha replaces d by
d - alpha.  Spatial discretization is Fourier collocation on the periodic
grid of 2L/h nodes, the seam node restored as a copy, so every nonlocal
inverse is a diagonal multiplier on the real-FFT half-spectrum; profiles
are exponentially close to the background at the boundary, which keeps the
periodic mismatch far below the test tolerances.

The free resolvent (lambda - A_alpha^inf)^{-1} over the flat background is
realized by an explicit piecewise-exponential kernel: the C^1 Green function
of the cubic polynomial part, with second-derivative jump 1/(c - k), composed
with the local factor 1 - (d - alpha)^2.  Both the jump constant and the
composition are pinned by a manufactured-solution oracle in the tests rather
than assumed.

Time stepping is classical RK4 with the step chosen against a measured
spectral radius; nonlinear runs apply a mild exponential filter
exp(-36 theta^36) on the top eighth of modes (theta ramps 0 to 1 across that
band) unless disabled.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq
from scipy.signal import lfilter

from . import kernel
from .dispersion import classify_roots, lambda_of_r, spectral_gap
from .wave import (
    ParameterError,
    Profile,
    SolverError,
    WaveParams,
    derived_constants,
    solve_profile,
)

__all__ = [
    "apply_linearized",
    "free_evolve",
    "GreenFunction",
    "free_green",
    "green_eval",
    "green_apply",
    "resolvent_norm_scan",
    "EvolutionState",
    "linear_evolve",
    "nonlinear_evolve",
    "decay_rate",
    "ModulationFit",
    "modulation_fit",
    "l2_norm",
    "write_trajectory_csv",
    "write_run_json",
]


def _freq(n: int, h: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _check_alpha(alpha: float) -> None:
    if abs(abs(alpha) - 1.0) < 1e-12:
        raise ParameterError(
            "weight alpha = +-1 is singular: the symbol 1 - (i sigma - alpha)^2 "
            "vanishes at sigma = 0"
        )


def l2_norm(w, h: float) -> float:
    # rectangle rule: exact Parseval partner of the periodic Fourier evolution
    w = np.asarray(w)
    return float(np.sqrt(h * np.sum(np.abs(w) ** 2)))


def _linearized_op(profile: Profile, alpha: float, n: int, adjoint: bool = False):
    """w -> A_alpha w (or its L^2 adjoint) on the periodic grid of the first
    n profile nodes.

    c - u0, p(sigma) = d (4 - d^2)/(1 - d^2) and 3c q(sigma) = 3c d/(1 - d^2)
    are built once on the rfft half-spectrum; each application costs three
    real transforms, and complex input is applied to its real and imaginary
    parts separately.
    """
    c = profile.params.c
    cmu = c - profile.u0[:n]
    sig = 2.0 * np.pi * rfftfreq(n, d=profile.h)
    d = (-1j if adjoint else 1j) * sig - alpha
    p = d * (4.0 - d * d) / (1.0 - d * d)
    q3 = 3.0 * c * d / (1.0 - d * d)

    if adjoint:
        def real(v):
            vk = rfft(v)
            return cmu * irfft(p * vk, n) - irfft(q3 * vk, n)
    else:
        def real(v):
            return irfft(p * rfft(cmu * v) - q3 * rfft(v), n)

    def apply(w):
        if np.iscomplexobj(w):
            return real(w.real) + 1j * real(w.imag)
        return real(w)

    return apply


def _closed(w: np.ndarray) -> np.ndarray:
    # the closed grid's last node is the periodic copy of its first
    return np.append(w, w[0])


def apply_linearized(w, profile: Profile, alpha: float, adjoint: bool = False):
    """A_alpha w (or its L^2 adjoint) by Fourier collocation on the grid."""
    _check_alpha(alpha)
    w = np.asarray(w)
    if w.shape != profile.xi.shape:
        raise ParameterError("w is not on the profile grid")
    return _linearized_op(profile, alpha, w.size, adjoint)(w)


def free_evolve(w0, params: WaveParams, alpha: float, t: float, h: float):
    """Exact multiplier evolution over the flat background: w(t) from w0."""
    _check_alpha(alpha)
    w0 = np.asarray(w0)
    ac = derived_constants(params).alpha_crit
    if alpha < 0.0 or ac <= alpha < 1.0:
        warnings.warn(
            f"weight alpha={alpha} has no spectral gap: growth expected",
            stacklevel=2,
        )
    lam = lambda_of_r(1j * _freq(w0.size, h) - alpha, params)
    out = np.fft.ifft(np.exp(lam * t) * np.fft.fft(w0))
    return out.real if np.isrealobj(w0) else out


@dataclass(frozen=True)
class GreenFunction:
    """Piecewise-exponential kernel of the free resolvent.

    roots are the shifted spatial roots s_j = r_j + alpha sorted by real
    part: G(y) = a1 e^{s1 y} for y > 0 (Re s1 < 0) and
    G(y) = -(a2 e^{s2 y} + a3 e^{s3 y}) for y < 0 (Re s2, s3 > 0), with
    a_j = 1/P'(s_j) the inverse derivative of the characteristic cubic.
    The residue identities make G and G' continuous at 0 while G'' jumps
    by `jump` = 1/(c - k); the resolvent acts as G * (1 - (d - alpha)^2) f.
    """

    lam: complex
    alpha: float
    params: WaveParams
    roots: tuple
    a: tuple
    jump: float

    def continuity_residuals(self) -> tuple:
        a1, a2, a3 = self.a
        s1, s2, s3 = self.roots
        return (a1 + a2 + a3, a1 * s1 + a2 * s2 + a3 * s3)

    def jump_value(self) -> complex:
        s1, s2, s3 = self.roots
        a1, a2, a3 = self.a
        return a1 * s1 * s1 + a2 * s2 * s2 + a3 * s3 * s3


def free_green(lam, alpha: float, params: WaveParams) -> GreenFunction:
    """Green function of lambda - A_alpha^inf for lambda right of the spectrum."""
    _check_alpha(alpha)
    trip = classify_roots(lam, alpha, params)
    if not (trip.n_left == 1 and trip.n_center == 0 and trip.n_right == 2):
        raise ParameterError(
            f"lambda={lam} is not right of the weighted essential spectrum: "
            f"shifted-root split {trip.n_left}/{trip.n_center}/{trip.n_right}"
        )
    s = np.asarray(trip.roots)
    sep = min(
        abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2])
    )
    # a true double root only resolves to ~sqrt(eps) numerically
    if sep < 1e-6:
        raise SolverError(f"coalescing characteristic roots at lambda={lam}")
    ck = params.c - params.k
    a = tuple(
        1.0 / (ck * np.prod([s[j] - s[i] for i in range(3) if i != j]))
        for j in range(3)
    )
    return GreenFunction(
        lam=complex(lam), alpha=float(alpha), params=params,
        roots=tuple(s), a=a, jump=1.0 / ck,
    )


def green_eval(gf: GreenFunction, y, deriv: int = 0) -> np.ndarray:
    """Pointwise values of the kernel or its first two derivatives."""
    if deriv not in (0, 1, 2):
        raise ParameterError("deriv must be 0, 1 or 2")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s1, s2, s3 = gf.roots
    a1, a2, a3 = gf.a
    out = np.empty(y.shape, dtype=complex)
    pos = y >= 0.0
    out[pos] = a1 * s1 ** deriv * np.exp(s1 * y[pos])
    out[~pos] = -(
        a2 * s2 ** deriv * np.exp(s2 * y[~pos])
        + a3 * s3 ** deriv * np.exp(s3 * y[~pos])
    )
    return out


def _causal_conv(g: np.ndarray, rho: complex, h: float) -> np.ndarray:
    # C(x_i) = int_{y < x_i} e^{-rho (x_i - y)} g(y) dy for Re rho > 0,
    # with zero inflow at the left end (g is assumed to decay there)
    W = kernel._panel_exp_weights(rho * h, h)
    idx, s = kernel._window_index(g.size)
    inc = np.einsum("ij,ij->i", W[s], g[idx].astype(complex))
    q = np.exp(-rho * h)
    out = np.empty(g.size, dtype=complex)
    out[0] = 0.0
    out[1:] = lfilter(np.array([1.0 + 0j]), np.array([1.0, -q]), inc)
    return out


def green_apply(gf: GreenFunction, phi, h: float) -> np.ndarray:
    """Solve (lambda - A_alpha^inf) u = phi for decaying phi on the grid."""
    phi = np.asarray(phi)
    if phi.ndim != 1 or phi.size < 8:
        raise ParameterError("phi must be a 1-d grid function with at least 8 samples")
    d = 1j * _freq(phi.size, h) - gf.alpha
    psi = np.fft.ifft((1.0 - d * d) * np.fft.fft(phi))
    if np.isrealobj(phi):
        psi = psi.real
    s1, s2, s3 = gf.roots
    a1, a2, a3 = gf.a
    u = a1 * _causal_conv(psi, -s1, h)
    u -= a2 * _causal_conv(psi[::-1], s2, h)[::-1]
    u -= a3 * _causal_conv(psi[::-1], s3, h)[::-1]
    if np.isrealobj(phi) and abs(np.imag(gf.lam)) < 1e-14:
        return u.real
    return u


def resolvent_norm_scan(params: WaveParams, alpha: float, xs,
                        sigma: np.ndarray | None = None) -> dict:
    """Discretized L^2 norm of the free resolvent along real lambda = x.

    The constant-coefficient operator diagonalizes in Fourier, so the norm
    is max over the frequency grid of 1/|x - lambda_alpha(sigma)|.  Returns
    the norm together with its products against |x| and |x|^2; the |x|^2
    product is the scaling a uniform quadratic decay of the resolvent would
    require, the |x| product is what a distance-to-spectrum bound allows.
    The |x|^2 product cannot stay flat in L^2: ||R(lambda)|| >= 1/dist(lambda,
    sigma) holds for any closed operator, and here the spectrum reaches -gap.
    """
    gap = spectral_gap(params, alpha)
    if sigma is None:
        sigma = np.linspace(-400.0, 400.0, 160001)
    lam_curve = lambda_of_r(1j * sigma - alpha, params)
    xs = np.asarray(xs, dtype=float)
    norms = np.array(
        [1.0 / np.min(np.abs(x - lam_curve)) for x in xs]
    )
    return {
        "x": xs,
        "norm": norms,
        "norm_times_x2": norms * xs ** 2,
        "norm_times_x1": norms * np.abs(xs),
        "gap": gap,
    }


@dataclass
class EvolutionState:
    """Recorded time evolution: norms, kernel pairings, and the final state."""

    kind: str
    params: WaveParams
    alpha: float | None
    h: float
    dt: float
    T: float
    t: np.ndarray
    norm_w: np.ndarray
    ip_eta1: np.ndarray | None
    ip_eta2: np.ndarray | None
    w: np.ndarray
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise SolverError("trajectory timestamps must increase strictly")
        if np.any(self.norm_w <= 0.0):
            raise SolverError("trajectory norm record must be strictly positive")


def _rk4(w, dt, rhs):
    k1 = rhs(w)
    k2 = rhs(w + 0.5 * dt * k1)
    k3 = rhs(w + 0.5 * dt * k2)
    k4 = rhs(w + dt * k3)
    return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _spectral_radius(profile: Profile, alpha: float, iters: int = 50) -> float:
    key = ("rho", float(alpha))
    if key in profile._cache:
        return profile._cache[key]
    n = profile.xi.size - 1
    op = _linearized_op(profile, alpha, n)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w /= np.linalg.norm(w)
    rho = 0.0
    for _ in range(iters):
        aw = op(w)
        rho = float(np.linalg.norm(aw))
        w = aw / rho
    profile._cache[key] = rho
    return rho


def _record_stride(nsteps: int, n_records: int) -> int:
    return max(1, nsteps // max(1, n_records - 1))


def linear_evolve(w0, profile: Profile, alpha: float, T: float,
                  dt: float | None = None, project_out: bool = True,
                  n_records: int = 201) -> EvolutionState:
    """Integrate w_t = A_alpha w by RK4, recording norms and eta-pairings.

    With project_out the data is first reduced by the complementary kernel
    projection; the recorded pairings <eta_j, w(t)> then measure how well the
    projection commutes with the discrete flow.  The flow runs on the
    periodic grid of the first N - 1 profile nodes; recorded and returned
    states carry the seam node as a copy of node 0.
    """
    _check_alpha(alpha)
    basis = kernel.kernel_basis(profile, alpha)
    w = np.array(w0, dtype=float, copy=True)
    if w.shape != profile.xi.shape:
        raise ParameterError("w0 is not on the profile grid")
    if project_out:
        _, w = kernel.project(w, basis)
    rho = _spectral_radius(profile, alpha)
    dt_max = 2.8 / rho
    if dt is None:
        dt = 2.5 / rho
    elif dt > dt_max:
        raise ParameterError(
            f"dt={dt} exceeds the RK4 stability bound for the measured spectral "
            f"radius {rho:.3e}; use dt <= {2.5 / rho:.3e}"
        )
    nsteps = max(1, int(np.ceil(T / dt)))
    dt = T / nsteps
    stride = _record_stride(nsteps, n_records)
    h = profile.h
    n = w.size - 1
    rhs = _linearized_op(profile, alpha, n)
    w = w[:n]

    ts, norms, ip1, ip2 = [], [], [], []

    def record(t, v):
        v = _closed(v)
        ts.append(t)
        norms.append(l2_norm(v, h))
        ip1.append(float(np.trapezoid(basis.eta1 * v, dx=h)))
        ip2.append(float(np.trapezoid(basis.eta2 * v, dx=h)))

    record(0.0, w)
    for step in range(1, nsteps + 1):
        w = _rk4(w, dt, rhs)
        if step % stride == 0 or step == nsteps:
            if not np.all(np.isfinite(w)):
                raise SolverError(f"linear evolution lost finiteness at t={step * dt}")
            record(step * dt, w)
    config = {
        "kind": "linear", "k": profile.params.k, "c": profile.params.c,
        "alpha": alpha, "L": profile.L, "h": h, "n_fft": n, "dt": dt, "T": T,
        "projected": bool(project_out), "filter": None, "seed": None,
    }
    return EvolutionState(
        kind="linear", params=profile.params, alpha=alpha, h=h, dt=dt, T=T,
        t=np.array(ts), norm_w=np.array(norms), ip_eta1=np.array(ip1),
        ip_eta2=np.array(ip2), w=_closed(w), config=config,
    )


def _exp_filter(sig: np.ndarray) -> np.ndarray:
    # damp the top eighth of the rfft frequencies sig: exp(-36 theta^36),
    # theta ramping over it
    theta = np.clip((sig / sig.max() - 0.875) / 0.125, 0.0, 1.0)
    return np.exp(-36.0 * theta ** 36)


def nonlinear_evolve(m0, params: WaveParams, T: float, h: float,
                     dt: float | None = None, filter_modes: bool = True,
                     n_records: int = 201, snapshots: bool = False) -> EvolutionState:
    """Integrate the co-moving momentum flow m_t = -(u - c) m' - 3 u' m.

    m0 lives on a closed grid of odd length N; the flow runs on the periodic
    grid of its first N - 1 nodes.  u is recovered from m through the
    periodic Helmholtz multiplier; the conserved functionals are recorded at
    every output time through the independent recursion-based quadrature
    route.
    """
    m = np.array(m0, dtype=float, copy=True)
    if m.ndim != 1 or m.size < 16 or m.size % 2 == 0:
        raise ParameterError("m0 must be a 1-d grid function with an odd length")
    if np.min(m) <= 0.0:
        raise ParameterError("m0 must be positive everywhere")
    k, c = params.k, params.c
    n = m.size - 1
    m = m[:n]
    sig = 2.0 * np.pi * rfftfreq(n, d=h)
    inv_helm = 1.0 / (1.0 + sig * sig)
    dsym = 1j * sig
    dsym_inv_helm = dsym * inv_helm
    filt = _exp_filter(sig) if filter_modes else None

    def rhs(mm):
        mk = rfft(mm - k)
        u_k = irfft(inv_helm * mk, n)
        ux = irfft(dsym_inv_helm * mk, n)
        mx = irfft(dsym * mk, n)
        return -(u_k + k - c) * mx - 3.0 * ux * mm

    u0_k = irfft(inv_helm * rfft(m - k), n)
    vmax = float(np.max(np.abs(u0_k + k - c)))
    smax = float(sig.max())
    dt_max = 2.8 / (vmax * smax)
    if dt is None:
        dt = 2.0 / (vmax * smax)
    elif dt > dt_max:
        raise ParameterError(
            f"dt={dt} exceeds the advective stability bound; "
            f"use dt <= {2.0 / (vmax * smax):.3e}"
        )
    nsteps = max(1, int(np.ceil(T / dt)))
    dt = T / nsteps
    stride = _record_stride(nsteps, n_records)

    ts, norms, E, Q, H = [], [], [], [], []
    snaps = []

    def record(t, mm):
        mm = _closed(mm)
        ts.append(t)
        norms.append(l2_norm(mm - k, h))
        cv = kernel.conserved(params, h, m=mm)
        E.append(cv.E_mass)
        Q.append(cv.Q)
        H.append(cv.H)
        if snapshots:
            snaps.append((t, mm))

    record(0.0, m)
    for step in range(1, nsteps + 1):
        m = _rk4(m, dt, rhs)
        if filter_modes:
            m = k + irfft(filt * rfft(m - k), n)
        mn = float(np.min(m))
        if not np.isfinite(mn) or mn <= 0.0:
            raise SolverError(
                f"momentum positivity lost at t={step * dt:.6f} (min m = {mn})"
            )
        if step % stride == 0 or step == nsteps:
            record(step * dt, m)
    config = {
        "kind": "nonlinear", "k": k, "c": c, "alpha": None,
        "L": 0.5 * h * n, "h": h, "n_fft": n, "dt": dt, "T": T,
        "filter": bool(filter_modes), "seed": None,
    }
    extra = {"E": np.array(E), "Q": np.array(Q), "H": np.array(H)}
    if snapshots:
        extra["snapshots"] = snaps
    return EvolutionState(
        kind="nonlinear", params=params, alpha=None, h=h, dt=dt, T=T,
        t=np.array(ts), norm_w=np.array(norms), ip_eta1=None, ip_eta2=None,
        w=_closed(m), config=config, extra=extra,
    )


def decay_rate(traj: EvolutionState, window: tuple | None = None) -> float:
    """Least-squares slope of log ||w(t)|| over the fitting window.

    Defaults to [T/5, 4T/5], excluding the transient and the truncation tail.
    """
    if window is None:
        window = (traj.T / 5.0, 4.0 * traj.T / 5.0)
    mask = (traj.t >= window[0]) & (traj.t <= window[1])
    if np.count_nonzero(mask) < 3:
        raise ParameterError("fitting window contains fewer than 3 records")
    norms = traj.norm_w[mask]
    if np.any(norms <= 0.0):
        raise SolverError("norm record is not strictly positive in the window")
    return float(np.polyfit(traj.t[mask], np.log(norms), 1)[0])


@dataclass(frozen=True)
class ModulationFit:
    """Best-fit wave parameters for a state near the solitary family."""

    c_star: float
    gamma_star: float
    residual: float
    converged: bool
    n_iter: int
    history: tuple


def modulation_fit(u, params: WaveParams, alpha: float, h: float,
                   max_iter: int = 50) -> ModulationFit:
    """Damped Gauss-Newton fit of (c, gamma) minimizing the weighted misfit.

    The Jacobian is frozen at the seed (c, 0): columns e^{alpha xi} dc_u0 and
    -e^{alpha xi} u0'.  Each iterate re-solves the profile at the candidate
    speed and evaluates it at shifted positions through the dense tail
    representation, so gamma is not restricted to grid multiples.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size % 2 == 0:
        raise ParameterError("u must be a 1-d grid function with an odd length")
    n = u.size
    L = 0.5 * h * (n - 1)
    xi = h * (np.arange(n) - (n - 1) // 2)
    weight = np.exp(alpha * xi)
    k, c = params.k, params.c

    base = solve_profile(params, L=L, h=h)
    from .wave import dc_profile as _dc
    j_c = weight * _dc(base)
    j_g = -weight * base.u0_p
    # frozen 2x2 normal matrix of the Gauss-Newton step
    M = np.array([
        [np.trapezoid(j_c * j_c, dx=h), np.trapezoid(j_c * j_g, dx=h)],
        [np.trapezoid(j_g * j_c, dx=h), np.trapezoid(j_g * j_g, dx=h)],
    ])

    profiles = {}

    def model(cv, gv):
        if cv not in profiles:
            if not 0.0 < k < cv / 4.0:
                raise SolverError(f"fit iterate left the admissible region: c={cv}")
            profiles[cv] = solve_profile(WaveParams(k, cv), L=L, h=h)
        w, _ = profiles[cv].eval_w(xi - gv)
        return k + w

    def resid(cv, gv):
        return weight * (u - model(cv, gv))

    cs, gs = c, 0.0
    r = resid(cs, gs)
    rn = l2_norm(r, h)
    history = [(cs, gs, rn)]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        b = np.array([np.trapezoid(j_c * r, dx=h), np.trapezoid(j_g * r, dx=h)])
        try:
            step = np.linalg.solve(M, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular normal equations in the modulation fit") from exc
        if abs(step[0]) <= 1e-9 * max(1.0, abs(cs)) and abs(step[1]) <= 1e-9:
            converged = True
            break
        lam = 1.0
        improved = False
        for _ in range(9):
            cn, gn = cs + lam * step[0], gs + lam * step[1]
            rc = resid(cn, gn)
            rcn = l2_norm(rc, h)
            if rcn < rn * (1.0 - 1e-12):
                cs, gs, r, rn = cn, gn, rc, rcn
                improved = True
                break
            lam *= 0.5
        history.append((cs, gs, rn))
        if not improved:
            # the parameters sit at the residual floor: the full step no
            # longer reduces the misfit, which for a descent method is the
            # stopping state once the step has also become small
            converged = abs(step[0]) <= 1e-6 and abs(step[1]) <= 1e-6
            break
    if rn >= 0.1:
        raise ParameterError(
            f"weighted misfit {rn:.3e} after fitting: the state is outside "
            "the trust region of the solitary family (residual < 0.1)"
        )
    return ModulationFit(
        c_star=float(cs), gamma_star=float(gs), residual=float(rn),
        converged=converged, n_iter=it, history=tuple(history),
    )


def write_trajectory_csv(traj: EvolutionState, path) -> None:
    """CSV with columns t,norm_w,ip_eta1,ip_eta2[,E,Q,H][,c_fit,gamma_fit]."""
    cols = [traj.t, traj.norm_w]
    names = ["t", "norm_w", "ip_eta1", "ip_eta2"]
    nan = np.full_like(traj.t, np.nan)
    cols.append(traj.ip_eta1 if traj.ip_eta1 is not None else nan)
    cols.append(traj.ip_eta2 if traj.ip_eta2 is not None else nan)
    for name in ("E", "Q", "H", "c_fit", "gamma_fit"):
        if name in traj.extra:
            cols.append(np.asarray(traj.extra[name]))
            names.append(name)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",")


def write_run_json(traj: EvolutionState, path) -> None:
    with open(path, "w") as fh:
        json.dump(traj.config, fh, indent=2)
        fh.write("\n")
