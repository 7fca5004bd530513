"""Solitary-wave profiles of the Degasperis-Procesi equation on a constant background.

A right-moving solitary wave u(x, t) = u0(x - c t) with u0 -> k at infinity
satisfies, after two integrations of the traveling-wave equation,

    (c - u0)^3 (u0 - u0'') = a,         a = k (c - k)^3,
    (u0')^2  = E + u0^2 - a/(c - u0)^2, E = k c - 2 k^2.

Smooth solitary waves exist exactly for c > 0 and 0 < k < c/4.  The crest
height is u_max = c - k - sqrt(c k), and the tails decay like
exp(-r_decay |xi|) with r_decay = sqrt((c - 4k)/(c - k)).

The homoclinic orbit is only marginally representable in double precision:
an energy defect of order 1e-16 near the crest sends a centre-launched
orbit inside the loop and it turns back around |xi| ~ 38.  solve_profile
therefore launches on the unstable manifold of the tail state w = u0 - k = 0,
where roundoff contamination decays, integrates to the turning point
w' = 0, and mirrors the half orbit.  The right-hand side is evaluated in
the cancellation-free form w - k*expm1(-3*log1p(-w/(c-k))).
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "ParameterError",
    "SolverError",
    "WaveParams",
    "DerivedConstants",
    "derived_constants",
    "solve_profile",
    "dc_profile",
    "half_step_samples",
    "Profile",
    "ProfileEval",
    "profile_meta",
]


class ParameterError(ValueError):
    """Parameters outside the admissible region, or an invalid configuration."""


class SolverError(RuntimeError):
    """A numerical routine failed its accuracy or termination contract."""


@dataclass(frozen=True)
class WaveParams:
    """Background height k and wave speed c, restricted to 0 < k < c/4."""

    k: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and np.isfinite(self.c)):
            raise ParameterError(f"parameters must be finite, got k={self.k}, c={self.c}")
        if self.c <= 0:
            raise ParameterError(f"wave speed must be positive, got c={self.c}")
        if not 0.0 < self.k < self.c / 4.0:
            raise ParameterError(
                f"smooth solitary waves require 0 < k < c/4, got k={self.k}, c={self.c}"
            )


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants of the profile at given (k, c).

    a         profile constant k (c - k)^3
    E         quadrature energy k c - 2 k^2
    u_max     crest height c - k - sqrt(c k)
    r_decay   tail decay rate sqrt((c - 4k)/(c - k))
    alpha_crit largest weight with a spectral gap; equals r_decay
    """

    a: float
    E: float
    u_max: float
    r_decay: float
    alpha_crit: float


def derived_constants(params: WaveParams) -> DerivedConstants:
    k, c = params.k, params.c
    a = k * (c - k) ** 3
    E = k * c - 2.0 * k * k
    u_max = c - k - np.sqrt(c * k)
    r = np.sqrt((c - 4.0 * k) / (c - k))
    return DerivedConstants(a=a, E=E, u_max=u_max, r_decay=r, alpha_crit=r)


class ProfileEval(NamedTuple):
    """Profile and derivatives evaluated at arbitrary positions."""

    u0: np.ndarray
    u0_p: np.ndarray
    u0_pp: np.ndarray
    u0_ppp: np.ndarray
    u0_pppp: np.ndarray
    mu: np.ndarray


@dataclass
class Profile:
    """Solitary-wave profile sampled on a symmetric grid xi in [-L, L].

    Arrays are built from the right half and mirrored, so evenness of u0
    (and oddness of u0') holds bit for bit.  dc_u0 is filled by dc_profile at its default step.
    """

    params: WaveParams
    L: float
    h: float
    tol: float
    xi: np.ndarray
    u0: np.ndarray
    u0_p: np.ndarray
    u0_pp: np.ndarray
    u0_ppp: np.ndarray
    u0_pppp: np.ndarray
    mu: np.ndarray
    xistar: float
    dc_u0: np.ndarray | None = None
    _tail: tuple = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def consts(self) -> DerivedConstants:
        return derived_constants(self.params)

    @property
    def i0(self) -> int:
        """Index of xi = 0."""
        return (len(self.xi) - 1) // 2

    def eval_w(self, x) -> tuple[np.ndarray, np.ndarray]:
        """w = u0 - k and w' at arbitrary positions (beyond the launch point
        the pure exponential tail is used)."""
        sol, xistar, delta0, r = self._tail
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        tau = xistar - ax
        w = np.empty_like(ax)
        wp = np.empty_like(ax)
        inside = tau >= 0.0
        if np.any(inside):
            vals = sol(tau[inside])
            w[inside] = vals[0]
            wp[inside] = vals[1]
        if np.any(~inside):
            wt = delta0 * np.exp(r * tau[~inside])
            w[~inside] = wt
            wp[~inside] = r * wt
        return w, -np.sign(x) * wp

    def eval(self, x) -> ProfileEval:
        w, wp = self.eval_w(x)
        return _fields_from_w(self.params, w, wp)


def _fields_from_w(params: WaveParams, w: np.ndarray, wp: np.ndarray) -> ProfileEval:
    """All profile fields from (w, w'), cancellation-free in the tails."""
    k, c = params.k, params.c
    ck = c - k
    g = -3.0 * np.log1p(-w / ck)
    mu = k * np.exp(g)                   # a/(c - u0)^3 > 0
    u0 = k + w
    u0_pp = w - k * np.expm1(g)          # u0 - mu without cancellation
    cmu = c - u0
    fac = 1.0 - 3.0 * mu / cmu
    u0_ppp = wp * fac
    u0_pppp = u0_pp * fac - 12.0 * mu * wp * wp / (cmu * cmu)
    return ProfileEval(u0, wp, u0_pp, u0_ppp, u0_pppp, mu)


def _integrate_half(params: WaveParams, L: float, tol: float):
    """Integrate the tail-launched half orbit up to the crest turning point."""
    k, c = params.k, params.c
    d = derived_constants(params)
    r = d.r_decay
    ck = c - k
    pad = 12.0 / r
    delta0 = (d.u_max - k) * np.exp(-r * (L + pad))
    if delta0 < 1e-280:
        raise ParameterError(f"domain L={L} too long: launch amplitude underflows")

    def rhs(_, y):
        w = y[0]
        return (y[1], w - k * np.expm1(-3.0 * np.log1p(-w / ck)))

    def turning(_, y):
        return y[1]

    turning.terminal = True
    turning.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, L + pad + 40.0 / r),
        (delta0, r * delta0),
        method="DOP853",
        rtol=tol,
        atol=delta0 * 1e-10,
        dense_output=True,
        events=turning,
        max_step=0.25,  # keeps the dense interpolant accurate through the flat tail
    )
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise SolverError("profile integration did not reach the crest turning point")
    xistar = float(sol.t_events[0][0])
    if xistar <= L:
        raise SolverError(
            f"crest reached at xi*={xistar:.3f} inside the requested half-domain L={L}"
        )
    return sol.sol, xistar, delta0, r


def _check_grid(L: float, h: float) -> int:
    if L <= 0 or h <= 0:
        raise ParameterError(f"need L > 0 and h > 0, got L={L}, h={h}")
    n = round(L / h)
    if n < 4 or abs(n * h - L) > 1e-9 * max(1.0, L):
        raise ParameterError(f"L={L} must be an integer multiple of h={h}")
    return n


def solve_profile(params: WaveParams, L: float = 40.0, h: float = 0.02,
                  tol: float = 1e-13) -> Profile:
    """Solve the profile on xi in [-L, L] with grid step h.

    The half orbit is computed once at accuracy ~tol and evaluated through
    the integrator's dense output; evenness of the returned arrays is exact
    by mirroring.
    """
    n = _check_grid(L, h)
    d = derived_constants(params)
    # relative slack: r_decay is computed, and (k, c) = (0.2, 1) at L = 40
    # gives L r = 19.999999999999996 for the exact 20
    if L * d.r_decay < 20.0 * (1.0 - 1e-12):
        warnings.warn(
            f"half-domain L={L} is short for decay rate {d.r_decay:.3f}; "
            "truncated tails exceed ~2e-9",
            stacklevel=2,
        )
    dense, xistar, delta0, r = _integrate_half(params, L, tol)
    xh = h * np.arange(n + 1)
    vals = dense(xistar - xh)
    w_h, wp_h = vals[0], vals[1]
    wp_h = -wp_h  # d/dx at x > 0; orbit parameter runs opposite to x
    wp_h[0] = 0.0  # crest slope, exact by symmetry

    w = np.concatenate([w_h[:0:-1], w_h])
    wp = np.concatenate([-wp_h[:0:-1], wp_h])
    xi = np.concatenate([-xh[:0:-1], xh])
    f = _fields_from_w(params, w, wp)
    return Profile(
        params=params, L=float(L), h=float(h), tol=float(tol), xi=xi,
        u0=f.u0, u0_p=f.u0_p, u0_pp=f.u0_pp, u0_ppp=f.u0_ppp,
        u0_pppp=f.u0_pppp, mu=f.mu, xistar=xistar,
        _tail=(dense, xistar, delta0, r),
    )


def dc_profile(profile: Profile, dc: float | None = None) -> np.ndarray:
    """Derivative of the profile with respect to the wave speed, at fixed k.

    Centered differences at spacings dc and dc/2 combined by one Richardson
    step; profiles at the shifted speeds share the grid and are centered at
    their own crests, so the difference is taken at matched phase.  Only the
    default step dc = 1e-4 c is stored as `profile.dc_u0`, which
    `kernel_basis` reads, so a custom step cannot change later results.
    """
    params = profile.params
    k, c = params.k, params.c
    store = dc is None
    if store:
        dc = 1e-4 * c
    if dc <= 0 or c - dc <= 4.0 * k:
        raise ParameterError(f"speed step dc={dc} leaves the admissible region")

    n = round(profile.L / profile.h)
    xh = profile.h * np.arange(n + 1)

    def half(cv: float) -> np.ndarray:
        dense, xistar, _, _ = _integrate_half(WaveParams(k, cv), profile.L, profile.tol)
        return dense(xistar - xh)[0]

    d1 = (half(c + dc) - half(c - dc)) / (2.0 * dc)
    d2 = (half(c + dc / 2) - half(c - dc / 2)) / dc
    dh = (4.0 * d2 - d1) / 3.0
    out = np.concatenate([dh[:0:-1], dh])
    if store:
        profile.dc_u0 = out
    return out


def half_step_samples(profile: Profile, nsub: int) -> dict:
    """Shooting coefficients at half-step resolution, hs = h / nsub; cached per nsub.

    For the Evans system p0 = (u0''' - 4 u0')/(c - u0),
    p1 = (3 u0'' - 4 u0 + c)/(c - u0), p2 = 3 u0'/(c - u0) and
    pinv = 1/(c - u0); the lambda and alpha parts are assembled inside the
    marching kernel.  The Lax system takes the momentum density mu.

    The profile is evaluated once, on the descending points L - j hs/2,
    j = 0..4n ("desc").  The ascending points are their negatives, and
    `Profile.eval` is exactly even (u0, u0'', mu) or odd (u0', u0''') by
    construction, so the ascending arrays ("asc") are (-p0, p1, -p2, pinv)
    bit for bit and one mu array serves both directions.
    """
    try:
        m = operator.index(nsub)
    except TypeError:
        m = 0
    if m < 1:
        raise ParameterError(f"nsub must be an integer >= 1, got {nsub!r}")
    key = ("half_step", m)
    if key in profile._cache:
        return profile._cache[key]
    hs = profile.h / m
    n = round(profile.L / hs)
    c = profile.params.c
    f = profile.eval(profile.L - 0.5 * hs * np.arange(4 * n + 1))
    cmu = c - f.u0
    p0 = (f.u0_ppp - 4.0 * f.u0_p) / cmu
    p1 = (3.0 * f.u0_pp - 4.0 * f.u0 + c) / cmu
    p2 = 3.0 * f.u0_p / cmu
    pinv = 1.0 / cmu
    out = {"hs": hs, "n": n, "desc": (p0, p1, p2, pinv), "asc": (-p0, p1, -p2, pinv),
           "mu": f.mu}
    profile._cache[key] = out
    return out


def profile_meta(profile: Profile) -> dict:
    """Scalar metadata for JSON sidecars."""
    d = profile.consts
    return {
        "k": profile.params.k,
        "c": profile.params.c,
        "L": profile.L,
        "h": profile.h,
        "tol": profile.tol,
        "a": d.a,
        "E": d.E,
        "u_max": d.u_max,
        "r_decay": d.r_decay,
        "alpha_crit": d.alpha_crit,
        "xistar": profile.xistar,
        "u0_center": float(profile.u0[(len(profile.xi) - 1) // 2]),
    }
