"""Solitary-wave profiles of the Degasperis-Procesi equation on a constant background.

A right-moving solitary wave u(x, t) = u0(x - c t) with u0 -> k at infinity
satisfies, after two integrations of the traveling-wave equation,

    (c - u0)^3 (u0 - u0'') = a,         a = k (c - k)^3,
    (u0')^2  = E + u0^2 - a/(c - u0)^2, E = k c - 2 k^2.

Smooth solitary waves exist exactly for c > 0 and 0 < k < c/4.  The crest
height is u_max = c - k - sqrt(c k), and the tails decay like
exp(-r_decay |xi|) with r_decay = sqrt((c - 4k)/(c - k)).

The orbit is known in closed form (Vakhnenko & Parkes, Chaos Solitons
Fractals, 2004; Lenells, J. Math. Anal. Appl., 2005).  With w = u0 - k,
A = c - 2k, B = sqrt(c k), theta* = arccosh(A/B), rho = sqrt((A + B)/(A - B)),
the right half of the wave is, for theta in [0, theta*),

    w = A - B cosh(theta),   xi = (2/r_decay) artanh(rho tanh(theta/2)) - theta,

with slope |w'| = w B sinh(theta)/(c - k - w).  Any xi is inverted by
Newton's method in log(theta* - theta), through tail forms that keep full
relative accuracy as w -> 0, and at |xi|, so evenness holds bit for bit.
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import wraps
from typing import NamedTuple

import numpy as np

__all__ = [
    "ParameterError",
    "SolverError",
    "WaveParams",
    "DerivedConstants",
    "derived_constants",
    "solve_profile",
    "grid_steps",
    "check_samples",
    "dc_profile",
    "half_step_samples",
    "profile_w",
    "Profile",
    "ProfileEval",
]


class ParameterError(ValueError):
    """Parameters outside the admissible region, or an invalid configuration."""


class SolverError(RuntimeError):
    """A numerical routine failed its accuracy or termination contract."""


class _Overflow(ParameterError):
    """The error of a `_no_overflow` guard, which an enclosing guard renames."""


def _no_overflow(fn):
    """fn with a floating overflow inside it (finite inputs too large for its
    arithmetic; code that sets no flag raises `FloatingPointError`) raised as
    `ParameterError`, named after the outermost of nested guards."""
    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError, _Overflow) as exc:
            raise _Overflow(f"{fn.__name__} overflows: its input is too large") from exc

    return checked


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

    The arrays are `eval(xi)`, so they are exactly even (u0, u0'', mu) or
    odd (u0', u0''').  Its one cache, `_half_steps`, belongs to
    `half_step_samples`; it is not a constructor argument, so a profile made
    by `dataclasses.replace` starts it empty.
    """

    params: WaveParams
    L: float
    h: float
    xi: np.ndarray
    u0: np.ndarray
    u0_p: np.ndarray
    u0_pp: np.ndarray
    u0_ppp: np.ndarray
    u0_pppp: np.ndarray
    mu: np.ndarray
    _half_steps: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def consts(self) -> DerivedConstants:
        return derived_constants(self.params)

    @property
    def i0(self) -> int:
        """Index of xi = 0."""
        return (len(self.xi) - 1) // 2

    def eval(self, x) -> ProfileEval:
        return _fields_from_w(self.params, *profile_w(self.params, x))


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


# Newton steps a point until its residual xi - |x|, and so its next update,
# is at the rounding floor: _NEWTON_FLOOR (4 units) times xi's terms,
# 1/r + theta* + |x|.  Converged residuals are at most 2.2 units for k/c
# from 1e-12 to 0.2, so a point stops after 3 updates at k/c = 0.1, 4 at
# 0.2, 6 at 1e-3 and 8 at 1e-6; _NEWTON_STEPS caps the few points whose
# rounding noise exceeds the floor (up to 5.4 units as k -> c/4).
# phi >= _PHI_MIN keeps w clear of underflow
_NEWTON_STEPS = 10
_NEWTON_FLOOR = 4.0 * np.finfo(float).eps
_PHI_MIN = 1e-280


def _orbit_consts(k, c):
    """B = sqrt(c k), D = sqrt(A^2 - B^2), theta* and rho = 1/tanh(theta*/2), the
    form of sqrt((A + B)/(A - B)) that keeps xi = 0 exact at the crest as k -> c/4."""
    A, B = c - 2.0 * k, np.sqrt(c * k)
    D = np.sqrt((c - k) * (c - 4.0 * k))
    ts = np.log((A + D) / B)
    return B, D, ts, 1.0 / np.tanh(0.5 * ts)


def _orbit(k, c, phi):
    """w and xi at phi = theta* - theta; analytic in c, so a complex step in c is exact."""
    B, D, ts, rho = _orbit_consts(k, c)
    th = ts - phi
    w = 2.0 * B * np.sinh(ts - 0.5 * phi) * np.sinh(0.5 * phi)
    gap = rho * np.sinh(0.5 * phi) / (np.cosh(0.5 * ts) * np.cosh(0.5 * th))
    xi = (c - k) / D * (np.log1p(rho * np.tanh(0.5 * th)) - np.log(gap)) - th
    return w, xi


def _invert(params: WaveParams, ax: np.ndarray) -> tuple:
    """phi, w and |w'| on the orbit at xi = ax >= 0, by Newton's method in
    log(phi); each point stops on its own residual, so no value depends on
    its batch."""
    k, c = params.k, params.c
    B, D, ts, rho = _orbit_consts(k, c)
    r = D / (c - k)
    # tail asymptote xi ~ (log(4 cosh^2(theta*/2) / (rho phi)) - r theta*) / r
    lead = np.log(4.0 * np.cosh(0.5 * ts) ** 2 / rho) - r * ts
    x_max = (lead - np.log(_PHI_MIN)) / r
    if not np.all(ax <= x_max):
        raise ParameterError(f"|xi| = {np.max(ax):.6g} is beyond {x_max:.6g}, where "
                             "the tail w ~ exp(-r_decay |xi|) underflows")
    # start from the larger of the tail asymptote and the crest tangent
    # theta = ax/xi'(0), a lower bound of phi as xi(theta) is convex
    tangent = np.maximum(ts - ax * (c - 2.0 * k - B) / (k + B), _PHI_MIN)
    psi_max = np.log(ts)                 # the crest, theta = 0
    psi = np.clip(np.log(tangent), lead - r * ax, psi_max)
    phi = np.exp(psi)
    w, xi = _orbit(k, c, phi)
    floor = _NEWTON_FLOOR * (1.0 / r + ts + ax)
    live = np.flatnonzero(np.abs(xi - ax) > floor)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        x, wl = ax[live], w[live]
        # dxi/dpsi = -phi ((c - k)/w - 1)
        step = psi[live] + (xi[live] - x) * wl / (phi[live] * (c - k - wl))
        psi[live] = step = np.minimum(step, psi_max)
        phi[live] = p = np.exp(step)
        wl, xl = _orbit(k, c, p)
        w[live], xi[live] = wl, xl
        live = live[np.abs(xl - x) > floor[live]]
    if not np.all(r * np.abs(xi - ax) <= 1e-12 * (1.0 + r * ax)):
        raise SolverError(f"profile inversion did not converge at k={k}, c={c}")
    th = ts - phi                        # c - k - w = k + B cosh(theta)
    return phi, w, w * B * np.sinh(th) / (k + B * np.cosh(th))


def profile_w(params: WaveParams, x) -> tuple[np.ndarray, np.ndarray]:
    """w = u0 - k and w' at arbitrary positions."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _, w, slope = _invert(params, np.abs(x))
    return w, np.sign(-x) * slope


# the most samples one grid, contour or frequency list may hold: far above
# the package's largest (128 001 half-step samples at nsub 16 on the default
# grid), so a count past it is a typo whose arrays would exhaust memory
_MAX_SAMPLES = 10_000_000


def check_samples(count, what: str) -> None:
    """Raise `ParameterError` if `what` needs more than 10 000 000 points;
    called before the samples are allocated."""
    if not count <= _MAX_SAMPLES:
        raise ParameterError(
            f"{what} needs {count:.4g} points, more than the {_MAX_SAMPLES} allowed")


def grid_steps(L: float, h: float) -> int:
    """n = L/h, the steps of h on each side of the grid on [-L, L]: L and h
    finite and positive, L an integer multiple of h with n >= 4, and the
    2n + 1 nodes within `check_samples`."""
    if not (0.0 < L < np.inf and 0.0 < h < np.inf):
        raise ParameterError(f"L and h must be positive and finite, got L={L}, h={h}")
    check_samples(2.0 * L / h + 1.0, f"the grid on [-{L}, {L}] at h={h}")
    n = round(L / h)
    if n < 4 or abs(n * h - L) > 1e-9 * max(1.0, L):
        raise ParameterError(f"L={L} must be an integer multiple of h={h}")
    return n


def solve_profile(params: WaveParams, L: float = 40.0, h: float = 0.02) -> Profile:
    """The profile on xi in [-L, L] with grid step h (`grid_steps`)."""
    n = grid_steps(L, h)
    d = derived_constants(params)
    # relative slack: r_decay is computed, and (k, c) = (0.2, 1) at L = 40
    # gives L r = 19.999999999999996 for the exact 20
    if L * d.r_decay < 20.0 * (1.0 - 1e-12):
        warnings.warn(
            f"half-domain L={L} is short for decay rate {d.r_decay:.3f}; "
            "truncated tails exceed ~2e-9",
            stacklevel=2,
        )
    xi = h * np.arange(-n, n + 1)
    f = _fields_from_w(params, *profile_w(params, xi))
    return Profile(params=params, L=float(L), h=float(h), xi=xi, **f._asdict())


def dc_profile(profile: Profile) -> np.ndarray:
    """Speed derivative d/dc u0 at fixed k on the profile grid, computed per call.

    Implicit differentiation of the orbit, d_c w|_xi = d_c w|_phi + |w'| d_c xi|_phi,
    with the partials at fixed phi from one complex step in c: exact to rounding.
    """
    k, c = profile.params.k, profile.params.c
    phi = _invert(profile.params, np.abs(profile.xi))[0]
    step = 1e-20 * c
    w, xi = _orbit(k, c + 1j * step, phi)
    return (w.imag + np.abs(profile.u0_p) * xi.imag) / step


def half_step_samples(profile: Profile, nsub: int) -> dict:
    """Shooting coefficients at half-step resolution, hs = h / nsub, kept on
    the profile per nsub: every winding pass and every pointwise Evans or
    Lax call at that nsub reads the same arrays.

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
    out = profile._half_steps.get(m)
    if out is not None:
        return out
    hs = profile.h / m
    n = round(profile.L / hs)
    check_samples(4 * n + 1, f"nsub={m}")
    c = profile.params.c
    f = profile.eval(profile.L - 0.5 * hs * np.arange(4 * n + 1))
    cmu = c - f.u0
    p0 = (f.u0_ppp - 4.0 * f.u0_p) / cmu
    p1 = (3.0 * f.u0_pp - 4.0 * f.u0 + c) / cmu
    p2 = 3.0 * f.u0_p / cmu
    pinv = 1.0 / cmu
    out = profile._half_steps[m] = {"hs": hs, "n": n, "desc": (p0, p1, p2, pinv),
                                    "asc": (-p0, p1, -p2, pinv), "mu": f.mu}
    return out
