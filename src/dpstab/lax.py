"""Lax and adjoint-Lax spatial systems about the wave, their root algebra,
and the squared-eigenfunction map onto the linearized problem.

In the co-moving frame the Lax spatial equation is f''' = f' + sigma mu f
with mu = u0 - u0'' the momentum density, and the temporal relation
r f = (1/sigma) f'' + (c - u0) f' + u0' f.  The adjoint system flips the
sign of sigma mu and of the (1/sigma) f'' term; since mu is even, adjoint
solutions are reflections of forward ones.  Asymptotically f ~ e^{l xi}
with l^3 - l - k sigma = 0 (adjoint: + k sigma) and temporal rate
r = l (l/sigma + c - k).

A forward solution of rate r1 and an adjoint one of rate r2' combine into
v = (phi psi - phi' psi')', which solves the linearized equation with
spectral parameter lambda = r1 + r2'.  Writing M = l1 - l2, P = l1 + l2
for the underlying forward exponent pair, M satisfies the same cubic as
the spatial dispersion symbol, 3P^2 = 4 - M^2, and sigma is recovered as
sigma = M P / (lambda + M (k - c)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .dispersion import char_coeffs, char_roots
from .wave import (ParameterError, Profile, SolverError, WaveParams, _no_overflow,
                   half_step_samples)

__all__ = [
    "MCubicBranch",
    "LaxRootData",
    "LaxSolution",
    "SquaredEigenfunction",
    "discriminant",
    "m_cubic",
    "l_roots",
    "lax_solve",
    "squared_eigenfunction",
    "completeness_scan",
]

_SEP_TOL = 1e-8
_DEG_TOL = 1e-10


@dataclass(frozen=True)
class MCubicBranch:
    """One root M of the M-cubic with its (P, l1, l2, sigma, r1, r2) data.

    Degenerate branches (M in {0, +-2}, or sigma undefined) carry nan data.
    """

    M: complex
    P: complex
    l1: complex
    l2: complex
    sigma: complex
    r1: complex
    r2: complex
    degenerate: bool
    checks: dict


@dataclass(frozen=True)
class LaxRootData:
    lam: complex
    params: WaveParams
    discriminant: complex
    branches: tuple[MCubicBranch, ...]


@dataclass(frozen=True)
class LaxSolution:
    """Renormalized Lax (or adjoint-Lax) solution on the profile node grid.

    f, fp, fpp are the true (f, f', f'') times e^{-l (xi - launch)}; the
    stored arrays are ascending in xi regardless of march direction.
    """

    sigma: complex
    l: complex
    direction: str
    adjoint: bool
    rate: complex
    launch: float
    xi: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    profile: Profile


@dataclass(frozen=True)
class SquaredEigenfunction:
    """v = (phi psi - phi' psi')' and derivatives, renormalized by
    e^{-kappa xi} with kappa = l_phi + l_psi (launch constants absorbed)."""

    lambda_out: complex
    kappa: complex
    xi: np.ndarray
    v: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    residual_interior: float
    endpoint_error: float


@_no_overflow
def discriminant(lam: complex, params: WaveParams) -> complex:
    """Discriminant of the M-cubic, as the quartic in lambda.  A lambda too
    large for the quartic's arithmetic raises `ParameterError`."""
    k, c = params.k, params.c
    disc = (4.0 * lam ** 4 + (61.0 * k * k - 8.0 * c * c - 44.0 * c * k) * lam ** 2
            + 4.0 * (c - k) * (c - 4.0 * k) ** 3)
    # Python's complex product overflows to inf silently
    if not np.isfinite(disc):
        raise FloatingPointError(f"overflow in the quartic at lambda={lam}")
    return disc


def _sigma_convention(M: complex, P: complex, denom: complex) -> tuple[complex, complex]:
    """Fix the sign of P = +-sqrt((4-M^2)/3) so Re sigma > 0 (Im >= 0 on ties)."""
    sig = M * P / denom
    if sig.real < 0.0 or (sig.real == 0.0 and sig.imag < 0.0):
        return -P, -sig
    return P, sig


@_no_overflow
def m_cubic(lam: complex, params: WaveParams) -> LaxRootData:
    """All three M-branches at one lambda; degenerate branches flagged.  A
    lambda too large for the cubic's arithmetic raises `ParameterError`."""
    lam = complex(lam)
    k, c = params.k, params.c
    roots = char_roots(lam, params)
    disc = discriminant(lam, params)
    scale = max(abs(lam), 1.0)
    branches = []
    for M in roots:
        denom = lam + M * (k - c)
        P2 = (4.0 - M * M) / 3.0
        degenerate = (abs(M) < _DEG_TOL or abs(P2) < _DEG_TOL
                      or abs(denom) < _DEG_TOL * scale)
        if degenerate:
            nanc = complex(np.nan, np.nan)
            branches.append(MCubicBranch(M=M, P=nanc, l1=nanc, l2=nanc, sigma=nanc,
                                         r1=nanc, r2=nanc, degenerate=True,
                                         checks={"cubic_residual": _rel_poly(lam, M, params)}))
            continue
        P = np.sqrt(P2)
        P, sig = _sigma_convention(M, complex(P), denom)
        l1 = 0.5 * (P + M)
        l2 = 0.5 * (P - M)
        r1 = l1 * (l1 / sig + c - k)
        r2 = l2 * (l2 / sig + c - k)
        lam_rec = (l1 - l2) * ((l1 + l2) / sig + c - k)
        checks = {
            "cubic_residual": _rel_poly(lam, M, params),
            "l1_residual": abs(l1 ** 3 - l1 - k * sig),
            "l2_residual": abs(l2 ** 3 - l2 - k * sig),
            "lambda_roundtrip": abs(lam_rec - lam) / scale,
        }
        branches.append(MCubicBranch(M=M, P=P, l1=l1, l2=l2, sigma=sig,
                                     r1=r1, r2=r2, degenerate=False, checks=checks))
    return LaxRootData(lam=lam, params=params, discriminant=disc,
                       branches=tuple(branches))


def _rel_poly(lam: complex, M: complex, params: WaveParams) -> float:
    c0, c1, c2, c3 = char_coeffs(lam, params)
    val = ((c0 * M + c1) * M + c2) * M + c3
    scale = max(abs(c0 * M ** 3), abs(c1 * M * M), abs(c2 * M), abs(c3), 1e-300)
    return abs(val) / scale


def l_roots(ksigma: complex, adjoint: bool = False) -> np.ndarray:
    """Roots of l^3 - l = k sigma (adjoint: = -k sigma), sorted by real part."""
    if not np.isfinite(ksigma):
        raise ParameterError(f"k sigma must be finite, got {ksigma}")
    rhs = -ksigma if adjoint else ksigma
    r = np.roots([1.0, 0.0, -1.0, -rhs])
    return r[np.lexsort((r.imag, r.real))]


def lax_solve(sigma: complex, profile: Profile, l_target: complex,
              direction: str = "+", adjoint: bool = False,
              nsub: int = 2) -> LaxSolution:
    """Shoot the (adjoint-)Lax spatial system from one end of the domain.

    The launch exponent must be the extreme-real-part root of the asymptotic
    cubic for the chosen end: smallest for a launch at +L, largest at -L.
    Any other root is a non-dominant mode the march cannot isolate.
    """
    sigma = complex(sigma)
    if sigma == 0:
        raise ParameterError("sigma must be nonzero")
    if direction not in ("+", "-"):
        raise ParameterError(f"direction must be '+' or '-', got {direction!r}")
    params = profile.params
    k, c = params.k, params.c
    roots = l_roots(k * sigma, adjoint)
    l_target = complex(l_target)
    sgn = -1.0 if adjoint else 1.0
    if abs(l_target ** 3 - l_target - sgn * k * sigma) > 1e-8 * max(1.0, abs(k * sigma)):
        raise ParameterError(f"l_target={l_target} is not a root of the asymptotic cubic")
    required = roots[0] if direction == "+" else roots[2]
    middle = roots[1]
    if abs(l_target - required) > 1e-8:
        raise ParameterError(
            f"launch from {direction}L needs the extreme root {required}, got {l_target}"
        )
    if abs(required.real - middle.real) < _SEP_TOL:
        raise ParameterError(
            f"asymptotic roots nearly coincide in real part at sigma={sigma}: "
            f"dominant march direction is ambiguous"
        )
    arrays = half_step_samples(profile, nsub)
    mu = arrays["mu"]
    p0 = (sgn * sigma) * mu
    zeros = np.zeros_like(mu)
    traj = _backend.shoot_traj(p0, np.ones_like(mu), zeros, zeros,
                               0.0 + 0.0j, 0.0, required, np.array([1.0, required, required ** 2]),
                               arrays["hs"], -1.0 if direction == "+" else 1.0, False)
    if not np.all(np.isfinite(traj[-1])):
        raise SolverError(f"Lax march overflowed at sigma={sigma}, l={l_target}")
    traj = traj[::nsub]
    if direction == "+":
        traj = traj[::-1]
    if adjoint:
        rate = -l_target ** 2 / sigma + (c - k) * l_target
    else:
        rate = l_target * (l_target / sigma + c - k)
    launch = profile.L if direction == "+" else -profile.L
    return LaxSolution(sigma=sigma, l=l_target, direction=direction, adjoint=adjoint,
                       rate=rate, launch=launch, xi=profile.xi,
                       f=np.ascontiguousarray(traj[:, 0]),
                       fp=np.ascontiguousarray(traj[:, 1]),
                       fpp=np.ascontiguousarray(traj[:, 2]), profile=profile)


def squared_eigenfunction(phi: LaxSolution, psi: LaxSolution) -> SquaredEigenfunction:
    """Combine a forward and an adjoint Lax solution into a solution v of the
    linearized equation, with a renormalized interior residual certificate.

    All algebra runs on the renormalized arrays; every term of v^{(n)} and of
    the linearized equation carries the common factor e^{kappa xi}, so the
    reported residual is a genuine relative backward error even when the true
    v grows exponentially toward one end.
    """
    if phi.adjoint or not psi.adjoint:
        raise ParameterError("need phi from the forward system and psi from the adjoint")
    if phi.sigma != psi.sigma:
        raise ParameterError(f"sigma mismatch: {phi.sigma} vs {psi.sigma}")
    if phi.profile is not psi.profile and (
            len(phi.xi) != len(psi.xi) or not np.array_equal(phi.xi, psi.xi)):
        raise ParameterError("phi and psi live on different grids")
    prof = phi.profile
    sig = phi.sigma
    mu = prof.mu
    mup = prof.u0_p - prof.u0_ppp
    mupp = prof.u0_pp - prof.u0_pppp

    def ladder(sol, s):
        F = [sol.f, sol.fp, sol.fpp]
        F.append(F[1] + s * mu * F[0])
        F.append(F[2] + s * (mup * F[0] + mu * F[1]))
        F.append(F[3] + s * (mupp * F[0] + 2.0 * mup * F[1] + mu * F[2]))
        return F

    F = ladder(phi, sig)
    G = ladder(psi, -sig)

    def w_deriv(n):
        out = np.zeros_like(F[0])
        for j in range(n + 1):
            b = math.comb(n, j)
            out += b * (F[j] * G[n - j] - F[j + 1] * G[n - j + 1])
        return out

    v0, v1, v2, v3 = (w_deriv(n) for n in (1, 2, 3, 4))
    lam = phi.rate + psi.rate
    kappa = phi.l + psi.l

    u0p, u0pp, u0ppp = prof.u0_p, prof.u0_pp, prof.u0_ppp
    cmu = prof.params.c - prof.u0
    g1 = cmu * v1 - u0p * v0
    g3 = cmu * v3 - 3.0 * u0p * v2 - 3.0 * u0pp * v1 - u0ppp * v0
    c = prof.params.c
    R = 4.0 * g1 - g3 - 3.0 * c * v1 - lam * (v0 - v2)
    den = (4.0 * np.abs(g1) + np.abs(g3) + 3.0 * c * np.abs(v1)
           + abs(lam) * (np.abs(v0) + np.abs(v2)))
    mask = np.abs(prof.xi) <= 0.8 * prof.L
    scale = float(np.max(den[mask]))
    residual = float(np.max(np.abs(R[mask])) / scale) if scale > 0.0 else 0.0

    # at a shared launch end both renormalized trios are exact, so v there
    # equals (l_phi + l_psi)(1 - l_phi l_psi) exactly
    endpoint = np.nan
    if phi.launch == psi.launch:
        idx = -1 if phi.launch > 0 else 0
        expected = kappa * (1.0 - phi.l * psi.l)
        if abs(expected) > 1e-12:
            endpoint = abs(v0[idx] - expected) / abs(expected)
    return SquaredEigenfunction(lambda_out=lam, kappa=kappa, xi=prof.xi, v=v0,
                                v1=v1, v2=v2, v3=v3, residual_interior=residual,
                                endpoint_error=float(endpoint))


def completeness_scan(t_samples, params: WaveParams) -> dict:
    """Check, for lambda = i t over the samples, that all three M-branches
    are distinct, non-degenerate (M not in {0, +-2}), have positive real
    discriminant, and carry finite sigma.  Violations are reported."""
    entries = []
    failures = []
    for t in np.asarray(t_samples, dtype=float):
        lam = 1j * t
        if t == 0.0:
            failures.append({"t": 0.0, "reason": "lambda = 0 is degenerate (M in {0, +-2})"})
            continue
        data = m_cubic(lam, params)
        M = np.array([b.M for b in data.branches])
        dist = min(abs(M[0] - M[1]), abs(M[0] - M[2]), abs(M[1] - M[2]))
        disc = data.discriminant
        ok = (dist > 1e-8
              and all(abs(b.M) > 1e-8 and abs(b.M - 2) > 1e-8 and abs(b.M + 2) > 1e-8
                      for b in data.branches)
              and abs(disc.imag) <= 1e-10 * max(1.0, abs(disc))
              and disc.real > 0
              and not any(b.degenerate for b in data.branches)
              and all(np.isfinite([b.sigma for b in data.branches])))
        entry = {"t": float(t), "pass": bool(ok), "min_root_distance": float(dist),
                 "discriminant": [disc.real, disc.imag]}
        entries.append(entry)
        if not ok:
            failures.append(entry)
    return {"n": len(entries), "all_pass": not failures, "failures": failures,
            "entries": entries}
