"""Essential spectrum of the linearization in exponentially weighted spaces.

Linearizing about the flat state u = k in the frame moving at speed c and
substituting v ~ e^{r xi + lambda t} gives the characteristic polynomial

    P(lambda, r) = (lambda + r (k - c)) (1 - r^2) + 3 k r
                 = (c - k) r^3 - lambda r^2 + (4k - c) r + lambda.

In the space weighted by e^{alpha xi} the essential spectrum is the curve
lambda(i sigma - alpha), sigma real, with

    lambda(r) = r (c - k (4 - r^2)/(1 - r^2)).

For 0 < alpha < alpha_crit = sqrt((c-4k)/(c-k)) the curve lies in
Re lambda <= -Delta with gap Delta = alpha (c - k - 3k/(1 - alpha^2));
for alpha > 1 the gap is alpha (c - k); weights in [alpha_crit, 1] give a
marginal or unstable band, and alpha = +-1 is singular (1 - r^2 vanishes
at sigma = 0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wave import ParameterError, WaveParams, _no_overflow, derived_constants

__all__ = [
    "SpectralCurve",
    "RootTriple",
    "char_poly",
    "char_coeffs",
    "char_roots",
    "lambda_of_r",
    "re_lambda",
    "im_lambda",
    "ess_spectrum_curve",
    "spectral_gap",
    "classify_roots",
    "default_sigma_grid",
    "sign_convention_report",
]

# the center band of classify_roots, and default_sigma_grid's size, reach and map
_ROOT_TOL = 1e-9
_SIGMA_POINTS, _SIGMA_SPAN, _SIGMA_Q = 2001, 50.0, 0.999


@dataclass(frozen=True)
class SpectralCurve:
    """Weighted essential-spectrum curve sampled on a frequency grid."""

    sigma: np.ndarray
    lam: np.ndarray
    alpha: float
    params: WaveParams

    def max_real(self) -> float:
        return float(self.lam.real.max())


@dataclass(frozen=True)
class RootTriple:
    """Spatial roots of P(lambda, . - alpha), sorted by real part.

    n_left/n_center/n_right count roots with real part below -1e-9, within
    1e-9 of 0, and above 1e-9.  In the resolvent set right of the weighted
    essential spectrum the split is 1/0/2.
    """

    roots: tuple[complex, complex, complex]
    n_left: int
    n_center: int
    n_right: int
    alpha: float


def char_poly(lam, r, params: WaveParams):
    """P(lambda, r) = (lambda + r(k - c))(1 - r^2) + 3 k r."""
    k, c = params.k, params.c
    return (lam + r * (k - c)) * (1.0 - r * r) + 3.0 * k * r


def char_coeffs(lam: complex, params: WaveParams) -> np.ndarray:
    """Coefficients of r -> P(lambda, r), descending powers."""
    k, c = params.k, params.c
    return np.array([c - k, -lam, 4.0 * k - c, lam], dtype=complex)


def char_roots(lam: complex, params: WaveParams) -> np.ndarray:
    """The three spatial roots, deterministically ordered by (Re, Im)."""
    if not np.isfinite(lam):
        raise ParameterError(f"lambda must be finite, got {lam}")
    rts = np.roots(char_coeffs(lam, params))
    return rts[np.lexsort((rts.imag, rts.real))]


def lambda_of_r(r, params: WaveParams):
    """Spectral curve parametrization lambda(r) = r(c - k(4 - r^2)/(1 - r^2))."""
    k, c = params.k, params.c
    r2 = r * r
    return r * (c - k * (4.0 - r2) / (1.0 - r2))


def re_lambda(sigma, alpha: float, params: WaveParams):
    """Real part of lambda(i sigma - alpha) in explicit form."""
    k, c = params.k, params.c
    s2, a2 = sigma * sigma, alpha * alpha
    den = (1.0 + s2 - a2) ** 2 + 4.0 * s2 * a2
    return -alpha * (c - k + 3.0 * k * (a2 + s2 - 1.0) / den)


def im_lambda(sigma, alpha: float, params: WaveParams):
    """Imaginary part of lambda(i sigma - alpha) in explicit form."""
    k, c = params.k, params.c
    s2, a2 = sigma * sigma, alpha * alpha
    den = (1.0 + s2 - a2) ** 2 + 4.0 * s2 * a2
    return sigma * (c - k - 3.0 * k * (a2 + s2 + 1.0) / den)


def default_sigma_grid() -> np.ndarray:
    """Frequency grid of 2001 points clustered near sigma = 0, reaching +-50.

    Image of a uniform grid under x -> atanh(0.999 x); the odd size keeps
    sigma = 0 an exact node.
    """
    x = np.linspace(0.0, 1.0, (_SIGMA_POINTS + 1) // 2)
    pos = _SIGMA_SPAN * np.arctanh(_SIGMA_Q * x) / np.arctanh(_SIGMA_Q)
    return np.concatenate([-pos[:0:-1], pos])


def _check_alpha(alpha: float) -> None:
    """Every weight must be finite with |alpha| != 1; callers add their own range."""
    if not np.isfinite(alpha):
        raise ParameterError(f"weight alpha must be finite, got {alpha}")
    if abs(abs(alpha) - 1.0) < 1e-12:
        raise ParameterError(
            "weight alpha = +-1 is singular: the symbol 1 - (i sigma - alpha)^2 "
            "vanishes at sigma = 0"
        )


@_no_overflow
def ess_spectrum_curve(params: WaveParams, alpha: float,
                       sigma: np.ndarray | None = None) -> SpectralCurve:
    """Sample the weighted essential-spectrum curve lambda(i sigma - alpha).

    Frequencies too large for the curve's arithmetic (|sigma| beyond about
    1e77, where (1 + sigma^2)^2 overflows) raise `ParameterError`.
    """
    _check_alpha(alpha)
    if sigma is None:
        sigma = default_sigma_grid()
    sigma = np.asarray(sigma, dtype=float)
    lam = re_lambda(sigma, alpha, params) + 1j * im_lambda(sigma, alpha, params)
    return SpectralCurve(sigma=sigma, lam=lam, alpha=float(alpha), params=params)


def spectral_gap(params: WaveParams, alpha: float) -> float:
    """Distance from the weighted essential spectrum to the imaginary axis.

    Defined for 0 < alpha < alpha_crit (gap alpha(c - k - 3k/(1 - alpha^2)))
    and for alpha > 1 (gap alpha(c - k)).  Weights in [alpha_crit, 1] are
    rejected: the curve touches or crosses the imaginary axis.
    """
    k, c = params.k, params.c
    _check_alpha(alpha)
    ac = derived_constants(params).alpha_crit
    if alpha <= 0.0:
        raise ParameterError(f"need a positive weight, got alpha={alpha}")
    if alpha < ac:
        return alpha * (c - k - 3.0 * k / (1.0 - alpha * alpha))
    if alpha > 1.0:
        return alpha * (c - k)
    raise ParameterError(
        f"weight alpha={alpha} lies in the marginal band [{ac:.6f}, 1]: no spectral gap"
    )


def classify_roots(lam: complex, alpha: float, params: WaveParams) -> RootTriple:
    """Shifted spatial roots s_j = r_j + alpha and their real-part split."""
    s = char_roots(lam, params) + alpha
    re = s.real
    return RootTriple(
        roots=tuple(s),
        n_left=int(np.sum(re < -_ROOT_TOL)),
        n_center=int(np.sum(np.abs(re) <= _ROOT_TOL)),
        n_right=int(np.sum(re > _ROOT_TOL)),
        alpha=float(alpha),
    )


def sign_convention_report(params: WaveParams | None = None) -> dict:
    """Cross-check the +3kr sign of the characteristic polynomial.

    The curve lambda(i sigma - alpha) must be a zero set of P for every
    weight, and the tail rates +-r_decay must be roots at lambda = 0.  The
    -3kr variant fails both.  Returns the residuals.
    """
    if params is None:
        params = WaveParams(0.1, 1.0)
    k, c = params.k, params.c
    r_dec = derived_constants(params).r_decay
    sig = np.linspace(-5.0, 5.0, 41)

    def minus_poly(lam, r):
        return (lam + r * (k - c)) * (1.0 - r * r) - 3.0 * k * r

    res_plus = 0.0
    res_minus = np.inf
    for alpha in (0.0, 0.4, 1.5):
        r = 1j * sig - alpha
        lam = lambda_of_r(r, params)
        res_plus = max(res_plus, float(np.abs(char_poly(lam, r, params)).max()))
        res_minus = min(res_minus, float(np.abs(minus_poly(lam, r)).max()))
    decay_res = max(abs(char_poly(0.0, r_dec, params)),
                    abs(char_poly(0.0, -r_dec, params)))
    return {
        "family": "+3kr",
        "curve_residual": res_plus,
        "decay_root_residual": float(decay_res),
        "rejected_family_residual": res_minus,
        "consistent": bool(res_plus < 1e-10 and decay_res < 1e-12 and res_minus > 1e-3),
    }
