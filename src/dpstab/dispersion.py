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

`check_shifted_roots` is the package's one rule for a lambda right of the
weighted essential spectrum; callers pass s = char_roots(lambda) + alpha.
"""
from __future__ import annotations

import numpy as np

from .wave import ParameterError, WaveParams, _no_overflow, derived_constants

__all__ = [
    "char_poly",
    "char_coeffs",
    "char_roots",
    "lambda_of_r",
    "re_lambda",
    "im_lambda",
    "ess_spectrum_curve",
    "spectral_gap",
    "check_shifted_roots",
]

# smallest real-part gap between the decaying and the center shifted root
_SEP_TOL = 1e-8


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
def ess_spectrum_curve(params: WaveParams, alpha: float, sigma) -> np.ndarray:
    """The weighted essential-spectrum curve lambda(i sigma - alpha) at sigma.

    A non-finite frequency, or one too large for the curve's arithmetic
    (|sigma| beyond about 1e77, where (1 + sigma^2)^2 overflows), raises
    `ParameterError`.
    """
    _check_alpha(alpha)
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma)):
        raise ParameterError("frequencies sigma must be finite")
    return re_lambda(sigma, alpha, params) + 1j * im_lambda(sigma, alpha, params)


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


def check_shifted_roots(lam: complex, alpha: float, s: np.ndarray) -> None:
    """Raise `ParameterError` unless lambda lies right of the weighted essential
    spectrum: the sorted shifted roots s = char_roots + alpha need Re s1 < 0,
    Re s2 >= -1e-8 (a root on the axis is allowed), Re s2 - Re s1 >= 1e-8 and
    Re s3 > 0."""
    if s[1].real - s[0].real < _SEP_TOL:
        raise ParameterError(
            f"near-essential-spectrum: decaying and center roots at lambda={lam} "
            f"(alpha={alpha}) separate by {s[1].real - s[0].real:.2e} < {_SEP_TOL}"
        )
    if not (s[0].real < 0.0 <= s[1].real + _SEP_TOL and s[2].real > 0.0):
        raise ParameterError(
            f"lambda={lam} is not right of the weighted essential spectrum for "
            f"alpha={alpha}: shifted root real parts {np.round(s.real, 6)}"
        )
