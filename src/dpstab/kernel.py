"""Conserved functionals, Helmholtz inverses, and the rank-2 kernel projection.

The linearized flow about a solitary wave has a two-dimensional generalized
kernel spanned by the translation mode u0' and the speed mode d/dc u0.  This
module builds the weighted right basis z_j = e^{alpha xi} z~_j and the adjoint
left basis eta_j = e^{-alpha xi} eta~_j,

    eta~_2 = theta1 (1 - d^2)(4 - d^2)^{-1} (u0 - k),
    eta~_1 = -theta1 int_{-inf}^{xi} (1 - d^2)(4 - d^2)^{-1} d_c u0
             + theta2 (1 - d^2)(4 - d^2)^{-1} (u0 - k),

with d_c u0 = `dc_profile`, theta1 = (dQ/dc)^{-1} and theta2 = theta1^2 <d_c u0, cum>.
The pairings <z_j, eta_l> = delta_jl are not imposed; they emerge from the
quadrature and the residuals are reported.

The nonlocal inverses (msq - d^2)^{-1} are two causal exponential
convolutions (`causal_exp_conv`, one per direction) against the kernel
e^{-m|xi|}/(2m): each grid panel contributes the integral of its degree-9
interpolant against the exponential, so the sweep is order-10 in the step
and respects decay at the ends (no periodization).  Interior panels share one
weight row on the nodes four below to five above them, so their increments
are one 10-tap correlation; the four panels at each end take their own rows.
The weights integrate the product-form Lagrange basis against the
exponential by 32-point Gauss-Legendre quadrature, to rounding for
|rate h| <= 25, real or complex; the 9 x 10 weights per (rate, h) are the
module's one cache.  The running sum
C_i = e^{-m h} C_{i-1} + inc_i is one BLAS bidiagonal solve (dtbsv/ztbsv,
from `_backend`, which loads scipy's BLAS wrappers without the
`scipy.linalg` package init).  Running integrals are the same sweep at rate
0.  The sweep rejects input that is not a 1-d array of at least
`SWEEP_NODES` (10) finite samples, a rate that is not finite with
Re rate >= 0, and (as `rfft_sigma` does) a grid spacing that is not finite
and positive; `helmholtz_solve` and `evolve.green_apply` refuse input shorter
than the same minimum themselves.

Every periodic Fourier map of the package works on the real-FFT
half-spectrum (`_backend.rfft` and `irfft`): a map of grid functions goes
through `real_spectral_map`, while the RK4 flows of `evolve` transform their
half-spectra themselves.  Every frequency grid comes from `rfft_sigma`.

The package has one grid rule (`close_seam`): a function on a closed grid of
N nodes, such as the profile grid, is the periodic function on its first
N - 1 nodes, and its seam node is a copy of node 0.  `spectral_multiplier`
discards the input's last node, as the evolve flows do.

`causal_exp_conv`, `helmholtz_solve`, `real_spectral_map`,
`spectral_multiplier`, `conserved`, `project` and `evolve.green_apply`
raise `ParameterError` on any floating overflow, which only finite samples
too large for their arithmetic cause.  The sweep and the transforms check
their results too: neither BLAS nor pocketfft sets a floating-point flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._backend import dtbsv, irfft, rfft, ztbsv
from .wave import ParameterError, Profile, SolverError, _no_overflow, dc_profile, profile_w

__all__ = [
    "ConservedValues",
    "KernelBasis",
    "causal_exp_conv",
    "real_spectral_map",
    "rfft_sigma",
    "close_seam",
    "spectral_multiplier",
    "helmholtz_solve",
    "b_apply",
    "conserved",
    "kernel_basis",
    "project",
]


# nodes of a sweep panel's interpolant, and the fewest samples a sweep takes
SWEEP_NODES = 10


def _grid_function(g, name: str) -> np.ndarray:
    """g as an array, refused unless it is 1-d with at least SWEEP_NODES samples."""
    g = np.asarray(g)
    if g.ndim != 1 or g.size < SWEEP_NODES:
        raise ParameterError(
            f"{name} must be a 1-d grid function with at least {SWEEP_NODES} samples")
    return g


def _spacing(h) -> float:
    """The grid spacing as a float; it must be finite and positive."""
    if not 0.0 < h < np.inf:
        raise ParameterError(f"grid spacing must be finite and positive, got h={h}")
    return float(h)


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [0, 1].

    The nodes on [-1, 1] are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence (Golub-Welsch), each polished by Newton steps on
    P_n; the weights 2 / ((1 - x^2) P_n'(x)^2) come from the same
    recurrence, accurate to rounding where the eigenvectors lose digits."""
    j = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    for _ in range(2):
        p0, p1 = np.ones(n), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * dp * dp)


@lru_cache(maxsize=16, typed=True)
def _panel_weights(rate, h: float) -> np.ndarray:
    # row s: panel [i, i+1] integrated against e^{-rate (x_{i+1}-y)}, using
    # the degree-9 interpolant on nodes i-s .. i-s+9; real for a real rate.
    # 32-point Gauss-Legendre integrates the product-form Lagrange basis
    # against the exponential to rounding for |rate h| <= 25, where a
    # Vandermonde solve on 10 nodes would lose about 5 digits
    a = rate * h
    if abs(a) > 25.0:
        raise ParameterError(f"step too coarse for the exponential kernel: rate*h={a}")
    t, wq = _gauss_legendre(32)
    nodes = np.arange(float(SWEEP_NODES))
    off = ~np.eye(SWEEP_NODES, dtype=bool)
    # x - m at the quadrature points of panel s (in node units), for m != j
    x = nodes[:-1, None] + t
    diff = np.where(off, (x[..., None] - nodes)[..., None, :], 1.0)
    basis = diff.prod(axis=-1) / np.where(off, nodes[:, None] - nodes, 1.0).prod(axis=1)
    W = h * (basis.transpose(0, 2, 1) @ (wq * np.exp(-a * (1.0 - t))))
    W.flags.writeable = False
    return W


def _recurrence(x: np.ndarray, q) -> np.ndarray:
    # y_0 = x_0, y_i = q y_{i-1} + x_i, overwriting x: forward substitution on
    # the unit lower-bidiagonal band with -q below the diagonal
    band = np.full((2, x.size), -q, dtype=x.dtype, order="F")
    tbsv = ztbsv if np.iscomplexobj(x) else dtbsv
    return tbsv(1, band, x, lower=1, diag=1, overwrite_x=1)


@_no_overflow
def causal_exp_conv(g, rate, h: float, start=0.0) -> np.ndarray:
    """C(x_i) = start e^{-rate (x_i - x_0)} + int_{x_0}^{x_i} e^{-rate (x_i - y)} g(y) dy.

    Panel [x_i, x_{i+1}] integrates the degree-9 interpolant on nodes i-4 ..
    i+5, shifted inward next to each end, against the exponential (weights by
    Gauss-Legendre quadrature); complex for a complex rate or g."""
    g = _grid_function(g, "g")
    if not np.isfinite(g).all():
        raise ParameterError("samples must be finite")
    if not (np.isfinite(rate) and np.real(rate) >= 0.0):
        raise ParameterError(f"rate must be finite with Re rate >= 0, got {rate}")
    h = _spacing(h)
    W = _panel_weights(rate, h)
    edge = SWEEP_NODES // 2 - 1
    inc = np.concatenate([[start], W[:edge] @ g[:SWEEP_NODES],
                          np.convolve(g, W[edge, ::-1], "valid"),
                          W[edge + 1:] @ g[-SWEEP_NODES:]])
    out = _recurrence(inc, np.exp(-rate * h))
    # the BLAS recurrence sets no floating-point flag when it overflows
    if not np.isfinite(out).all():
        raise FloatingPointError("overflow in the exponential sweep")
    return out


def _tail_moment(g0: float, g1: float, m: float, h: float) -> float:
    # closes int over the half line beyond the boundary node assuming the
    # local exponential profile fitted from the outermost two samples
    if g0 == 0.0:
        return 0.0
    ratio = g1 / g0
    rho = np.log(ratio) / h if ratio > 0 else 0.0
    if not np.isfinite(rho) or rho < 0.0:
        rho = 0.0
    return g0 / (m + rho)


@_no_overflow
def helmholtz_solve(g, msq: int, h: float) -> np.ndarray:
    """Solve (msq - d^2) u = g on the grid with decay conditions at the ends."""
    if msq not in (1, 4):
        raise ParameterError(f"msq must be 1 or 4, got {msq}")
    g = _grid_function(np.ascontiguousarray(g, dtype=float), "g")
    if not np.isfinite(g).all():
        raise ParameterError("samples must be finite")
    m, h = float(np.sqrt(msq)), _spacing(h)
    left = causal_exp_conv(g, m, h, _tail_moment(g[0], g[1], m, h))
    # both sweeps read contiguous samples, as the sums of their edge rows
    # round by memory layout: an even g then has an exactly even inverse
    g = np.ascontiguousarray(g[::-1])
    right = causal_exp_conv(g, m, h, _tail_moment(g[0], g[1], m, h))[::-1]
    return (left + right) / (2.0 * m)


def b_apply(g, h: float) -> np.ndarray:
    """(1 - d^2)(4 - d^2)^{-1} g, via the identity g - 3 (4 - d^2)^{-1} g."""
    return np.asarray(g, dtype=float) - 3.0 * helmholtz_solve(g, 4, h)


@dataclass(frozen=True)
class ConservedValues:
    """Three conserved functionals, normalized to vanish at the background."""

    H: float
    Q: float
    E_mass: float


def _flag_overflow(x, y) -> np.ndarray:
    """y, a transform of x; pocketfft does not flag the overflow of a finite x."""
    if not np.isfinite(y).all() and np.isfinite(x).all():
        raise FloatingPointError("overflow in a real transform")
    return y


@_no_overflow
def real_spectral_map(w, f) -> np.ndarray:
    """irfft(f(rfft(w)), w.shape[-1]), the periodic grid map acting as f on the
    real-FFT half-spectrum of each row of w, all rows in one transform pair; a
    complex w is mapped as one 2-row stack of its real and imaginary parts."""
    w = np.asarray(w)
    x = np.stack([w.real, w.imag]) if np.iscomplexobj(w) else w
    fx = f(_flag_overflow(x, rfft(x)))
    y = _flag_overflow(fx, irfft(fx, w.shape[-1]))
    return y[0] + 1j * y[1] if np.iscomplexobj(w) else y


def rfft_sigma(n: int, h: float) -> np.ndarray:
    """Angular frequencies sigma = 2 pi rfftfreq(n, h) of the real-FFT
    half-spectrum of n samples at spacing h, in rfftfreq's own arithmetic."""
    return 2.0 * np.pi * (np.arange(n // 2 + 1) * (1.0 / (n * _spacing(h))))


def close_seam(w) -> np.ndarray:
    """The closed-grid function of the periodic samples w: each row with its
    seam node appended, a copy of node 0."""
    w = np.asarray(w)
    return np.concatenate([w, w[..., :1]], axis=-1)


@_no_overflow
def spectral_multiplier(w, h: float, mult) -> np.ndarray:
    """The periodic multiplier mult(sigma) on each row of the closed-grid
    function w of spacing h: the input's last node is discarded, and the
    result's seam node is a copy of node 0 (`close_seam`)."""
    w = np.asarray(w)
    if w.ndim == 0 or w.shape[-1] < 2:
        raise ParameterError("need a closed grid of at least 2 nodes")
    sym = mult(rfft_sigma(w.shape[-1] - 1, h))
    return close_seam(real_spectral_map(w[..., :-1], lambda wk: sym * wk))


@_no_overflow
def conserved(params, h: float, u=None, m=None) -> ConservedValues:
    """H, Q and E_mass of a state given as u or as m = u - u''.

    The missing representation is reconstructed: m from u by the spectral
    derivative of u - k (the state must decay to k at the ends), u from m by
    the decaying Helmholtz inverse.
    """
    if (u is None) == (m is None):
        raise ParameterError("pass exactly one of u or m")
    k = params.k
    # the spectral route from u would meet a non-finite sample before any check
    if not np.isfinite(u if m is None else m).all():
        raise ParameterError("samples must be finite")
    if m is None:
        u = np.asarray(u, dtype=float)
        m = k + spectral_multiplier(u - k, h, lambda s: 1.0 + s * s)
    else:
        m = np.asarray(m, dtype=float)
        u = k + helmholtz_solve(m - k, 1, h)
    w = u - k
    # u^3 - 3k^2(u-k) - k^3 factored to avoid cancellation in the tails
    H = -np.trapezoid(w * w * (u + 2.0 * k), dx=h) / 6.0
    Q = 0.5 * np.trapezoid(w * b_apply(w, h), dx=h)
    E_mass = np.trapezoid(m - k, dx=h)
    return ConservedValues(float(H), float(Q), float(E_mass))


@dataclass(frozen=True)
class KernelBasis:
    """Weighted bi-orthogonal basis of the generalized kernel at lambda = 0."""

    alpha: float
    h: float
    xi: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    theta1: float
    theta2: float
    gram_residuals: dict


def kernel_basis(profile: Profile, alpha: float) -> KernelBasis:
    """The kernel basis on the profile grid for 0 < alpha < alpha_crit, built per call.

    The strict lower bound matters: the unweighted left mode eta~_1 tends to
    a nonzero constant at +infinity, so only the weighted eta_1 is square
    integrable.
    """
    d = profile.consts
    alpha = float(alpha)
    if not 0.0 < alpha < d.alpha_crit:
        raise ParameterError(
            f"weight alpha={alpha} outside the open interval (0, {d.alpha_crit})"
        )
    h = profile.h
    dc = dc_profile(profile)
    # the closed-form orbit keeps u0 - k accurate far below eps(k), where
    # the stored sum k + w has already quantized the tail away
    w = profile_w(profile.params, profile.xi)[0]
    bw = b_apply(w, h)
    dQ_dc = float(np.trapezoid(dc * bw, dx=h))
    if dQ_dc <= 0.0:
        raise SolverError(
            f"speed derivative of the momentum functional is {dQ_dc}; "
            "it must be positive for an admissible wave"
        )
    theta1 = 1.0 / dQ_dc
    q = b_apply(dc, h)
    # running integral of q from -infinity; the half-line piece beyond the
    # grid follows from the tail rate of the profile
    cum = causal_exp_conv(q, 0.0, h) + q[0] / d.r_decay
    theta2 = theta1 * theta1 * float(np.trapezoid(dc * cum, dx=h))
    et2 = theta1 * bw
    et1 = -theta1 * cum + theta2 * bw
    growth = np.exp(alpha * profile.xi)
    z1 = growth * profile.u0_p
    z2 = growth * dc
    eta1 = et1 / growth
    eta2 = et2 / growth
    gram = {
        "z1_eta1": float(np.trapezoid(z1 * eta1, dx=h)) - 1.0,
        "z1_eta2": float(np.trapezoid(z1 * eta2, dx=h)),
        "z2_eta1": float(np.trapezoid(z2 * eta1, dx=h)),
        "z2_eta2": float(np.trapezoid(z2 * eta2, dx=h)) - 1.0,
    }
    return KernelBasis(
        alpha=alpha, h=h, xi=profile.xi, z1=z1, z2=z2, eta1=eta1, eta2=eta2,
        theta1=theta1, theta2=theta2, gram_residuals=gram,
    )


@_no_overflow
def project(f, basis: KernelBasis):
    """Rank-2 spectral projection Pi f = sum_j <eta_j, f> z_j and I - Pi."""
    f = np.asarray(f, dtype=float)
    if f.shape != basis.z1.shape:
        raise ParameterError("f is not on the basis grid")
    if not np.isfinite(f).all():
        raise ParameterError("samples must be finite")
    c1 = np.trapezoid(basis.eta1 * f, dx=basis.h)
    c2 = np.trapezoid(basis.eta2 * f, dx=basis.h)
    pf = c1 * basis.z1 + c2 * basis.z2
    return pf, f - pf
