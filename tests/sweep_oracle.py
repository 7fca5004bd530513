"""Second sweep route: the order-6 exponential sweep, weights by Vandermonde solve.

Panel [x_i, x_{i+1}] integrates the degree-5 interpolant on nodes i-2 .. i+3,
shifted inward next to each end, against e^{-rate (x_{i+1} - y)}.  The weights
solve the transposed Vandermonde system against the exact moments
int_0^1 t^n e^{-a (1 - t)} dt, accurate to about 1e-14 at 6 nodes; the running
sum is a plain loop.  Its error is of order h^6, and the order-10 sweep of
`dpstab.kernel` must agree with it to within that error.
"""
import numpy as np


def _exp_moments(a) -> np.ndarray:
    # mu_n = int_0^1 t^n e^{-a(1-t)} dt = e^{-a} sum_p a^p / (p! (n+p+1))
    n = np.arange(6.0)
    mu = np.zeros(6, dtype=complex)
    term = np.ones(6, dtype=complex)
    for p in range(80):
        mu += term / (n + p + 1.0)
        term *= a / (p + 1.0)
    return np.exp(-a) * mu


def panel_weights6(rate, h: float) -> np.ndarray:
    """Row s: the weights of the degree-5 interpolant on nodes i-s .. i-s+5."""
    mu = _exp_moments(rate * h)
    W = np.empty((5, 6), dtype=complex)
    for s in range(5):
        V = np.vander(np.arange(6.0) - s, 6, increasing=True)
        W[s] = h * np.linalg.solve(V.T.astype(complex), mu)
    return W


def causal_exp_conv6(g, rate, h: float, start=0.0) -> np.ndarray:
    """The order-6 sweep of C(x_i) = start e^{-rate (x_i - x_0)} +
    int_{x_0}^{x_i} e^{-rate (x_i - y)} g(y) dy, complex valued."""
    g = np.asarray(g, dtype=complex)
    W = panel_weights6(rate, h)
    inc = np.concatenate([W[:2] @ g[:6], np.convolve(g, W[2, ::-1], "valid"),
                          W[3:] @ g[-6:]])
    q = np.exp(-rate * h)
    out = np.empty(g.size, dtype=complex)
    out[0] = start
    for i, d in enumerate(inc):
        out[i + 1] = q * out[i] + d
    return out
