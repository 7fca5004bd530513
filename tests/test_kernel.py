import dataclasses
import functools
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from sweep_oracle import causal_exp_conv6

from dpstab import WaveParams, solve_profile
from dpstab import evolve, kernel
from dpstab.wave import ParameterError

THETA1_01 = 4.320087729757807
THETA2_01 = 11.337868480767948


def _fourier_inverse(g, msq, h):
    # periodic-extension route, valid for compactly supported g
    sig = 2.0 * np.pi * np.fft.rfftfreq(g.size, d=h)
    return np.fft.irfft(np.fft.rfft(g) / (msq + sig ** 2), n=g.size)


def _mp_exp_integral_of_poly(p, r, x):
    # int_{x_0}^{x_i} e^{-r (x_i - y)} p(y) dy at every node, at 50 digits:
    # P = sum_j (-1)^j p^(j) / r^(j+1) solves P' + r P = p (P = int p at
    # r = 0), so the integral is P(x_i) - e^{-r (x_i - x_0)} P(x_0).  P is
    # large against that difference: in doubles the first nodes here are off
    # by up to 5e-13 relative at r = 1 and 3.6e-12 at r = 0.7 + 0.3i
    with mpmath.workdps(50):
        r = mpmath.mpmathify(r)
        c = [mpmath.mpf(a) for a in p.coef]
        if r == 0:
            P = [0] + [a / (k + 1) for k, a in enumerate(c)]
        else:
            P = [mpmath.fsum((-1) ** j * mpmath.rf(k + 1, j) * c[k + j] / r ** (j + 1)
                             for j in range(len(c) - k)) for k in range(len(c))]
        t = [mpmath.mpf(a) for a in x]
        P0 = mpmath.polyval(P[::-1], t[0])
        return np.array([complex(mpmath.polyval(P[::-1], ti) - mpmath.exp(-r * (ti - t[0])) * P0)
                         for ti in t])


@pytest.mark.parametrize("rate", [0.0, 1.0, 0.7 + 0.3j])
def test_causal_exp_conv_polynomial_exact(rate):
    # every weight row, the four edge rows at each end included, is exact on
    # degree-9 data: at rate 0 (the running integral, which carries an edge
    # row's error to every later node), a real and a complex rate
    h = 0.1
    x = -3.0 + h * np.arange(121)
    p = (Polynomial.fromroots([0.3] * 9) + Polynomial([0.0, 1.0, 0.0, -2.0])) / 10.0
    ref = _mp_exp_integral_of_poly(p, rate, x)
    out = kernel.causal_exp_conv(p(x), rate, h)
    assert out.dtype == (complex if isinstance(rate, complex) else float)
    # the sweep reaches about 1e-15 here, the order-6 sweep 8e-10
    err = np.abs(out - ref)
    assert np.max(err) <= 1e-14 * np.max(np.abs(ref))
    # node by node against the damped integral of |p| (a rectangle rule), so
    # a positive rate cannot hide the first edge rows' error (at most 2.3e-15
    # here; scaling the first or fourth row by 1 + 1e-12 fails every rate)
    damp = np.tril(np.exp(-np.real(rate) * (x[:, None] - x)))
    assert np.all(err <= 1e-14 * h * (damp @ np.abs(p(x))))


def test_causal_exp_conv_order():
    # sin(4x) keeps both errors (4.1e-8 and 3.4e-11) well above the rounding
    # floor of about 1e-14, where sin(x) on these grids reaches it
    errs = []
    for n in (200, 400):
        h = 20.0 / n
        x = -10.0 + h * np.arange(n + 1)
        out = kernel.causal_exp_conv(np.sin(4.0 * x), 0.0, h)
        errs.append(np.max(np.abs(out - (np.cos(-40.0) - np.cos(4.0 * x)) / 4.0)))
    assert min(errs) > 1e-11
    # order-10 panels: ratio near 2^10 (1192 here), where order 6 gives 64
    assert 2.0 ** 9.5 < errs[0] / errs[1] < 2.0 ** 10.5


@functools.cache
def _lagrange_rows(nodes: int = kernel.SWEEP_NODES) -> list:
    """Exact coefficients in t of l_j(s + t), the Lagrange basis on nodes
    0 .. nodes-1, for every panel s and node j."""
    rows = []
    for s in range(nodes - 1):
        row = []
        for j in range(nodes):
            poly = [Fraction(1)]
            for m in range(nodes):
                if m != j:
                    # times (t + s - m) / (j - m)
                    poly = [a * Fraction(s - m, j - m) + b * Fraction(1, j - m)
                            for a, b in zip(poly + [0], [0] + poly)]
            row.append(poly)
        rows.append(row)
    return rows


def _mp_panel_weights(rate, h, rows):
    """The panel weights at 40 digits: h sum_n coef_n mu_n with the moments
    mu_n = int_0^1 t^n e^{-a(1-t)} dt = e^{-a} sum_p a^p / (p! (n+p+1))."""
    with mpmath.workdps(40):
        a = mpmath.mpmathify(rate) * mpmath.mpf(h)
        mu = []
        for n in range(len(rows[0][0])):
            total, term = 0, mpmath.mpf(1)
            for p in range(200):
                total += term / (n + p + 1)
                term *= a / (p + 1)
            mu.append(mpmath.exp(-a) * total)
        return [[complex(mpmath.mpf(h) * mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * m for c, m in zip(poly, mu)))
            for poly in row] for row in rows]


@pytest.mark.parametrize("h", [0.04, 0.1])
@pytest.mark.parametrize("rate", [0.0, 2.0, 0.5 + 1j, 250.0])
def test_panel_weights_match_mpmath(rate, h):
    # every weight row against an exact-arithmetic route up to |rate h| = 25;
    # a Vandermonde solve on 10 nodes is off by 1.7e-10 here
    W = kernel._panel_weights(rate, h)
    ref = np.array(_mp_panel_weights(rate, h, _lagrange_rows()))
    assert W.shape == ref.shape == (kernel.SWEEP_NODES - 1, kernel.SWEEP_NODES)
    assert W.dtype == (complex if isinstance(rate, complex) else float)
    err = np.max(np.abs(W - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.all(err <= 1e-14)


@pytest.mark.parametrize("rate", [0.0, 1.0, 0.5 + 1.0j])
def test_causal_exp_conv_matches_order6_oracle(rate):
    # on smooth data the sweep agrees with the order-6 route to within that
    # route's own error, estimated by halving its step
    h = 0.1
    x = -8.0 + 0.5 * h * np.arange(321)
    g = np.exp(-0.1 * x * x) * np.cos(1.5 * x)
    fine = causal_exp_conv6(g, rate, 0.5 * h)[::2]
    coarse = causal_exp_conv6(g[::2], rate, h)
    oracle_err = np.max(np.abs(coarse - fine))
    assert 1e-9 < oracle_err < 1e-6
    assert np.max(np.abs(kernel.causal_exp_conv(g[::2], rate, h) - coarse)) <= 1.1 * oracle_err


@pytest.mark.parametrize("g, rate, match", [
    (np.ones((2, 10)), 1.0, "1-d grid function with at least 10 samples"),
    (np.ones(5), 1.0, "1-d grid function with at least 10 samples"),
    (np.ones(9), 1.0, "1-d grid function with at least 10 samples"),
    (np.ones(10), np.nan, "rate must be finite"),
    (np.ones(10), complex(np.nan, 1.0), "rate must be finite"),
    (np.ones(10), -0.1, "Re rate >= 0"),
    (np.ones(10), -0.1 + 2.0j, "Re rate >= 0"),
], ids=["2-d", "5-samples", "9-samples", "nan-rate", "nan-complex-rate",
        "negative-rate", "negative-re-rate"])
def test_causal_exp_conv_rejects(g, rate, match):
    # a bad shape or rate ends here, not in an IndexError, a window that
    # wraps round to the last sample, or a NaN result
    with pytest.raises(ParameterError, match=match):
        kernel.causal_exp_conv(g, rate, 0.1)


@pytest.mark.parametrize("entry, name", [
    (lambda g: kernel.causal_exp_conv(g, 1.0, 0.1), "g"),
    (lambda g: kernel.helmholtz_solve(g, 1, 0.1), "g"),
    (lambda g: evolve.green_apply(evolve.free_green(1.0, 0.5, WaveParams(0.1, 1.0)),
                                  g, 0.1), "phi"),
], ids=["causal_exp_conv", "helmholtz_solve", "green_apply"])
def test_sweeps_share_one_minimum_sample_count(entry, name):
    # the fewest samples a sweep panel's interpolant needs, refused by the
    # function called, not by a sweep inside it
    assert np.all(np.isfinite(entry(np.exp(-np.linspace(-3.0, 3.0, kernel.SWEEP_NODES)))))
    with pytest.raises(ParameterError, match=f"^{name} must be a 1-d grid function "
                                             f"with at least {kernel.SWEEP_NODES} samples"):
        entry(np.ones(kernel.SWEEP_NODES - 1))


def test_helmholtz_manufactured(prof01):
    h, x = prof01.h, prof01.xi
    a = 0.4
    u = 1.0 / np.cosh(a * x) ** 2
    uxx = (4 * a * a) * u - (6 * a * a) * u ** 2
    sol = kernel.helmholtz_solve(4 * u - uxx, 4, h)
    assert np.max(np.abs(sol - u)) <= 1e-8
    sol1 = kernel.helmholtz_solve(u - uxx, 1, h)
    assert np.max(np.abs(sol1 - u)) <= 1e-8


def test_helmholtz_fourier_route(prof01):
    h, x = prof01.h, prof01.xi
    g = np.exp(-0.08 * x ** 2) * np.sin(1.3 * x)
    for msq in (1, 4):
        mine = kernel.helmholtz_solve(g, msq, h)
        assert np.max(np.abs(mine - _fourier_inverse(g, msq, h))) <= 1e-10


_G = np.exp(-np.linspace(-5.0, 5.0, 101) ** 2)
_SPACED = {
    "causal_exp_conv-rate0": lambda h: kernel.causal_exp_conv(_G, 0.0, h),
    "causal_exp_conv": lambda h: kernel.causal_exp_conv(_G, 1.0, h),
    "helmholtz_solve": lambda h: kernel.helmholtz_solve(_G, 4, h),
    "b_apply": lambda h: kernel.b_apply(_G, h),
    "rfft_sigma": lambda h: kernel.rfft_sigma(_G.size, h),
    "spectral_multiplier": lambda h: kernel.spectral_multiplier(_G, h, lambda s: s),
    "conserved-u": lambda h: kernel.conserved(WaveParams(0.1, 1.0), h, u=0.1 + _G),
    "conserved-m": lambda h: kernel.conserved(WaveParams(0.1, 1.0), h, m=0.1 + _G),
    "causal_exp_conv-complex": lambda h: kernel.causal_exp_conv(_G, 0.5 + 1.0j, h),
}


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize("entry", list(_SPACED))
def test_bad_spacing_rejected(entry, h):
    # one check for every grid map: no ZeroDivisionError, warning or numbers
    with pytest.raises(ParameterError, match="grid spacing must be finite and positive"):
        _SPACED[entry](h)


def test_helmholtz_zero_and_errors(prof01):
    out = kernel.helmholtz_solve(np.zeros(101), 1, 0.1)
    assert np.all(out == 0.0)
    with pytest.raises(ParameterError):
        kernel.helmholtz_solve(np.zeros(101), 3, 0.1)
    with pytest.raises(ParameterError):
        kernel.helmholtz_solve(np.zeros((5, 5)), 1, 0.1)
    with pytest.raises(ParameterError):
        kernel.helmholtz_solve(np.zeros(4), 1, 0.1)
    # a closed grid of 1 node has no periodic sample left
    with pytest.raises(ParameterError, match="at least 2 nodes"):
        kernel.spectral_multiplier(np.ones(1), 0.1, lambda s: s)


@pytest.mark.parametrize("q, start", [(np.exp(-0.02), 0.7),
                                      (np.exp(-(0.3 + 1.1j) * 0.02), 0.0)])
def test_recurrence_matches_lfilter(q, start):
    # scipy.signal.lfilter is the oracle for y_i = q y_{i-1} + inc_i; the
    # start value enters as lfilter's initial state q * start
    from scipy.signal import lfilter

    rng = np.random.default_rng(3)
    inc = rng.standard_normal(4000)
    if np.iscomplexobj(q):
        inc = inc + 1j * rng.standard_normal(4000)
    ref = lfilter([1.0], [1.0, -q], inc, zi=np.array([q * start]))[0]
    mine = kernel._recurrence(np.concatenate([[start], inc]), q)
    assert mine[0] == start
    # relative to the largest value: the random increments cancel to near
    # zero at a few points, where a pointwise relative error means nothing
    assert np.max(np.abs(mine[1:] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_helmholtz_even_symmetry(prof01):
    # mirrored sweeps make the inverse of an even function exactly even
    out = kernel.helmholtz_solve(prof01.u0 - prof01.params.k, 4, prof01.h)
    assert np.array_equal(out, out[::-1])


def test_b_apply_multiplier(prof01):
    h, x = prof01.h, prof01.xi
    g = np.exp(-0.1 * x ** 2) * np.cos(0.7 * x)
    sig = 2.0 * np.pi * np.fft.rfftfreq(g.size, d=h)
    ref = np.fft.irfft(np.fft.rfft(g) * (1.0 + sig ** 2) / (4.0 + sig ** 2), n=g.size)
    assert np.max(np.abs(kernel.b_apply(g, h) - ref)) <= 1e-10


@pytest.mark.parametrize("n", [64, 65])
def test_spectral_multiplier_maps_rows(n):
    # the frequency grid follows the last axis, so a stack maps row by row
    x = np.linspace(-3.0, 3.0, n)
    w = np.stack([np.exp(-x ** 2), np.sin(x) * np.exp(-x ** 2), x * np.exp(-2 * x ** 2)])
    mult = lambda s: 1.0 + s * s  # noqa: E731
    assert np.array_equal(kernel.spectral_multiplier(w, 0.1, mult),
                          [kernel.spectral_multiplier(row, 0.1, mult) for row in w])


def test_conserved_background_zero(params01):
    u = np.full(4001, params01.k)
    cv = kernel.conserved(params01, 0.02, u=u)
    assert cv.H == 0.0 and cv.Q == 0.0 and cv.E_mass == 0.0


def test_conserved_routes_agree(prof01, params01):
    a = kernel.conserved(params01, prof01.h, u=prof01.u0)
    b = kernel.conserved(params01, prof01.h, m=prof01.mu)
    for name in ("H", "Q", "E_mass"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= 1e-10 * max(1.0, abs(x))
    assert a.Q > 0 and a.E_mass > 0


def test_conserved_positivity_random(params01):
    rng = np.random.default_rng(7)
    x = -40.0 + 0.02 * np.arange(4001)
    for _ in range(5):
        amp = rng.uniform(0.05, 0.3)
        u = params01.k + amp * np.exp(-0.2 * (x - rng.uniform(-5, 5)) ** 2)
        assert kernel.conserved(params01, 0.02, u=u).Q > 0


def test_conserved_flags_nonpositive_m(params01):
    x = -40.0 + 0.02 * np.arange(4001)
    m = params01.k - 0.2 * np.exp(-(x ** 2))
    cv = kernel.conserved(params01, 0.02, m=m)
    assert np.isfinite(cv.H) and np.isfinite(cv.Q) and np.isfinite(cv.E_mass)


def test_conserved_argument_check(params01):
    with pytest.raises(ParameterError):
        kernel.conserved(params01, 0.02)
    with pytest.raises(ParameterError):
        kernel.conserved(params01, 0.02, u=np.zeros(16), m=np.zeros(16))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", [
    lambda g, prof, params: kernel.helmholtz_solve(g, 1, prof.h),
    lambda g, prof, params: kernel.project(g, kernel.kernel_basis(prof, 0.5)),
    lambda g, prof, params: kernel.conserved(params, prof.h, u=params.k + g),
    lambda g, prof, params: kernel.conserved(params, prof.h, m=params.k + g),
    lambda g, prof, params: kernel.causal_exp_conv(g, 1.0, prof.h),
], ids=["helmholtz_solve", "project", "conserved_u", "conserved_m", "causal_exp_conv"])
def test_non_finite_samples_rejected(prof01, params01, entry, bad):
    g = np.exp(-prof01.xi ** 2)
    g[prof01.i0 + 7] = bad
    with pytest.raises(ParameterError, match="finite"):
        entry(g, prof01, params01)


_HUGE = np.full(101, 1e308)


@pytest.mark.parametrize("entry, name", [
    (lambda prof, params: kernel.conserved(params, 0.05, u=np.full(1201, 1e300)),
     "conserved"),
    (lambda prof, params: kernel.conserved(params, 0.05, m=np.full(1201, 1e300)),
     "conserved"),
    (lambda prof, params: kernel.project(np.full(prof.xi.size, 1e308),
                                         kernel.kernel_basis(prof, 0.5)), "project"),
    (lambda prof, params: kernel.causal_exp_conv(_HUGE, 0.0, 0.1), "causal_exp_conv"),
    (lambda prof, params: kernel.causal_exp_conv(_HUGE, 0.0, 2.0), "causal_exp_conv"),
    (lambda prof, params: kernel.helmholtz_solve(_HUGE, 1, 0.1), "helmholtz_solve"),
    (lambda prof, params: kernel.spectral_multiplier(_HUGE, 0.1, lambda s: 1.0 + s * s),
     "spectral_multiplier"),
    (lambda prof, params: kernel.real_spectral_map(_HUGE, lambda wk: wk),
     "real_spectral_map"),
    (lambda prof, params: kernel.real_spectral_map(
        np.ones(64), lambda wk: np.full_like(wk, 1e308)), "real_spectral_map"),
    (lambda prof, params: evolve.green_apply(evolve.free_green(1.0, 0.5, params),
                                             _HUGE, 0.1), "green_apply"),
], ids=["conserved_u", "conserved_m", "project", "causal_exp_conv",
        "causal_exp_conv-edge-rows", "helmholtz_solve", "spectral_multiplier",
        "real_spectral_map", "real_spectral_map-inverse", "green_apply"])
def test_overflowing_samples_rejected(prof01, params01, entry, name):
    # finite samples too large for the quadrature: a bad input, raised
    # without a RuntimeWarning (which the suite turns into an error) and
    # named after the function called, whichever guarded function inside it
    # overflowed; the sweep's BLAS recurrence and the transforms overflow to
    # inf without any warning (the -inverse row only in the inverse
    # transform), while at h = 2 the sweep's edge-row products overflow
    # before the recurrence
    with pytest.raises(ParameterError, match=f"^{name} overflows"):
        entry(prof01, params01)


def test_theta_anchors(prof01):
    b = kernel.kernel_basis(prof01, 0.5 * prof01.consts.alpha_crit)
    assert abs(b.theta1 - THETA1_01) <= 1e-8
    assert abs(b.theta2 - THETA2_01) <= 1e-7


def test_theta1_matches_difference_quotient(prof01, params01):
    # dQ/dc by Richardson-refined centered differences of the functional
    k, c = params01.k, params01.c
    def Q(cv, dcv):
        prof = solve_profile(WaveParams(k, cv + dcv), L=prof01.L, h=prof01.h)
        return kernel.conserved(WaveParams(k, cv + dcv), prof.h, u=prof.u0).Q
    dc = 1e-3
    d1 = (Q(c, dc) - Q(c, -dc)) / (2 * dc)
    d2 = (Q(c, dc / 2) - Q(c, -dc / 2)) / dc
    dQ = (4 * d2 - d1) / 3
    b = kernel.kernel_basis(prof01, 0.5 * prof01.consts.alpha_crit)
    assert abs(1.0 / b.theta1 - dQ) <= 1e-7 * abs(dQ)


def test_dQ_dc_positive_grid():
    for c in (0.5, 1.0, 2.0):
        for k in (c / 20, c / 8, c / 5):
            prof = solve_profile(WaveParams(k, c), L=44.0, h=0.05)
            b = kernel.kernel_basis(prof, 0.5 * prof.consts.alpha_crit)
            assert b.theta1 > 0


def test_gram_residuals(prof01):
    for frac in (0.5, 0.9):
        b = kernel.kernel_basis(prof01, frac * prof01.consts.alpha_crit)
        assert max(abs(v) for v in b.gram_residuals.values()) <= 1e-8


def test_alpha_gate(prof01):
    ac = prof01.consts.alpha_crit
    for bad in (0.0, ac, 1.1 * ac, -0.1):
        with pytest.raises(ParameterError):
            kernel.kernel_basis(prof01, bad)


def test_left_mode_tails(prof01):
    alpha = 0.5 * prof01.consts.alpha_crit
    b = kernel.kernel_basis(prof01, alpha)
    flat1 = np.exp(alpha * prof01.xi) * b.eta1
    # unweighted: plateau at +inf, decay at -inf; only the weight restores decay
    assert abs(flat1[-1]) > 0.1
    assert np.std(flat1[-100:]) <= 1e-6 * abs(flat1[-1])
    assert abs(flat1[0]) <= 1e-8
    for arr in (b.z1, b.z2, b.eta1, b.eta2):
        assert abs(arr[0]) <= 1e-6 and abs(arr[-1]) <= 1e-6


def test_project_reproduces_basis(prof01):
    b = kernel.kernel_basis(prof01, 0.5 * prof01.consts.alpha_crit)
    pf, rest = kernel.project(b.z1, b)
    assert np.max(np.abs(pf - b.z1)) <= 1e-8
    assert np.max(np.abs(rest)) <= 1e-8


def test_project_idempotent_and_orthogonal(prof01):
    b = kernel.kernel_basis(prof01, 0.5 * prof01.consts.alpha_crit)
    rng = np.random.default_rng(11)
    f = np.exp(-0.1 * prof01.xi ** 2) * rng.standard_normal(prof01.xi.size)
    pf, rest = kernel.project(f, b)
    p2, _ = kernel.project(pf, b)
    assert np.max(np.abs(p2 - pf)) <= 1e-10
    assert abs(np.trapezoid(b.eta1 * rest, dx=b.h)) <= 1e-8
    assert abs(np.trapezoid(b.eta2 * rest, dx=b.h)) <= 1e-8
    with pytest.raises(ParameterError):
        kernel.project(f[:-1], b)
