import dataclasses
import warnings

import numpy as np
import pytest
import sympy

from dpstab import evans, lax, wave
from dpstab.dispersion import char_poly
from dpstab.wave import ParameterError, WaveParams, solve_profile


def _abcd_discriminant(lam, p):
    # classical cubic discriminant as an independent route
    a, b, c, d = p.c - p.k, -lam, 4 * p.k - p.c, lam
    return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)


def test_discriminant_anchors(params01):
    assert abs(lax.discriminant(1j, params01) - 16.5676) <= 1e-10
    assert abs(lax.discriminant(0.0, params01) - 0.7776) <= 1e-12


def test_discriminant_matches_abcd(params01):
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = complex(*rng.normal(0, 2, 2))
        d1 = lax.discriminant(lam, params01)
        d2 = _abcd_discriminant(lam, params01)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, abs(d1))


def test_discriminant_positive_on_axis():
    rng = np.random.default_rng(4)
    for _ in range(60):
        c = rng.uniform(0.3, 3.0)
        k = c * rng.uniform(0.01, 0.24)
        t = rng.uniform(-10, 10)
        if abs(t) < 1e-3:
            continue
        d = lax.discriminant(1j * t, WaveParams(k, c))
        assert abs(d.imag) <= 1e-12 * abs(d)
        assert d.real > 0


def test_m_cubic_roundtrip(params01):
    rng = np.random.default_rng(5)
    lams = rng.normal(0, 3, 100) + 1j * rng.normal(0, 3, 100)
    lams[:30] = 1j * lams[:30].imag  # a batch exactly on the axis
    for lam in lams:
        if abs(lam) < 1e-6:
            continue
        data = lax.m_cubic(lam, params01)
        for b in data.branches:
            assert b.checks["cubic_residual"] <= 1e-12
            if b.degenerate:
                continue
            assert b.checks["l1_residual"] <= 1e-10
            assert b.checks["l2_residual"] <= 1e-10
            assert b.checks["lambda_roundtrip"] <= 1e-10
            assert abs(3 * b.P ** 2 - (4 - b.M ** 2)) <= 1e-10
            assert abs(b.r1 - b.r2 - lam) <= 1e-10 * max(1.0, abs(lam))
            assert b.sigma.real > 0 or (b.sigma.real == 0 and b.sigma.imag >= 0)


def test_m_cubic_conjugate_symmetry(params01):
    rng = np.random.default_rng(6)
    for _ in range(20):
        lam = complex(*rng.normal(0, 2, 2))
        Ma = sorted((b.M for b in lax.m_cubic(lam, params01).branches),
                    key=lambda z: (z.real, z.imag))
        Mb = sorted((np.conj(b.M) for b in lax.m_cubic(np.conj(lam), params01).branches),
                    key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(Ma, Mb)) <= 1e-10


def test_m_cubic_degenerate_lambda_zero(params01):
    data = lax.m_cubic(0.0, params01)
    M = sorted(b.M.real for b in data.branches)
    assert abs(M[0] + np.sqrt(2 / 3)) <= 1e-12
    assert abs(M[1]) <= 1e-12
    assert abs(M[2] - np.sqrt(2 / 3)) <= 1e-12
    flags = [b.degenerate for b in data.branches]
    assert flags.count(True) == 1
    deg = data.branches[flags.index(True)]
    assert abs(deg.M) <= 1e-12 and np.isnan(deg.sigma.real)


def test_m_cubic_degenerate_P_zero(params01):
    # M = 2 solves the cubic exactly at lambda = 2c, where P = 0
    data = lax.m_cubic(2.0 * params01.c, params01)
    deg = [b for b in data.branches if abs(b.M - 2) < 1e-9]
    assert len(deg) == 1 and deg[0].degenerate


@pytest.mark.parametrize("lam", [1e300, 1e100, 1e77, 1e300j])
def test_m_cubic_overflow_is_a_parameter_error(params01, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="too large"):
            lax.m_cubic(lam, params01)
        # 1e100 makes lam ** 4 raise OverflowError; 1e77 makes 4 lam^4 inf
        with pytest.raises(ParameterError, match="too large"):
            lax.discriminant(lam, params01)
        assert np.isfinite(lax.m_cubic(1e76, params01).discriminant)


def test_l_roots_limit_and_adjoint():
    r = lax.l_roots(0.0)
    assert np.allclose(r, [-1.0, 0.0, 1.0], atol=1e-14)
    ra = lax.l_roots(0.12 + 0.05j, adjoint=True)
    rf = lax.l_roots(0.12 + 0.05j)
    assert np.max(np.abs(ra + rf[::-1])) <= 1e-12


def test_lax_solve_validation(prof01, params01):
    roots = lax.l_roots(params01.k * 1.2)
    with pytest.raises(ParameterError):
        lax.lax_solve(0.0, prof01, 1.0)
    with pytest.raises(ParameterError):
        lax.lax_solve(1.2, prof01, roots[0] + 0.1, "+")
    with pytest.raises(ParameterError):
        lax.lax_solve(1.2, prof01, roots[2], "+")  # wrong-end root
    with pytest.raises(ParameterError):
        lax.lax_solve(1.2, prof01, roots[0], "sideways")


def _launch_slope_error(sol):
    """Relative mismatch between d/dxi log|f| within 4 of the launch end and
    Re l; the renormalized f carries e^{-l xi}, so its fitted slope is Re l off."""
    xi = sol.xi
    mask = xi >= sol.launch - 4.0 if sol.direction == "+" else xi <= sol.launch + 4.0
    mag = np.abs(sol.f[mask])
    assert np.all(mag > 0)
    slope = np.polyfit(xi[mask], np.log(mag), 1)[0] + sol.l.real
    if abs(sol.l.real) < 1e-12:
        return abs(slope)
    return abs(slope - sol.l.real) / abs(sol.l.real)


def _second_relation_residual(sol):
    """Defect of the temporal relation r f = (1/sigma) f'' + (c - u0) f' + u0' f
    (adjoint: -(1/sigma) f''), relative max norm on |xi| <= 0.9 L; the
    renormalization cancels."""
    prof = sol.profile
    cmu = prof.params.c - prof.u0
    lead = (-1.0 if sol.adjoint else 1.0) / sol.sigma
    terms = (lead * sol.fpp, cmu * sol.fp, prof.u0_p * sol.f, -sol.rate * sol.f)
    den = sum(np.abs(t) for t in terms)
    mask = np.abs(sol.xi) <= 0.9 * prof.L
    return np.abs(sum(terms)[mask]).max() / den[mask].max()


def test_lax_solution_quality(prof01, params01):
    for sigma in (1.2, -0.8, 2.0 + 0.7j):
        roots = lax.l_roots(params01.k * sigma)
        phi = lax.lax_solve(sigma, prof01, roots[0], "+")
        assert _launch_slope_error(phi) < 0.01
        assert _second_relation_residual(phi) < 1e-5
        ar = lax.l_roots(params01.k * sigma, adjoint=True)
        psi = lax.lax_solve(sigma, prof01, ar[0], "+", adjoint=True)
        assert _second_relation_residual(psi) < 1e-5


def test_lax_arrays_mirror(prof01):
    # oracle: direct evaluation at the ascending points -L + j hs/2 and at
    # the descending points L - j hs/2
    for nsub in (1, 2):
        arrays = wave.half_step_samples(prof01, nsub)
        half = 0.5 * arrays["hs"] * np.arange(4 * arrays["n"] + 1)
        assert np.array_equal(arrays["mu"], prof01.eval(-prof01.L + half).mu)
        assert np.array_equal(arrays["mu"], prof01.eval(prof01.L - half).mu)


def test_one_sampling_serves_evans_and_lax(prof01, params01, monkeypatch):
    prof = dataclasses.replace(prof01)
    points = []
    evaluate = wave.Profile.eval

    def counting(self, x):
        points.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(wave.Profile, "eval", counting)
    sigma = 1.2
    evans.evans_eval(0.7 + 0.1j, prof, 0.5, nsub=2)
    lax.lax_solve(sigma, prof, lax.l_roots(params01.k * sigma)[0], "+", nsub=2)
    assert points == [4 * round(prof.L / (prof.h / 2)) + 1]


def test_adjoint_is_reflection(prof01, params01):
    # mu is even, so the adjoint system is the forward one under xi -> -xi
    sigma = 1.2
    roots = lax.l_roots(params01.k * sigma)
    phi = lax.lax_solve(sigma, prof01, roots[0], "+")
    ar = lax.l_roots(params01.k * sigma, adjoint=True)
    psi = lax.lax_solve(sigma, prof01, ar[2], "-", adjoint=True)
    assert np.max(np.abs(psi.f - phi.f[::-1])) <= 1e-13 * np.max(np.abs(phi.f))
    assert np.max(np.abs(psi.fp + phi.fp[::-1])) <= 1e-12 * np.max(np.abs(phi.fp))


def test_squared_eigenfunction_translation_pair(prof01, params01):
    sigma = 1.2
    phi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma)[0], "+")
    psi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma, adjoint=True)[2],
                        "-", adjoint=True)
    se = lax.squared_eigenfunction(phi, psi)
    assert abs(se.lambda_out) <= 1e-12
    assert abs(se.kappa) <= 1e-12
    assert se.residual_interior < 1e-5
    sl = slice(200, -200)
    ratio = se.v[prof01.i0 + 50] / prof01.u0_p[prof01.i0 + 50]
    dev = np.max(np.abs(se.v[sl] - ratio * prof01.u0_p[sl])) / np.max(np.abs(se.v))
    assert dev < 1e-8


def test_squared_eigenfunction_growing_pair(prof01, params01):
    sigma = 1.2
    phi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma)[0], "+")
    psi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma, adjoint=True)[0],
                        "+", adjoint=True)
    se = lax.squared_eigenfunction(phi, psi)
    assert se.residual_interior < 1e-5
    assert se.endpoint_error < 1e-10
    # lambda_out and kappa solve the spatial dispersion polynomial together
    assert abs(char_poly(se.lambda_out, se.kappa, params01)) <= 1e-12
    # asymptotic slope of the renormalized v is flat near the shared launch
    tail = np.abs(se.v[-150:-10])
    slope = np.polyfit(se.xi[-150:-10], np.log(tail), 1)[0]
    assert abs(slope) < 0.01 * max(1.0, abs(se.kappa.real))


def test_squared_eigenfunction_refinement(prof01, params01):
    sigma = 0.9
    args = [(lax.l_roots(params01.k * sigma)[0], False),
            (lax.l_roots(params01.k * sigma, adjoint=True)[0], True)]
    res = []
    for nsub in (1, 2):
        phi = lax.lax_solve(sigma, prof01, args[0][0], "+", nsub=nsub)
        psi = lax.lax_solve(sigma, prof01, args[1][0], "+", adjoint=True, nsub=nsub)
        res.append(lax.squared_eigenfunction(phi, psi).residual_interior)
    assert res[1] < res[0] / 4


def test_squared_eigenfunction_bilinearity(prof01, params01):
    sigma = 1.2
    phi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma)[0], "+")
    psi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma, adjoint=True)[0],
                        "+", adjoint=True)
    z = np.zeros_like(phi.f)
    phi0 = dataclasses.replace(phi, f=z, fp=z, fpp=z)
    se = lax.squared_eigenfunction(phi0, psi)
    assert np.all(se.v == 0)


def test_squared_eigenfunction_input_checks(prof01, params01):
    sigma = 1.2
    phi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma)[0], "+")
    psi = lax.lax_solve(sigma, prof01, lax.l_roots(params01.k * sigma, adjoint=True)[0],
                        "+", adjoint=True)
    with pytest.raises(ParameterError):
        lax.squared_eigenfunction(phi, phi)
    psi9 = lax.lax_solve(0.9, prof01, lax.l_roots(params01.k * 0.9, adjoint=True)[0],
                         "+", adjoint=True)
    with pytest.raises(ParameterError):
        lax.squared_eigenfunction(phi, psi9)
    other = solve_profile(params01, L=30.0)
    phi_o = lax.lax_solve(sigma, other, lax.l_roots(params01.k * sigma)[0], "+")
    with pytest.raises(ParameterError):
        lax.squared_eigenfunction(phi_o, psi)


def test_completeness_scan(params01):
    ts = np.linspace(-10, 10, 41)
    ts = ts[ts != 0.0]
    rep = lax.completeness_scan(ts, params01)
    assert rep["all_pass"] and rep["n"] == 40
    rep0 = lax.completeness_scan([0.0, 1.0, 10.0], params01)
    assert not rep0["all_pass"]
    assert rep0["failures"][0]["t"] == 0.0


def test_mcubic_selftest():
    # re-derive the M-cubic by symbolic elimination at three seeded rational
    # (k, c): from l_i^3 - l_i - k s = 0 (shared s) and
    # lam s = (l1 - l2)((l1 + l2) + (c - k) s), eliminating s and l1 leaves a
    # polynomial in M = l1 - l2 divisible by (c-k)M^3 - lam M^2 - (c-4k)M + lam
    # and not by the variant with (c + 2k)
    rng = np.random.default_rng(0)
    lam, s, l1, l2, M = sympy.symbols("lam s l1 l2 M")
    for _ in range(3):
        c = sympy.Rational(int(rng.integers(1, 12)), int(rng.integers(1, 6)))
        k = c * sympy.Rational(int(rng.integers(1, 5)), int(rng.integers(21, 40)))
        g1 = l1 ** 3 - l1 - k * s
        g2 = l2 ** 3 - l2 - k * s
        g3 = lam * s - (l1 - l2) * ((l1 + l2) + (c - k) * s)
        e1 = sympy.resultant(g1, g3, s).subs(l2, l1 - M)
        e2 = sympy.resultant(g1, g2, s).subs(l2, l1 - M)
        big = sympy.expand(sympy.resultant(e1, e2, l1))
        target = (c - k) * M ** 3 - lam * M ** 2 - (c - 4 * k) * M + lam
        variant = (c - k) * M ** 3 - lam * M ** 2 - (c + 2 * k) * M + lam
        # rem works on polynomials in M over QQ(lam): a zero remainder is 0
        assert sympy.rem(big, target, M) == 0, (k, c)
        assert sympy.rem(big, variant, M) != 0, (k, c)
