import dataclasses
import warnings

import numpy as np
import pytest

from dpstab import (
    ParameterError,
    SolverError,
    WaveParams,
    dc_profile,
    derived_constants,
    solve_profile,
)
from dpstab import evolve, kernel, wave
from dpstab.wave import profile_w
from profile_oracle import dop853_w, fd_dc_w

# closed-form oracles: a = k(c-k)^3, E = kc - 2k^2, u_max = c - k - sqrt(ck),
# r_decay = sqrt((c-4k)/(c-k)), evaluated once and frozen
CONST_CASES = [
    ((0.1, 1.0), 0.0729, 0.08, 0.5837722339831621, 0.816496580927726),
    ((0.05, 1.0), 0.04286875, 0.045, 0.726393202250021, 0.9176629354822472),
    ((0.2, 1.0), 0.1024, 0.12, 0.3527864045000421, 0.5),
]


@pytest.mark.parametrize("kc,a,E,umax,r", CONST_CASES)
def test_derived_constants_frozen_values(kc, a, E, umax, r):
    d = derived_constants(WaveParams(*kc))
    assert d.a == pytest.approx(a, abs=1e-15)
    assert d.E == pytest.approx(E, abs=1e-15)
    assert d.u_max == pytest.approx(umax, abs=1e-14)
    assert d.r_decay == pytest.approx(r, abs=1e-14)
    assert d.alpha_crit == d.r_decay
    assert kc[0] < d.u_max < kc[1]


@pytest.mark.parametrize("k,c", [(0.0, 1.0), (0.25, 1.0), (0.3, 1.0), (-0.1, 1.0), (0.1, -1.0), (0.1, 0.0)])
def test_inadmissible_parameters_rejected(k, c):
    with pytest.raises(ParameterError):
        WaveParams(k, c)


def test_bad_grid_rejected(params01):
    with pytest.raises(ParameterError):
        solve_profile(params01, L=40.0, h=0.023)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_non_positive_or_non_finite_grid_rejected(params01, bad):
    with pytest.raises(ParameterError, match="L and h must be positive and finite"):
        solve_profile(params01, L=bad, h=0.02)
    with pytest.raises(ParameterError, match="L and h must be positive and finite"):
        solve_profile(params01, L=40.0, h=bad)


def test_short_domain_warns(params01):
    with pytest.warns(UserWarning):
        solve_profile(params01, L=16.0, h=0.02)


def test_short_domain_guard_boundary():
    # (k, c) = (0.2, 1) has r_decay = 1/2 up to one ulp: L = 40 sits on the
    # guard's boundary L r = 20 and must not warn, L = 39 is short
    params = WaveParams(0.2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_profile(params, L=40.0)
    with pytest.warns(UserWarning):
        solve_profile(params, L=39.0)


def test_profile_symmetry_exact(prof01):
    assert np.array_equal(prof01.u0, prof01.u0[::-1])
    assert np.array_equal(prof01.u0_p, -prof01.u0_p[::-1])
    assert np.array_equal(prof01.mu, prof01.mu[::-1])
    assert prof01.u0_p[prof01.i0] == 0.0


def test_profile_crest_and_range(prof01):
    d = prof01.consts
    assert abs(prof01.u0[prof01.i0] - d.u_max) < 1e-10
    assert prof01.u0.max() <= d.u_max + 1e-12
    assert prof01.u0.min() > prof01.params.k
    assert np.all(prof01.u0 < prof01.params.c)
    assert np.all(prof01.mu > 0.0)


def test_profile_monotone_off_crest(prof01):
    right = prof01.u0[prof01.i0:]
    assert np.all(np.diff(right) < 0.0)


def test_quadrature_residual(prof01):
    d = prof01.consts
    c = prof01.params.c
    res = prof01.u0_p**2 - (d.E + prof01.u0**2 - d.a / (c - prof01.u0) ** 2)
    assert np.abs(res).max() < 1e-10


def test_second_order_residual_and_grid_convergence(params01):
    # independent check of u0'' by finite differences; halving h must cut
    # the discretization residual by at least 3x
    def fd_res(h):
        p = solve_profile(params01, L=40.0, h=h)
        fd = (p.u0[2:] - 2.0 * p.u0[1:-1] + p.u0[:-2]) / h**2
        return np.abs(fd - p.u0_pp[1:-1]).max()

    r1, r2 = fd_res(0.02), fd_res(0.01)
    assert r1 < 1e-4
    assert r1 / r2 > 3.0


def test_tail_slope_and_endpoint(prof01):
    d = prof01.consts
    k = prof01.params.k
    # w = u0 - k through profile_w, free of the k + w storage roundoff
    x = np.linspace(prof01.L - 10.0, prof01.L, 201)
    w, _ = profile_w(prof01.params, x)
    slope = np.polyfit(x, np.log(w), 1)[0]
    assert abs(slope + d.r_decay) < 1e-7 * d.r_decay
    assert 0.0 < prof01.u0[-1] - k < 1e-13
    # stored u0 recovers the same tail up to the ulp grid of k
    w_grid, _ = profile_w(prof01.params, prof01.xi[-201:])
    assert np.abs((prof01.u0[-201:] - k) - w_grid).max() < 1e-16


def test_mu_matches_algebraic_relation(prof01):
    assert np.allclose(prof01.mu, prof01.u0 - prof01.u0_pp, rtol=1e-13, atol=1e-16)


def test_eval_agrees_with_grid_and_extends(prof01):
    f = prof01.eval(prof01.xi)
    assert np.array_equal(f.u0, prof01.u0)
    assert np.array_equal(f.u0_p, prof01.u0_p)
    beyond = prof01.eval(np.array([prof01.L + 3.0, -(prof01.L + 3.0)]))
    assert np.all(np.isfinite(beyond.u0))
    assert np.all(beyond.u0 > prof01.params.k)
    assert beyond.u0[0] < prof01.u0[-1]


def test_u_max_monotone_in_speed():
    k = 0.1
    vals = [derived_constants(WaveParams(k, c)).u_max for c in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(vals) > 0.0)


def test_dc_profile_center_value_and_symmetry(prof01):
    # d/dc of the crest height: 1 - sqrt(k/c)/2
    dc = dc_profile(prof01)
    assert abs(dc[prof01.i0] - 0.8418861169915811) < 1e-9
    assert np.array_equal(dc, dc[::-1])
    assert abs(dc[-1]) < 1e-10


def test_replaced_profile_starts_fresh_caches(params01):
    # a profile rebuilt by dataclasses.replace for another wave must not
    # answer from the half-step samples of the original, and nothing
    # derived from it may be the original's
    p = solve_profile(params01, L=30.0, h=0.05)
    q = solve_profile(WaveParams(0.1, 1.2), L=30.0, h=0.05)
    mu_p = wave.half_step_samples(p, 2)["mu"]
    rate_p = evolve._norm_bound(p, 0.5)
    theta_p = kernel.kernel_basis(p, 0.5).theta1
    fields = ("params", "u0", "u0_p", "u0_pp", "u0_ppp", "u0_pppp", "mu")
    r = dataclasses.replace(p, **{name: getattr(q, name) for name in fields})
    mu_r = wave.half_step_samples(r, 2)["mu"]
    assert np.array_equal(mu_r, wave.half_step_samples(q, 2)["mu"])
    assert np.abs(mu_r - mu_p).max() > 0.1
    assert np.array_equal(dc_profile(r), dc_profile(q))
    assert evolve._norm_bound(r, 0.5) == evolve._norm_bound(q, 0.5)
    assert kernel.kernel_basis(r, 0.5).theta1 == kernel.kernel_basis(q, 0.5).theta1
    assert abs(evolve._norm_bound(r, 0.5) - rate_p) > 10.0
    assert abs(kernel.kernel_basis(r, 0.5).theta1 - theta_p) > 0.5
    with pytest.raises(ValueError):
        dataclasses.replace(p, _half_steps={})


def test_dc_profile_matches_finite_difference_route(params01):
    # second route: Richardson-refined centered differences of the DOP853
    # quadrature at speeds c +- dc, c +- dc/2, matched at crest phase
    p = solve_profile(params01, L=30.0, h=0.05)
    n = p.i0
    fd = fd_dc_w(params01, p.L, p.xi[n:])
    exact = dc_profile(p)[n:]
    assert np.abs(exact - fd).max() <= 1e-8 * np.abs(exact).max()


# k/c over the admissible region, and one pair with c != 1
ROUTE_CASES = [(0.01, 1.0), (0.05, 1.0), (0.1, 1.0), (0.2, 1.0), (0.24, 1.0),
               (0.3, 2.0)]


@pytest.mark.parametrize("k,c", ROUTE_CASES)
def test_closed_form_matches_dop853_route(k, c):
    params = WaveParams(k, c)
    L = 30.0 / derived_constants(params).r_decay
    x = np.linspace(0.0, L, 601)
    w, wp = profile_w(params, x)
    w_q, wp_q = dop853_w(params, L, x)
    assert np.abs(w / w_q - 1.0).max() <= 1e-11
    # w' vanishes at the crest; compare relative on x > 0
    assert np.abs(wp[1:] / wp_q[1:] - 1.0).max() <= 1e-11
    assert wp[0] == 0.0


@pytest.mark.parametrize("kc", [1e-16, 1e-8, 0.249999, 0.24999999])
def test_newton_converges_at_the_ends_of_the_admissible_region(kc):
    # near peakons (k -> 0) and near the small-amplitude limit (k -> c/4),
    # out to r_decay |xi| = 600
    params = WaveParams(kc, 1.0)
    d = derived_constants(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, wp = profile_w(params, np.linspace(0.0, 600.0 / d.r_decay, 4001))
    # crest w = A - B = (c - k)(c - 4k)/(A + B), free of the cancellation
    # in c - 2k - sqrt(c k) near k = c/4
    crest = (1.0 - kc) * (1.0 - 4.0 * kc) / (1.0 - 2.0 * kc + np.sqrt(kc))
    assert w[0] == pytest.approx(crest, rel=1e-13)
    assert np.all(w > 0.0) and np.all(np.diff(w) < 0.0)
    assert wp[0] == 0.0 and np.all(wp[1:] < 0.0)


def test_newton_result_independent_of_batch():
    # each point stops on its own residual, so its neighbours do not matter
    x = np.linspace(-45.0, 45.0, 9001)
    for kc in (1e-6, 1e-3, 0.1, 0.2, 0.2499):
        params = WaveParams(kc, 1.0)
        w, wp = profile_w(params, x)
        for i in range(0, x.size, 997):
            wi, wpi = profile_w(params, x[i])
            assert wi[0] == w[i] and wpi[0] == wp[i]
        w2, _ = profile_w(params, x[::-7])
        assert np.array_equal(w2, w[::-7])


@pytest.mark.parametrize("kc", [1e-6, 1e-3, 0.1, 0.2, 0.2499])
def test_newton_stop_agrees_with_ten_steps(kc, monkeypatch):
    # a point stops once its residual is within 4 rounding units of xi's
    # terms, eps (1/r + theta* + |x|); forced through all 10 steps it lands
    # within a few more units of rounding noise.  In w relative that is
    # eps (1 + r (theta* + |x|)) per unit; w' vanishes at the crest, so its
    # error is measured against max |w'|
    params = WaveParams(kc, 1.0)
    r = derived_constants(params).r_decay
    ts = wave._orbit_consts(kc, 1.0)[2]
    x = np.linspace(-30.0 / r, 30.0 / r, 6001)
    w, wp = profile_w(params, x)
    monkeypatch.setattr(wave, "_NEWTON_FLOOR", -1.0)
    w10, wp10 = profile_w(params, x)
    unit = np.finfo(float).eps * (1.0 + r * (ts + np.abs(x)))
    assert np.all(np.abs(w - w10) <= 8.0 * unit * w10)
    assert np.all(np.abs(wp - wp10) <= 32.0 * unit * np.abs(wp10).max())


def test_newton_failure_raises_solver_error(params01, monkeypatch):
    monkeypatch.setattr(wave, "_NEWTON_STEPS", 1)
    with pytest.raises(SolverError, match="did not converge"):
        solve_profile(params01)


def test_long_domain_ends_in_parameter_error(params01):
    # r_decay L ~ 800: the tail exp(-r_decay L) is below the smallest double;
    # the inversion must stop before any log(0) or division by zero
    r = derived_constants(params01).r_decay
    assert 790.0 < 980.0 * r < 810.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="underflows"):
            solve_profile(params01, L=980.0, h=10.0)
        with pytest.raises(ParameterError, match="underflows"):
            profile_w(params01, [0.0, np.inf])
        # inside the limit (r_decay L ~ 600) the far tail is finite,
        # positive and decaying
        p = solve_profile(params01, L=735.0, h=7.35)
        w, _ = profile_w(p.params, p.xi[p.i0:])
        assert np.all(np.isfinite(p.u0)) and np.all(np.isfinite(p.u0_pppp))
        assert np.all(w > 0.0) and np.all(np.diff(w) < 0.0)
