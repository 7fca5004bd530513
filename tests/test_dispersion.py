import numpy as np
import pytest

from dpstab import ParameterError, derived_constants
from dpstab.dispersion import (
    char_poly,
    char_roots,
    check_shifted_roots,
    ess_spectrum_curve,
    im_lambda,
    lambda_of_r,
    re_lambda,
    spectral_gap,
)


def test_curve_is_zero_set_of_char_poly(params01):
    # dual route: the explicit Re/Im formulas against the polynomial; the
    # -3kr sign variant of P does not vanish on the curve
    k, c = params01.k, params01.c
    rng = np.random.default_rng(11)
    sig = rng.uniform(-40.0, 40.0, 200)
    for alpha in (0.0, 0.3, 0.5, 1.2, 2.0):
        r = 1j * sig - alpha
        lam = re_lambda(sig, alpha, params01) + 1j * im_lambda(sig, alpha, params01)
        assert np.abs(lam - lambda_of_r(r, params01)).max() < 1e-12
        assert np.abs(char_poly(lam, r, params01)).max() < 1e-10
        minus = (lam + r * (k - c)) * (1.0 - r * r) - 3.0 * k * r
        assert np.abs(minus).max() > 1e-2


def test_decay_rates_are_roots_at_lambda_zero(params01):
    r = derived_constants(params01).r_decay
    assert abs(char_poly(0.0, r, params01)) < 1e-14
    assert abs(char_poly(0.0, -r, params01)) < 1e-14


def test_char_roots_ordered_and_conjugate_symmetric(params01):
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = complex(rng.normal(), rng.normal())
        rts = char_roots(lam, params01)
        assert np.all(np.diff(rts.real) > -1e-12)
        assert np.abs(char_poly(lam, rts, params01)).max() < 1e-10
        conj = char_roots(np.conj(lam), params01)
        assert np.abs(np.sort_complex(conj) - np.sort_complex(rts.conj())).max() < 1e-9


# the spectrum subcommand's default window, --sigma-max 40 and --n 2001
SIGMA = np.linspace(-40.0, 40.0, 2001)


def test_curve_frozen_values(params01):
    lam = ess_spectrum_curve(params01, 0.5, SIGMA)
    assert abs(lam.real.max() + 0.25) < 1e-10
    i0 = len(SIGMA) // 2
    assert SIGMA[i0] == 0.0
    assert abs(lam[i0] - (-0.25)) < 1e-12

    ac = derived_constants(params01).alpha_crit
    crit = ess_spectrum_curve(params01, ac, SIGMA)
    assert crit.real.max() <= 1e-12
    assert crit.real.max() > -1e-10

    far = lambda_of_r(1j * 1e6 - 0.5, params01)
    assert abs(far.real + 0.5 * 0.9) < 1e-9

    heavy = ess_spectrum_curve(params01, 1.2, SIGMA)
    assert heavy.real.max() < -1.08


def test_curve_conjugate_symmetry(params01):
    lam = ess_spectrum_curve(params01, 0.4, SIGMA)
    assert np.abs(lam - np.conj(lam[::-1])).max() < 1e-12


def test_singular_weight_rejected(params01):
    with pytest.raises(ParameterError):
        ess_spectrum_curve(params01, 1.0, SIGMA)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, [0.0, -np.inf]],
                         ids=["nan", "inf", "array-minus-inf"])
def test_non_finite_sigma_rejected(params01, sigma):
    with pytest.raises(ParameterError, match="finite"):
        ess_spectrum_curve(params01, 0.5, sigma)


def test_spectral_gap_values(params01):
    assert spectral_gap(params01, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert spectral_gap(params01, 1.2) == pytest.approx(1.08, abs=1e-12)
    ac = derived_constants(params01).alpha_crit
    assert spectral_gap(params01, ac * (1.0 - 1e-8)) < 1e-6


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.0, 0.9])
def test_spectral_gap_domain_errors(params01, alpha):
    with pytest.raises(ParameterError):
        spectral_gap(params01, alpha)


def test_gap_marginal_band_boundary(params01):
    ac = derived_constants(params01).alpha_crit
    with pytest.raises(ParameterError):
        spectral_gap(params01, ac)


def _shifted(lam, alpha, params):
    s = char_roots(lam, params) + alpha
    check_shifted_roots(lam, alpha, s)
    return s.real


def test_classify_roots_splits(params01):
    # the sign split of the shifted roots, judged by the one rule
    for lam, alpha in ((4.0, 0.0), (0.0, 0.5)):
        re = _shifted(lam, alpha, params01)
        assert re[0] < -1e-9 < 1e-9 < re[1]
    # the center root on the axis is allowed: at alpha = 0 the rule holds
    # up to the curve, which passes through lambda = 0
    re = _shifted(0.0, 0.0, params01)
    assert re[0] < -1e-9 and abs(re[1]) <= 1e-9 and re[2] > 1e-9
    # left of the alpha = 0.5 spectrum two roots decay; at lambda = -1 they
    # are a conjugate pair with one real part
    with pytest.raises(ParameterError, match="not right of the weighted essential"):
        _shifted(-2.0, 0.5, params01)
    with pytest.raises(ParameterError, match="near-essential-spectrum"):
        _shifted(-1.0, 0.5, params01)


def test_root_split_constant_right_of_spectrum(params01):
    # boundary of a rectangle in the resolvent component right of the
    # alpha = 0.5 essential spectrum
    edge = np.concatenate(
        [
            -0.2 + 1j * np.linspace(-2, 2, 21),
            2.0 + 1j * np.linspace(-2, 2, 21),
            np.linspace(-0.2, 2, 21) + 2j,
            np.linspace(-0.2, 2, 21) - 2j,
        ]
    )
    for lam in edge:
        if abs(lam) < 1e-9:
            continue
        re = _shifted(lam, 0.5, params01)
        assert re[0] < -1e-9 < 1e-9 < re[1]


def test_large_lambda_root_asymptotics(params01):
    lam = 200.0
    rts = char_roots(lam, params01)
    k, c = params01.k, params01.c
    assert abs(rts[-1] - lam / (c - k)) < 0.1
    assert min(abs(rts[0] + 1.0), abs(rts[0] - 1.0)) < 0.05
    assert min(abs(rts[1] + 1.0), abs(rts[1] - 1.0)) < 0.05
