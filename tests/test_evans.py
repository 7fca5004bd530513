import numpy as np
import pytest

from dpstab import _backend, evans, lax
from dpstab.dispersion import spectral_gap
from dpstab.wave import (ParameterError, SolverError, WaveParams, half_step_samples,
                         solve_profile)

# regression anchor, first simple zero is well right of lambda = 1
D_ONE_UNWEIGHTED = 0.20436288257374657


def test_translation_zero(prof01):
    s = evans.evans_eval(0.0, prof01, alpha=0.5)
    assert abs(s.value) < 1e-6
    assert abs(s.value) < 1e-10
    assert s.renorm_exponent > 0


def test_nonzero_away_from_origin(prof01):
    s = evans.evans_eval(1.0, prof01, alpha=0.0)
    assert abs(s.value) > 1e-4
    assert abs(s.value - D_ONE_UNWEIGHTED) < 1e-10


def test_conjugate_symmetry(prof01):
    for lam in (0.3 + 0.2j, 1.1 - 0.7j, 0.05 + 1.9j):
        a = evans.evans_eval(lam, prof01, alpha=0.5).value
        b = evans.evans_eval(np.conj(lam), prof01, alpha=0.5).value
        assert abs(a - np.conj(b)) <= 1e-10 * abs(a)


def test_weighted_equivalence(prof01):
    assert evans.weighted_equivalence_check(0.5, prof01, 0.5) < 1e-8
    assert evans.weighted_equivalence_check(2j * (1 + 1e-3), prof01, 0.5) < 1e-6
    assert evans.weighted_equivalence_check(0.5, prof01, 0.0) == 0.0


def _fixed_march_agrees(res, contour, prof):
    """The nsub=10 count of contour, after checking that the error-controlled
    result res agrees with it."""
    fixed = evans.winding_count(contour, prof, 0.5, nsub=10)
    assert fixed.winding == res.winding
    assert abs(res.min_abs_D - fixed.min_abs_D) <= 1e-6 * fixed.min_abs_D
    assert res.err_ratio <= 1e-2 and res.nsub_max == 2
    assert fixed.err_ratio is None and fixed.nsub_max == 10
    return fixed


def test_winding_small_circle(prof01):
    loop = evans.circle_contour(0.0, 0.05, 64)
    res = evans.winding_count(loop, prof01, alpha=0.5)
    assert res.winding == 2
    assert res.min_abs_D > 0
    assert len(res.values) == 1 and len(res.values[0]) == len(res.loops[0])
    fixed = _fixed_march_agrees(res, loop, prof01)
    D10 = evans.evans_batch(fixed.loops[0], prof01, 0.5, nsub=10)[0]
    assert np.array_equal(fixed.values[0], D10)


def test_winding_keyhole(prof01, params01):
    gap = spectral_gap(params01, 0.5)
    loops = evans.keyhole_contour(-gap / 2, 2.0, 2.0, hole_radius=0.05)
    res = evans.winding_count(loops, prof01, alpha=0.5)
    assert res.winding == 0
    assert len(res.loops) == 2
    assert res.contour.shape[0] == sum(len(l) for l in res.loops)
    _fixed_march_agrees(res, loops, prof01)


@pytest.mark.parametrize("contour", [
    [], np.array([]), np.array([0.1 + 0.1j]),
    [evans.circle_contour(1.0, 0.1, 8), np.array([0.5, 0.6])],
])
def test_degenerate_contour_rejected(prof01, contour):
    with pytest.raises(ParameterError, match="at least 3 nodes"):
        evans.winding_count(contour, prof01, 0.5)


def _perturb_node(monkeypatch, node, bump):
    """Make evans_batch return D (1 + bump(nsub)) at node; records (nsub, B)."""
    batch = evans.evans_batch
    calls = []

    def perturbed(lams, profile, alpha, nsub, *rest):
        D, ex = batch(lams, profile, alpha, nsub, *rest)
        calls.append((nsub, len(lams)))
        D[np.asarray(lams) == node] *= 1.0 + bump(nsub)
        return D, ex

    monkeypatch.setattr(evans, "evans_batch", perturbed)
    return calls


def test_error_control_remarches_a_bad_node(prof01, monkeypatch):
    # a coarse value off by 0.5 |D| gives e = 0.5 |D| / 15 > 1e-2 |D|
    loop = evans.circle_contour(0.0, 0.05, 64)
    calls = _perturb_node(monkeypatch, loop[5], lambda nsub: 0.5 if nsub == 1 else 0.0)
    res = evans.winding_count(loop, prof01, 0.5)
    assert res.winding == 2
    assert res.nsub_max == 4 and res.err_ratio <= 1e-2
    assert calls == [(1, 64), (2, 64), (4, 1)]


def test_error_control_failure_returns_no_count(prof01, monkeypatch):
    # values that do not converge as nsub grows fail at every level
    loop = evans.circle_contour(0.0, 0.05, 64)
    calls = _perturb_node(monkeypatch, loop[5], lambda nsub: 0.3 * nsub)
    with pytest.raises(SolverError, match="error control failed"):
        evans.winding_count(loop, prof01, 0.5)
    assert [c[0] for c in calls] == [1, 2, 4, 8, 16]


def test_winding_away_from_zero(prof01):
    res = evans.winding_count(evans.circle_contour(1.0, 0.1, 32), prof01, alpha=0.0)
    assert res.winding == 0


def test_certify_eta(prof01):
    cert = evans.certify_eta(prof01, 0.5)
    assert cert["windings"] == [0] * 7
    assert abs(cert["certified_eta"] - 7 * cert["gap"] / 8) < 1e-12


def test_cauchy_riemann(prof01):
    lam, h = 0.8 + 0.3j, 1e-4
    ev = lambda z: evans.evans_eval(z, prof01, 0.5).value
    dx = (ev(lam + h) - ev(lam - h)) / (2 * h)
    dy = (ev(lam + 1j * h) - ev(lam - 1j * h)) / (2j * h)
    assert abs(dx - dy) / abs(dx) < 1e-5


def test_domain_robustness(params01, prof01):
    prof50 = solve_profile(params01, L=50.0)
    for lam in (0.5, 0.3 + 2.0j, 1.5 - 1.2j):
        a = evans.evans_eval(lam, prof01, 0.5).value
        b = evans.evans_eval(lam, prof50, 0.5).value
        assert abs(a - b) <= 1e-6 * abs(a)


def test_scale_covariance(prof01):
    # (k, c) -> (beta k, beta c) with lambda -> beta lambda leaves D unchanged
    prof2 = solve_profile(WaveParams(0.2, 2.0))
    for lam in (0.5, 0.3 + 0.4j):
        a = evans.evans_eval(lam, prof01, 0.25).value
        b = evans.evans_eval(2 * lam, prof2, 0.25).value
        assert abs(a - b) <= 1e-8 * abs(a)


def test_meet_point_invariance(prof01):
    base = evans.evans_eval(0.7 + 0.1j, prof01, 0.5).value
    for meet in (2.5, -3.0, 10.0):
        d = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, meet=meet).value
        assert abs(d - base) <= 1e-9 * abs(base)
    with pytest.raises(ParameterError):
        evans.evans_eval(0.5, prof01, 0.5, meet=prof01.L)


def test_step_refinement(prof01):
    d8 = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=8).value
    d14 = evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=14).value
    assert abs(d8 - d14) <= 1e-8 * abs(d8)


def test_rejects_left_of_spectrum(prof01):
    with pytest.raises(ParameterError):
        evans.evans_eval(-0.5, prof01, alpha=0.0)
    with pytest.raises(ParameterError):
        evans.evans_eval(-0.3, prof01, alpha=0.5)
    with pytest.raises(ParameterError):
        evans.evans_eval(0.5, prof01, alpha=1.0)


def test_batch_matches_single(prof01):
    # 20 lambda, more than one vectorized group of the former product march,
    # with no exact conjugate pair among them
    lams = [0.4, 0.9 + 0.2j, 1.6 - 0.8j]
    lams += list(0.3 + 1.4 * np.exp(0.07j * np.arange(1, 18)))
    D, ex = evans.evans_batch(lams, prof01, 0.5)
    for lam, d, e in zip(lams, D, ex):
        s = evans.evans_eval(lam, prof01, 0.5)
        assert d == s.value
        assert e == s.renorm_exponent


def _rhs_np(i, p0, p1, p2, pinv, lams, alpha, shifts, y, sign, adjoint):
    """Vectorized right-hand side at sample index i; y has shape (B, 3)."""
    q0 = p0[i] - lams * pinv[i]
    q1 = p1[i]
    q2 = p2[i] + lams * pinv[i]
    a = alpha
    Q0 = q0 - a * q1 + a * a * q2 + a * a * a
    Q1 = q1 - 2.0 * a * q2 - 3.0 * a * a
    Q2 = q2 + 3.0 * a
    f = np.empty_like(y)
    if adjoint:
        f[:, 0] = -Q0 * y[:, 2] + shifts * y[:, 0]
        f[:, 1] = -y[:, 0] - Q1 * y[:, 2] + shifts * y[:, 1]
        f[:, 2] = -y[:, 1] + (shifts - Q2) * y[:, 2]
    else:
        f[:, 0] = y[:, 1] - shifts * y[:, 0]
        f[:, 1] = y[:, 2] - shifts * y[:, 1]
        f[:, 2] = Q0 * y[:, 0] + Q1 * y[:, 1] + (Q2 - shifts) * y[:, 2]
    return sign * f


def shoot_final_stepwise(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """Reference march: four vectorized RHS calls per RK4 step, final states (B, 3).

    Slow (a Python loop over steps) but transparent; `_backend.shoot_final`
    and `_backend.shoot_traj` are checked against it.
    """
    nstep = (p0.shape[0] - 1) // 2
    y = np.array(y0s, dtype=np.complex128, copy=True)
    h6 = hs / 6.0
    for j in range(nstep):
        i = 2 * j
        k1 = _rhs_np(i, p0, p1, p2, pinv, lams, alpha, shifts, y, sign, adjoint)
        k2 = _rhs_np(i + 1, p0, p1, p2, pinv, lams, alpha, shifts, y + 0.5 * hs * k1, sign, adjoint)
        k3 = _rhs_np(i + 1, p0, p1, p2, pinv, lams, alpha, shifts, y + 0.5 * hs * k2, sign, adjoint)
        k4 = _rhs_np(i + 2, p0, p1, p2, pinv, lams, alpha, shifts, y + hs * k3, sign, adjoint)
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _launch(lams, alpha, params):
    """Launch roots and decaying eigenvectors of the forward march."""
    shifts = np.empty(len(lams), dtype=complex)
    inits = np.empty((len(lams), 3), dtype=complex)
    for i, lam in enumerate(lams):
        s, *_ = evans._shifted_monic(lam, alpha, params)
        shifts[i] = s[0]
        inits[i] = (1.0, s[0], s[0] ** 2)
    return shifts, inits


def test_propagator_march_matches_stepwise(prof01):
    # the march solves for the states of RK4 step maps; the stepwise
    # loop applies the same RK4 steps to the vectors one at a time
    arrays = half_step_samples(prof01, 10)
    # 700 steps ending at xi = 0, where the coefficients vary and the step
    # maps do not commute
    m = 2 * 700 + 1
    lo = 2 * arrays["n"] - (m - 1)
    lams = np.array([0.5 + 0.0j, 0.7 + 0.1j, 1.3 - 0.9j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[lo:lo + m] for a in arrays[tag])
        args = (p0, p1, p2, pinv, lams, 0.5, shifts, inits, arrays["hs"], sign, adjoint)
        a = _backend.shoot_final(*args)
        b = shoot_final_stepwise(*args)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        traj = _backend.shoot_traj(p0, p1, p2, pinv, lams[1], 0.5, shifts[1],
                                   inits[1], arrays["hs"], sign, adjoint)
        assert traj.shape == (701, 3)
        assert np.array_equal(traj[0], inits[1])
        assert np.max(np.abs(traj[-1] - b[1])) <= 1e-12 * np.max(np.abs(b[1]))


def test_long_chunks_match_stepwise(prof01, monkeypatch):
    # the full half-domain at nsub=1 is 2000 steps; 512-step solve chunks
    # make it three full chunks and a partial one.  lambda sits at the
    # contour corners where |lambda| is largest and where the rectangle
    # reaches left of the imaginary axis
    monkeypatch.setattr(_backend, "_STEPS", 512)
    arrays = half_step_samples(prof01, 1)
    m = 2 * arrays["n"] + 1
    lams = np.array([2.0 + 2.0j, -0.06 + 2.0j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[:m] for a in arrays[tag])
        args = (p0, p1, p2, pinv, lams, 0.5, shifts, inits, arrays["hs"], sign, adjoint)
        a = _backend.shoot_final(*args)
        b = shoot_final_stepwise(*args)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        for i in range(len(lams)):
            traj = _backend.shoot_traj(p0, p1, p2, pinv, lams[i], 0.5, shifts[i],
                                       inits[i], arrays["hs"], sign, adjoint)
            # one march serves both entry points
            assert np.array_equal(traj[-1], a[i])
            # the march forms only the states y_j; the shift by the launch
            # root keeps them bounded (measured max_j |y_j| / |y_0| = 1.12)
            growth = np.max(np.linalg.norm(traj, axis=1)) / np.linalg.norm(inits[i])
            assert growth < 10.0


def test_batch_march_equals_single_marches(prof01):
    # every march of a shoot_final call reuses one band and state buffer
    arrays = half_step_samples(prof01, 1)
    m = 2 * arrays["n"] + 1
    lams = np.array([0.05, 0.3 + 0.2j, 2.0 + 2.0j, -0.06 + 2.0j, 1.1 - 0.7j])
    shifts, inits = _launch(lams, 0.5, prof01.params)
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        coef = [a[:m] for a in arrays[tag]]
        rest = (arrays["hs"], sign, adjoint)
        batch = _backend.shoot_final(*coef, lams, 0.5, shifts, inits, *rest)
        for i in range(len(lams)):
            one = slice(i, i + 1)
            alone = _backend.shoot_final(*coef, lams[one], 0.5, shifts[one], inits[one], *rest)
            assert np.array_equal(batch[i], alone[0])


def test_traj_prefix_matches_stepwise(prof01):
    # traj[k] is the state after k steps, across the default chunk boundary
    arrays = half_step_samples(prof01, 10)
    lam = np.array([0.7 + 0.1j])
    shifts, inits = _launch(lam, 0.5, prof01.params)
    assert _backend._STEPS < 2500
    for tag, sign, adjoint in (("desc", -1.0, False), ("asc", 1.0, True)):
        p0, p1, p2, pinv = (a[:2 * 2500 + 1] for a in arrays[tag])
        traj = _backend.shoot_traj(p0, p1, p2, pinv, lam[0], 0.5, shifts[0],
                                   inits[0], arrays["hs"], sign, adjoint)
        for k in (1, 7, _backend._STEPS, 2500):
            m = 2 * k + 1
            b = shoot_final_stepwise(p0[:m], p1[:m], p2[:m], pinv[:m], lam, 0.5,
                                     shifts, inits, arrays["hs"], sign, adjoint)
            assert np.max(np.abs(traj[k] - b[0])) <= 1e-12 * np.max(np.abs(b[0]))


def test_ascending_arrays_mirror(prof01):
    # oracle: the direct evaluation at the ascending points -L + j hs/2
    c = prof01.params.c
    for nsub in (1, 10):
        arrays = half_step_samples(prof01, nsub)
        hs, n = arrays["hs"], arrays["n"]
        f = prof01.eval(-prof01.L + 0.5 * hs * np.arange(4 * n + 1))
        cmu = c - f.u0
        direct = ((f.u0_ppp - 4.0 * f.u0_p) / cmu,
                  (3.0 * f.u0_pp - 4.0 * f.u0 + c) / cmu,
                  3.0 * f.u0_p / cmu,
                  1.0 / cmu)
        for got, want in zip(arrays["asc"], direct):
            assert np.array_equal(got, want)


def test_nsub_must_be_integer_at_least_one(prof01, params01):
    sigma = 1.2
    l_plus = lax.l_roots(params01.k * sigma)[0]
    for bad in (0, 1.5):
        with pytest.raises(ParameterError, match="nsub"):
            evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=bad)
        with pytest.raises(ParameterError, match="nsub"):
            evans.winding_count(evans.circle_contour(1.0, 0.05, 8), prof01, 0.5, nsub=bad)
        with pytest.raises(ParameterError, match="nsub"):
            lax.lax_solve(sigma, prof01, l_plus, "+", nsub=bad)
    # numpy integers are integers
    assert (evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=np.int64(1)).value
            == evans.evans_eval(0.7 + 0.1j, prof01, 0.5, nsub=1).value)


def test_conjugate_pairs_marched_once(prof01, monkeypatch):
    # lam2 shares lam's real part but is not its conjugate
    lam, lam2 = 0.7 + 0.3j, 0.7 - 0.5j
    lams = [lam, np.conj(lam), 0.9, lam2]
    marched = []
    shoot = _backend.shoot_final

    def counting(p0, p1, p2, pinv, lams, *rest):
        marched.append(np.array(lams))
        return shoot(p0, p1, p2, pinv, lams, *rest)

    monkeypatch.setattr(_backend, "shoot_final", counting)
    D, ex = evans.evans_batch(lams, prof01, 0.5)
    # two marches (forward and adjoint), each over the 3 representatives
    assert len(marched) == 2
    for cols in marched:
        assert np.array_equal(cols, [lam, 0.9, lam2])
    assert D[1] == np.conj(D[0]) and ex[1] == ex[0]
    monkeypatch.undo()
    for i in (0, 2, 3):
        s = evans.evans_eval(lams[i], prof01, 0.5)
        assert D[i] == s.value and ex[i] == s.renorm_exponent
    direct = evans.evans_eval(np.conj(lam), prof01, 0.5).value
    assert abs(D[1] - direct) <= 1e-13 * abs(direct)


def _marched_columns(nodes, prof, monkeypatch):
    """Columns the forward march receives for one evans_batch call."""
    cols = []

    def stub(p0, p1, p2, pinv, lams, alpha, shifts, y0s, *rest):
        cols.append(len(lams))
        return np.ones((len(lams), 3), dtype=complex)

    monkeypatch.setattr(_backend, "shoot_final", stub)
    evans.evans_batch(nodes, prof, 0.5)
    monkeypatch.undo()
    return cols[0]


def test_contours_conjugate_closed(prof01, params01, monkeypatch):
    def unpaired(z):
        nodes = set(z.tolist())
        return [i for i, x in enumerate(z.tolist()) if x.conjugate() not in nodes]

    # same nodes, order and orientation as center + radius exp(i theta)
    for center, n, orient in ((0.0, 64, 1), (0.3, 33, 1), (0.02 + 0.01j, 48, -1)):
        z = evans.circle_contour(center, 0.05, n, orient)
        th = orient * 2.0 * np.pi * np.arange(n) / n
        assert np.max(np.abs(z - (center + 0.05 * np.exp(1j * th)))) <= 1e-16
    # a real center: only the node at angle pi (even n) has no exact partner
    assert unpaired(evans.circle_contour(0.0, 0.05, 64)) == [32]
    assert unpaired(evans.circle_contour(0.3, 0.05, 33)) == []
    gap = spectral_gap(params01, 0.5)
    rect, hole = evans.keyhole_contour(-gap / 2.0, 2.0, 2.0, hole_radius=0.05)
    assert unpaired(rect) == []
    assert unpaired(evans.rectangle_contour(-0.1, 1.7, 0.3, density=5.0)) == []
    assert unpaired(hole) == [24]
    # marched: the real nodes (theta = 0 on the circle, the midpoints of the
    # rectangle's vertical sides), the node at pi and one per conjugate pair
    assert _marched_columns(evans.circle_contour(0.0, 0.05, 64), prof01, monkeypatch) == 33
    assert _marched_columns(rect, prof01, monkeypatch) == len(rect) // 2 + 1
    off_axis = evans.circle_contour(0.003 + 0.004j, 0.05, 64)
    assert _marched_columns(off_axis, prof01, monkeypatch) == 64


def test_csv_roundtrip(tmp_path, prof01):
    samples = [evans.evans_eval(lam, prof01, 0.5) for lam in (0.4, 0.9 + 0.2j)]
    path = tmp_path / "evans.csv"
    evans.write_evans_csv(samples, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_lambda,im_lambda,re_D,im_D,renorm_exponent"
    row = [float(t) for t in lines[2].split(",")]
    assert row[0] == 0.9 and row[1] == 0.2
    assert abs(complex(row[2], row[3]) - samples[1].value) < 1e-15
