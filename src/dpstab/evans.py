"""Evans function of the linearization about the wave, by shooting.

The eigenvalue problem lambda (1 - dxx) v = dxi (4 - dxx)[(c - u0) v] - 3c dxi v
reduces to the third-order scalar form v''' = q0 v + q1 v' + q2 v'' with

    q0 = (u0''' - lambda - 4 u0') / (c - u0),
    q1 = (3 u0'' - 4 u0 + c) / (c - u0),
    q2 = (lambda + 3 u0') / (c - u0).

Right of the weighted essential spectrum the asymptotic roots s_j of the
shifted symbol split one/two across the imaginary axis; X+ is the solution
decaying at +inf, Y- the adjoint solution decaying at -inf, both
exponentially renormalized by the decaying rate s1 and anchored at their
launch ends so that D(lambda) = X+(0) . Y-(0) carries no exponential
prefactor.  D is analytic there, D(conj lambda) = conj D(lambda), and
D(0) = 0 from translation invariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _backend
from .dispersion import char_coeffs, char_roots, spectral_gap
from .wave import ParameterError, Profile, SolverError, half_step_samples

__all__ = [
    "EvansSample",
    "WindingResult",
    "evans_eval",
    "evans_batch",
    "weighted_equivalence_check",
    "winding_count",
    "circle_contour",
    "rectangle_contour",
    "keyhole_contour",
    "certify_eta",
    "write_evans_csv",
]

_SEP_TOL = 1e-8

# error control of winding counts: tolerance on e_j/|D_j|, first and finest nsub
_TAU = 1e-2
_NSUB_BASE = 1
_NSUB_CAP = 16


@dataclass(frozen=True)
class EvansSample:
    """One Evans-function value.

    renorm_exponent records the exponential magnitude -2 L Re s1 removed by
    the launch-anchored renormalization; the stored value needs no rescaling.
    """

    lam: complex
    value: complex
    renorm_exponent: float
    alpha: float


@dataclass(frozen=True)
class WindingResult:
    """Winding of D along one or more oriented loops (summed); err_ratio is the
    largest estimate e_j/|D_j| of an error-controlled count (None for a fixed
    march), nsub_max the finest nsub any node needed."""

    winding: int
    min_abs_D: float
    loops: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    alpha: float
    err_ratio: float | None = None
    nsub_max: int | None = None

    @property
    def contour(self) -> np.ndarray:
        return np.concatenate(self.loops)


def _shifted_monic(lam: complex, alpha: float, params) -> tuple:
    """Roots s_j = r_j + alpha sorted by real part, and the monic companion
    coefficients (Q2, Q1, Q0) of P(lambda, s - alpha) so that
    s^3 = Q2 s^2 + Q1 s + Q0."""
    c0, c1, c2, c3 = char_coeffs(lam, params)
    s = char_roots(lam, params) + alpha
    a = alpha
    Q2 = -(c1 - 3.0 * a * c0) / c0
    Q1 = -(c2 - 2.0 * a * c1 + 3.0 * a * a * c0) / c0
    Q0 = -(c3 - a * c2 + a * a * c1 - a ** 3 * c0) / c0
    return s, Q2, Q1, Q0


def _check_region(lam: complex, s: np.ndarray, alpha: float) -> None:
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


def _meet_index(arrays: dict, meet: float, L: float) -> tuple[int, int]:
    hs = arrays["hs"]
    n = arrays["n"]
    jd = round((L - meet) / hs)
    ja = 2 * n - jd
    if jd < 1 or ja < 1:
        raise ParameterError(f"meeting point {meet} outside the open interval (-L, L)")
    return jd, ja


def _march(arrays, tag, nsteps, lams, alpha, shifts, inits, sign, adjoint):
    p0, p1, p2, pinv = arrays[tag]
    m = 2 * nsteps + 1
    return _backend.shoot_final(p0[:m], p1[:m], p2[:m], pinv[:m], lams, alpha,
                                shifts, inits, arrays["hs"], sign, adjoint)


def _fold_conjugates(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct lambda to march, one per exact conjugate pair, and the map back.

    A lambda whose exact conjugate is also requested is represented by the
    member with Im >= 0; a lambda without a partner represents itself.
    Returns (reps, index, mirrored) with lams[i] == reps[index[i]],
    conjugated where mirrored[i]; reps keep the order of first request.
    """
    mirrored = (lams.imag < 0.0) & np.isin(lams.conj(), lams)
    slots: dict[complex, int] = {}
    index = np.array([slots.setdefault(z, len(slots))
                      for z in np.where(mirrored, lams.conj(), lams).tolist()], dtype=int)
    return np.array(list(slots), dtype=complex), index, mirrored


def _evans_march(lams: np.ndarray, profile: Profile, alpha: float, nsub: int,
                 meet: float) -> tuple[np.ndarray, np.ndarray]:
    """Evans values and renormalization exponents, marching every lambda."""
    params = profile.params
    arrays = half_step_samples(profile, nsub)
    jd, ja = _meet_index(arrays, meet, profile.L)

    B = len(lams)
    shifts = np.empty(B, dtype=complex)
    vplus = np.empty((B, 3), dtype=complex)
    wminus = np.empty((B, 3), dtype=complex)
    for i, lam in enumerate(lams):
        s, Q2, Q1, Q0 = _shifted_monic(lam, alpha, params)
        _check_region(lam, s, alpha)
        s1 = s[0]
        shifts[i] = s1
        vplus[i] = (1.0, s1, s1 * s1)
        w = np.array([s1 * s1 - Q2 * s1 - Q1, s1 - Q2, 1.0])
        norm = w @ vplus[i]
        if abs(norm) < 1e-12:
            raise ParameterError(
                f"degenerate decaying root at lambda={lam}: eigenvector normalization "
                f"|v- . v+| = {abs(norm):.2e}"
            )
        wminus[i] = w / norm

    X = _march(arrays, "desc", jd, lams, alpha, shifts, vplus, -1.0, False)
    Y = _march(arrays, "asc", ja, lams, alpha, shifts, wminus, 1.0, True)
    D = np.sum(X * Y, axis=1)
    if not np.all(np.isfinite(D)):
        bad = lams[~np.isfinite(D)][0]
        raise SolverError(f"shooting overflowed at lambda={bad}")
    return D, -2.0 * profile.L * shifts.real


def evans_batch(lams, profile: Profile, alpha: float = 0.0, nsub: int = 10,
                meet: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Evans values and renormalization exponents for a batch of lambda.

    All lambda must lie right of the alpha-weighted essential spectrum.
    Each exact conjugate pair, and each repeated lambda, is marched once:
    the member with Im >= 0 is marched and its partner gets conj(D) and the
    same exponent, since D(conj lambda) = conj D(lambda).  A marched value
    equals `evans_eval` at its lambda bit for bit, because the march treats
    each lambda independently of the batch it comes in.
    """
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"weight must satisfy 0 <= alpha < 1, got {alpha}")
    lams = np.asarray(lams, dtype=complex).ravel()
    reps, index, mirrored = _fold_conjugates(lams)
    D, ex = _evans_march(reps, profile, alpha, nsub, meet)
    D = D[index]
    D[mirrored] = D[mirrored].conj()
    return D, ex[index]


def evans_eval(lam: complex, profile: Profile, alpha: float = 0.0,
               nsub: int = 10, meet: float = 0.0) -> EvansSample:
    """Evans function at one lambda right of the weighted essential spectrum."""
    D, ex = evans_batch([lam], profile, alpha, nsub, meet)
    return EvansSample(lam=complex(lam), value=complex(D[0]),
                       renorm_exponent=float(ex[0]), alpha=float(alpha))


def weighted_equivalence_check(lam: complex, profile: Profile, alpha: float,
                               nsub: int = 10) -> float:
    """Relative difference between the alpha-conjugated and unweighted Evans
    values; analytically zero, so this measures discretization error only.

    Meaningful away from zeros of D.
    """
    da = evans_eval(lam, profile, alpha, nsub).value
    d0 = evans_eval(lam, profile, 0.0, nsub).value
    return abs(da - d0) / max(abs(d0), 1e-300)


def circle_contour(center: complex = 0.0, radius: float = 0.05, n: int = 64,
                   orientation: int = 1) -> np.ndarray:
    """Closed circular loop, counterclockwise for orientation +1.

    Node n - j sits at angle index -j, and cos/sin are exactly even/odd, so
    a circle with a real center is exactly closed under conjugation (except
    a node at angle pi, whose sine is not exactly 0).
    """
    if radius <= 0 or n < 8:
        raise ParameterError("need radius > 0 and at least 8 nodes")
    j = np.arange(n)
    th = orientation * 2.0 * np.pi * np.where(2 * j > n, j - n, j) / n
    center = complex(center)
    return (center.real + radius * np.cos(th)) + 1j * (center.imag + radius * np.sin(th))


def rectangle_contour(re_min: float, re_max: float, im_abs: float,
                      density: float = 8.0) -> np.ndarray:
    """Counterclockwise rectangle [re_min, re_max] x [-im_abs, im_abs]."""
    if re_min >= re_max or im_abs <= 0:
        raise ParameterError("degenerate rectangle")

    def side(z0, z1):
        # integer weights make mirrored sides exact conjugates of each other;
        # the corner is set exactly, since (x m)/m need not round back to x
        m = max(2, int(np.ceil(abs(z1 - z0) * density)))
        k = np.arange(m)
        z = ((z0.real * (m - k) + z1.real * k) / m
             + 1j * ((z0.imag * (m - k) + z1.imag * k) / m))
        z[0] = z0
        return z

    corners = [re_max - 1j * im_abs, re_max + 1j * im_abs,
               re_min + 1j * im_abs, re_min - 1j * im_abs]
    return np.concatenate([side(corners[i], corners[(i + 1) % 4]) for i in range(4)])


def keyhole_contour(re_min: float, re_max: float, im_abs: float,
                    hole_radius: float = 0.05, hole_center: complex = 0.0,
                    density: float = 8.0, n_circle: int = 48) -> list[np.ndarray]:
    """Rectangle with a small disc excised: returns [ccw rectangle, cw circle].

    Slit edges of the classical keyhole cancel in the winding sum, so the
    two loops are traversed separately and their windings added.
    """
    return [
        rectangle_contour(re_min, re_max, im_abs, density),
        circle_contour(hole_center, hole_radius, n_circle, orientation=-1),
    ]


def _wrap(dph: np.ndarray) -> np.ndarray:
    return (dph + np.pi) % (2.0 * np.pi) - np.pi


def _loop_winding(nodes: np.ndarray, evalf, max_passes: int) -> tuple[int, np.ndarray, np.ndarray]:
    nodes = np.asarray(nodes, dtype=complex)
    vals = evalf(nodes)
    for _ in range(max_passes):
        if np.any(np.abs(vals) < 1e-250):
            raise SolverError("contour passes through a zero of D")
        ph = np.angle(vals)
        dph = _wrap(np.diff(np.append(ph, ph[0])))
        bad = np.abs(dph) >= 0.5 * np.pi
        if not bad.any():
            total = dph.sum()
            w = int(np.round(total / (2.0 * np.pi)))
            if abs(total - 2.0 * np.pi * w) > 0.5:
                raise SolverError("phase increments do not close to a multiple of 2 pi")
            return w, nodes, vals
        mids = 0.5 * (nodes[bad] + np.roll(nodes, -1)[bad])
        mvals = evalf(mids)
        idx = np.flatnonzero(bad) + 1
        nodes = np.insert(nodes, idx, mids)
        vals = np.insert(vals, idx, mvals)
    raise SolverError(
        "contour too close to zero/essential spectrum: phase refinement did not converge"
    )


def _controlled_batch(nodes: np.ndarray, profile: Profile, alpha: float, stats: dict):
    """D at nodes: each node's D_2n at the first n = _NSUB_BASE, 2n, ... with
    e_j = |D_2n - D_n|/15 <= _TAU |D_2n|; stats keep the largest e_j/|D_j| and nsub."""
    todo, n = np.arange(len(nodes)), _NSUB_BASE
    coarse = evans_batch(nodes, profile, alpha, n)[0]
    vals, worst = np.empty_like(coarse), 0.0
    while todo.size:
        if 2 * n > _NSUB_CAP:
            raise SolverError(f"Evans error control failed at lambda={nodes[todo[0]]} and "
                              f"{todo.size - 1} more: |D_{n} - D_{n // 2}|/15 > {_TAU} |D|")
        fine = evans_batch(nodes[todo], profile, alpha, 2 * n)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(fine - coarse) / (15.0 * np.abs(fine))
        ok = ratio <= _TAU
        vals[todo[ok]] = fine[ok]
        worst = max(worst, float(ratio[ok].max(initial=0.0)))
        todo, coarse, n = todo[~ok], fine[~ok], 2 * n
    stats["err_ratio"] = max(stats["err_ratio"], worst)
    stats["nsub_max"] = max(stats["nsub_max"], n)
    return vals


def winding_count(contour, profile: Profile, alpha: float = 0.0, nsub: int | None = None,
                  max_passes: int = 14) -> WindingResult:
    """Total winding of D over one loop (array) or several loops (list).

    Refines each loop by midpoint insertion until consecutive phase steps
    are below pi/2, then sums the unwrapped increments.  By default
    (nsub=None) every node is marched at nsub 1 and 2 and kept when the RK4
    error estimate |D_2 - D_1|/15 is at most 1e-2 |D|; other nodes are
    re-marched at 2/4, 4/8, 8/16, past which SolverError is raised.  An
    integer nsub marches every node at that fixed resolution.
    """
    loops = [np.asarray(contour, dtype=complex)] if isinstance(
        contour, np.ndarray) else [np.asarray(c, dtype=complex) for c in contour]
    if not loops or any(loop.ndim != 1 or loop.size < 3 for loop in loops):
        raise ParameterError("a contour needs at least one loop of at least 3 nodes")
    stats = ({"err_ratio": 0.0, "nsub_max": _NSUB_BASE} if nsub is None
             else {"err_ratio": None, "nsub_max": nsub})

    def evalf(nodes):
        if nsub is None:
            return _controlled_batch(nodes, profile, alpha, stats)
        return evans_batch(nodes, profile, alpha, nsub)[0]

    total = 0
    out_nodes, out_vals = [], []
    for loop in loops:
        w, nodes, vals = _loop_winding(loop, evalf, max_passes)
        total += w
        out_nodes.append(nodes)
        out_vals.append(vals)
    min_abs = min(float(np.abs(v).min()) for v in out_vals)
    return WindingResult(winding=total, min_abs_D=min_abs, loops=tuple(out_nodes),
                         values=tuple(out_vals), alpha=float(alpha), **stats)


def certify_eta(profile: Profile, alpha: float, re_max: float = 2.0,
                im_abs: float = 2.0, hole_radius: float = 0.05, steps: int = 7,
                nsub: int | None = None) -> dict:
    """Largest eta, stepped in multiples of gap/8, with zero winding of D
    around [-eta, re_max] x [-im_abs, im_abs] minus a disc at the origin.

    The spectral gap bounds how far the rectangle may reach; eta certifies
    a concrete zero-free strip beyond the imaginary axis.  Each keyhole is
    counted by `winding_count` at nsub, error-controlled by default.
    """
    gap = spectral_gap(profile.params, alpha)
    certified = 0.0
    tried, windings = [], []
    for j in range(1, steps + 1):
        eta = j * gap / 8.0
        loops = keyhole_contour(-eta, re_max, im_abs,
                                hole_radius=min(hole_radius, 0.6 * eta))
        res = winding_count(loops, profile, alpha, nsub)
        tried.append(eta)
        windings.append(res.winding)
        if res.winding != 0:
            break
        certified = eta
    return {
        "alpha": float(alpha),
        "gap": float(gap),
        "certified_eta": float(certified),
        "tried": tried,
        "windings": windings,
    }


def write_evans_csv(samples: list[EvansSample], path) -> None:
    """CSV export with header re_lambda,im_lambda,re_D,im_D,renorm_exponent."""
    rows = np.array(
        [[s.lam.real, s.lam.imag, s.value.real, s.value.imag, s.renorm_exponent]
         for s in samples]
    )
    with open(path, "w") as fh:
        fh.write("re_lambda,im_lambda,re_D,im_D,renorm_exponent\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
