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

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _backend
from .dispersion import char_roots, check_shifted_roots, spectral_gap
from .wave import ParameterError, Profile, SolverError, check_samples, half_step_samples

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
]

# error control of winding counts: tolerance on e/|D_n|, first kept and finest nsub
_TAU = 1e-2
_NSUB_BASE = 1
_NSUB_CAP = 16
# refinement passes per loop, nodes on a keyhole's disc, and certify_eta's
# keyholes [-eta, 2] x [-2, 2] minus a disc of radius <= 0.05 in 7 eta steps
_MAX_PASSES = 14
_HOLE_NODES = 48
_CERT_RE_MAX, _CERT_IM_ABS, _CERT_HOLE, _CERT_STEPS = 2.0, 2.0, 0.05, 7


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
    largest error estimate e/|D_n| of the count, which bounds the
    unextrapolated D_n, and nsub_max the finest nsub any node needed (1 when
    the first check sufficed)."""

    winding: int
    min_abs_D: float
    loops: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    alpha: float
    err_ratio: float
    nsub_max: int


@lru_cache(maxsize=4096)
def _launch(lam: complex, alpha: float, params) -> tuple:
    """Decaying shifted root s1 and the launch vectors of X+ and Y- at lambda:
    with s1, s2, s3 sorted by real part, v = (1, s1, s1^2) and w = (s2 s3,
    -(s2 + s3), 1) / ((s1 - s2)(s1 - s3)) are the right and left eigenvectors
    of the shifted companion matrix at s1 with w . v = 1.  Memoized, as error
    control marches each node at several nsub."""
    s = char_roots(lam, params) + alpha
    check_shifted_roots(lam, alpha, s)
    s1, s2, s3 = s
    v = np.array([1.0, s1, s1 * s1])
    w = np.array([s2 * s3, -(s2 + s3), 1.0])
    norm = (s1 - s2) * (s1 - s3)
    if abs(norm) < 1e-12:
        raise ParameterError(
            f"degenerate decaying root at lambda={lam}: eigenvector normalization "
            f"|v- . v+| = {abs(norm):.2e}"
        )
    return s1, v, w / norm


def _meet_index(arrays: dict, meet: float, L: float, stride: int) -> tuple[int, int]:
    """Steps of the descending and ascending marches at step stride * hs: to the
    node nearest meet, or for stride 2 to the coarse node at or just above it."""
    jd = round((L - meet) / arrays["hs"]) // stride
    ja = 2 * arrays["n"] // stride - jd
    if jd < 1 or ja < 1:
        raise ParameterError(f"meeting point {meet} outside the open interval (-L, L)")
    return jd, ja


def _fold_conjugates(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct lambda to march, one per exact conjugate pair, and the map back.

    A lambda whose exact conjugate is also requested is represented by the
    member with Im >= 0; a lambda without a partner represents itself.
    Returns (reps, index, mirrored) with lams[i] == reps[index[i]],
    conjugated where mirrored[i]; reps keep the order of first request.
    """
    # a set lookup, not np.isin: that goes through np.unique, which imports numpy.ma
    present = set(lams.tolist())
    mirrored = np.array([z.imag < 0.0 and z.conjugate() in present for z in lams.tolist()],
                        dtype=bool)
    slots: dict[complex, int] = {}
    index = np.array([slots.setdefault(z, len(slots))
                      for z in np.where(mirrored, lams.conj(), lams).tolist()], dtype=int)
    return np.array(list(slots), dtype=complex), index, mirrored


def evans_batch(lams, profile: Profile, alpha: float = 0.0, nsub: int = 10,
                meet: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Evans values and renormalization exponents for a batch of lambda.

    Weights: 0 <= alpha < 1 and `check_shifted_roots` at every lambda, which
    allows a root on the axis, so alpha = 0 is defined up to the curve.
    Each exact conjugate pair, and each repeated lambda, is marched once:
    the member with Im >= 0 is marched and its partner gets conj(D) and the
    same exponent, since D(conj lambda) = conj D(lambda).  A marched value
    equals `evans_eval` at its lambda bit for bit, because the march treats
    each lambda independently of the batch it comes in.
    """
    return _march(lams, profile, alpha, nsub, meet, 1)


def _march(lams, profile: Profile, alpha: float, nsub: int, meet: float,
           stride: int) -> tuple[np.ndarray, np.ndarray]:
    """`evans_batch` at step stride * h / nsub, marched over every stride-th
    half-step sample at nsub, so stride 2 evaluates no new profile points."""
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"weight must satisfy 0 <= alpha < 1, got {alpha}")
    reps, index, mirrored = _fold_conjugates(np.asarray(lams, dtype=complex).ravel())
    arrays = half_step_samples(profile, nsub)
    jd, ja = _meet_index(arrays, meet, profile.L, stride)
    hs = stride * arrays["hs"]
    B = len(reps)
    shifts = np.empty(B, dtype=complex)
    vplus = np.empty((B, 3), dtype=complex)
    wminus = np.empty((B, 3), dtype=complex)
    for i, lam in enumerate(reps):
        shifts[i], vplus[i], wminus[i] = _launch(lam, alpha, profile.params)
    # X+ marched down from +L and Y- up from -L, each to the meeting point
    X = _backend.shoot_final(*(p[:2 * stride * jd + 1:stride] for p in arrays["desc"]),
                             reps, alpha, shifts, vplus, hs, -1.0, False)
    Y = _backend.shoot_final(*(p[:2 * stride * ja + 1:stride] for p in arrays["asc"]),
                             reps, alpha, shifts, wminus, hs, 1.0, True)
    D = np.sum(X * Y, axis=1)
    if not np.all(np.isfinite(D)):
        raise SolverError(f"shooting overflowed at lambda={reps[~np.isfinite(D)][0]}")
    D = D[index]
    D[mirrored] = D[mirrored].conj()
    return D, (-2.0 * profile.L * shifts.real)[index]


def evans_eval(lam: complex, profile: Profile, alpha: float = 0.0,
               nsub: int = 10, meet: float = 0.0) -> EvansSample:
    """Evans function at one lambda right of the weighted essential spectrum.
    Weights: as `evans_batch`, 0 <= alpha < 1 and `check_shifted_roots`."""
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
    try:
        n = operator.index(n)
    except TypeError:
        raise ParameterError(f"the circle needs an integer node count, got {n!r}") from None
    if not (np.isfinite(center) and 0 < radius < np.inf and n >= 8):
        raise ParameterError("need a finite center, finite radius > 0 and n >= 8 nodes")
    check_samples(n, "the circle")
    j = np.arange(n)
    th = orientation * 2.0 * np.pi * np.where(2 * j > n, j - n, j) / n
    center = complex(center)
    return (center.real + radius * np.cos(th)) + 1j * (center.imag + radius * np.sin(th))


def rectangle_contour(re_min: float, re_max: float, im_abs: float,
                      density: float = 8.0) -> np.ndarray:
    """Counterclockwise rectangle [re_min, re_max] x [-im_abs, im_abs]."""
    if not np.all(np.isfinite([re_min, re_max, im_abs])):
        raise ParameterError("rectangle edges must be finite")
    if re_min >= re_max or im_abs <= 0:
        raise ParameterError("degenerate rectangle")
    if not 0 < density < np.inf:
        raise ParameterError(f"density must be finite and positive, got {density}")
    check_samples(2.0 * (re_max - re_min + 2.0 * im_abs) * density, "the rectangle")

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
                    density: float = 8.0) -> list[np.ndarray]:
    """Rectangle with a small disc excised: [ccw rectangle, cw circle of 48 nodes].

    Slit edges of the classical keyhole cancel in the winding sum, so the
    two loops are traversed separately and their windings added.
    """
    return [
        rectangle_contour(re_min, re_max, im_abs, density),
        circle_contour(hole_center, hole_radius, _HOLE_NODES, orientation=-1),
    ]


def _wrap(dph: np.ndarray) -> np.ndarray:
    return (dph + np.pi) % (2.0 * np.pi) - np.pi


def _loop_winding(nodes: np.ndarray, profile: Profile, alpha: float,
                  stats: dict) -> tuple[int, np.ndarray, np.ndarray]:
    nodes = np.asarray(nodes, dtype=complex)
    vals = _controlled_batch(nodes, profile, alpha, stats)
    for _ in range(_MAX_PASSES):
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
        mvals = _controlled_batch(mids, profile, alpha, stats)
        idx = np.flatnonzero(bad) + 1
        nodes = np.insert(nodes, idx, mids)
        vals = np.insert(vals, idx, mvals)
    raise SolverError(
        "contour too close to zero/essential spectrum: phase refinement did not converge"
    )


def _controlled_batch(nodes: np.ndarray, profile: Profile, alpha: float, stats: dict):
    """D at nodes by step doubling: at n = 1, 2, 4, ... each node's D_n is checked
    against D_n/2 (at n = 1 the march at step 2h over the nsub-1 samples) and
    the node keeps D_n + (D_n - D_n/2)/15 once e = |D_n - D_n/2|/15 <= _TAU |D_n|;
    stats keep the largest e/|D_n| and the finest n."""
    todo, n = np.arange(len(nodes)), _NSUB_BASE
    coarse = _march(nodes, profile, alpha, n, 0.0, 2)[0]
    vals, worst = np.empty_like(coarse), 0.0
    while True:
        fine = evans_batch(nodes[todo], profile, alpha, n)[0]
        diff = (fine - coarse) / 15.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(diff) / np.abs(fine)
        ok = ratio <= _TAU
        vals[todo[ok]] = fine[ok] + diff[ok]
        worst = max(worst, float(ratio[ok].max(initial=0.0)))
        todo, coarse = todo[~ok], fine[~ok]
        if not todo.size:
            break
        if 2 * n > _NSUB_CAP:
            raise SolverError(f"Evans error control failed at lambda={nodes[todo[0]]} and "
                              f"{todo.size - 1} more: |D_{n} - D_{n / 2:g}|/15 > {_TAU} |D_{n}|")
        n *= 2
    stats["err_ratio"] = max(stats["err_ratio"], worst)
    stats["nsub_max"] = max(stats["nsub_max"], n)
    return vals


def winding_count(contour, profile: Profile, alpha: float = 0.0) -> WindingResult:
    """Total winding of D over one loop (array) or several loops (list).

    Refines each loop by midpoint insertion, at most 14 passes, until phase
    steps are below pi/2, then sums the unwrapped increments.  Every node is
    marched at step 2h and h (nsub 1) on the profile grid, and keeps the
    Richardson value D_1 + (D_1 - D_1/2)/15 when the RK4 error estimate
    |D_1 - D_1/2|/15 is at most 1e-2 |D_1|; other nodes climb to nsub 2/1,
    4/2, 8/4, 16/8, past which SolverError is raised.
    Weights: as `evans_batch`, 0 <= alpha < 1 and `check_shifted_roots`.
    """
    loops = [np.asarray(contour, dtype=complex)] if isinstance(
        contour, np.ndarray) else [np.asarray(c, dtype=complex) for c in contour]
    if not loops or any(loop.ndim != 1 or loop.size < 3 for loop in loops):
        raise ParameterError("a contour needs at least one loop of at least 3 nodes")
    stats = {"err_ratio": 0.0, "nsub_max": _NSUB_BASE}
    total = 0
    out_nodes, out_vals = [], []
    for loop in loops:
        w, nodes, vals = _loop_winding(loop, profile, alpha, stats)
        total += w
        out_nodes.append(nodes)
        out_vals.append(vals)
    min_abs = min(float(np.abs(v).min()) for v in out_vals)
    return WindingResult(winding=total, min_abs_D=min_abs, loops=tuple(out_nodes),
                         values=tuple(out_vals), alpha=float(alpha), **stats)


def certify_eta(profile: Profile, alpha: float) -> dict:
    """Largest eta in gap/8, 2 gap/8, ..., 7 gap/8 with zero winding of D around
    [-eta, 2] x [-2, 2] minus a disc at the origin of radius min(0.05, 0.6 eta).

    The spectral gap bounds how far the rectangle may reach; eta certifies
    a concrete zero-free strip beyond the imaginary axis.  Each keyhole is
    counted by the error-controlled `winding_count`.
    Weights: 0 < alpha < alpha_crit; any other weight raises `ParameterError`
    before a keyhole is marched.
    """
    if not 0.0 < alpha < profile.consts.alpha_crit:
        raise ParameterError(f"certify_eta needs a weight in "
                             f"(0, {profile.consts.alpha_crit:.6f}), got alpha={alpha}")
    gap = spectral_gap(profile.params, alpha)
    certified = 0.0
    tried, windings = [], []
    for j in range(1, _CERT_STEPS + 1):
        eta = j * gap / 8.0
        loops = keyhole_contour(-eta, _CERT_RE_MAX, _CERT_IM_ABS,
                                hole_radius=min(_CERT_HOLE, 0.6 * eta))
        res = winding_count(loops, profile, alpha)
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
