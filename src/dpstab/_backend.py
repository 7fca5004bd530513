"""Fixed-step RK4 shooting kernels for third-order companion systems.

The systems integrated here all have the form y' = sign * (C(xi) - s I) y
where C is the companion matrix of a third-order scalar operator with
coefficients assembled per node as

    q0 = p0 - lam * pinv,  q1 = p1,  q2 = p2 + lam * pinv,

followed by the weight shift (conjugation by e^{alpha xi} in ordinary
derivative coordinates)

    Q0 = q0 - alpha q1 + alpha^2 q2 + alpha^3,
    Q1 = q1 - 2 alpha q2 - 3 alpha^2,
    Q2 = q2 + 3 alpha.

`adjoint` integrates y' = sign * (-C(xi)^T + s I) y instead.  Coefficient
arrays are sampled at half-step resolution in marching order: entry 2j is
node j, entry 2j+1 the midpoint after it.

The numba implementation is compiled without fastmath so conjugation
symmetry of results is exact; set DPSTAB_NO_NUMBA=1 to force the
vectorized numpy fallback, which multiplies RK4 step propagators instead
of looping over steps.  Both implementations stay importable for
benchmarks and equivalence tests, and `shoot_final_stepwise` keeps the
plain step loop as the reference for the propagator path.
"""
from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

_DISABLED = os.environ.get("DPSTAB_NO_NUMBA", "").strip() not in ("", "0")
USE_NUMBA = HAVE_NUMBA and not _DISABLED


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


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

    Slow (a Python loop over steps) but transparent; the propagator path
    below is checked against it.
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


# The numpy path builds each RK4 step as a 3x3 propagator (the system is
# linear, so a step is y -> M_j y) vectorized over (step, lambda).  Chunks
# hold _STEPS steps for _GROUP lambda at a time: a fixed step chunking makes
# every lambda's arithmetic independent of the batch it comes in, and the
# group size bounds the working set to a few MB.  512-step chunks pay the
# per-chunk Python overhead half as often as 256-step ones; 1024 x 16 raises
# peak memory by several MB.  Chunk products stay bounded: on the L = 40,
# h = 0.02 grid at alpha = 0.5 their largest entry is 0.70 at nsub = 1 and
# 1.07 at nsub = 10, at the contour corners 2+2i and -0.06+2i.  Matrices are
# kept as row-major lists of nine entries; an entry that is the Python int
# 0, 1 or -1 is structural and costs no array operation.
_STEPS = 512
_GROUP = 16


def _mat_mul(a, b):
    """Entry-list product a @ b, skipping structural zeros and units."""
    out = []
    for i in range(3):
        for j in range(3):
            acc = None
            for k in range(3):
                x, y = a[3 * i + k], b[3 * k + j]
                if isinstance(x, int) and x == 0 or isinstance(y, int) and y == 0:
                    continue
                if isinstance(x, int):
                    t = y if x == 1 else -y
                elif isinstance(y, int):
                    t = x if y == 1 else -x
                else:
                    t = x * y
                acc = t if acc is None else acc + t
            out.append(0 if acc is None else acc)
    return out


def _mat_lincomb(terms):
    """Entry-wise sum of coefficient * matrix over (coefficient, matrix) pairs."""
    out = []
    for e in range(9):
        acc = None
        for coef, m in terms:
            x = m[e]
            if isinstance(x, int) and x == 0:
                continue
            t = x if coef == 1.0 else coef * x
            acc = t if acc is None else acc + t
        out.append(0 if acc is None else acc)
    return out


def _generators(p0, p1, p2, pinv, lams, alpha, shifts, adjoint, lo, hi):
    """Shifted companion matrices at samples lo..hi-1 as entry lists (S, G)."""
    lamp = lams[None, :] * pinv[lo:hi, None]
    q0 = p0[lo:hi, None] - lamp
    q1 = p1[lo:hi, None]
    q2 = p2[lo:hi, None] + lamp
    a = alpha
    Q0 = q0 - a * q1 + a * a * q2 + a * a * a
    Q1 = q1 - 2.0 * a * q2 - 3.0 * a * a
    Q2 = q2 + 3.0 * a
    s = np.broadcast_to(shifts[None, :], Q0.shape)
    if adjoint:
        return [s, 0, -Q0, -1, s, -Q1, 0, -1, s - Q2]
    return [-s, 1, 0, 0, -s, 1, Q0, Q1, Q2 - s]


def _step_maps(A, h):
    """RK4 one-step propagators from generators sampled at half steps.

    With K1 = A_i, K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2) and
    K4 = A_e (I + h K3), the step is M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    the matrix that the vector RK4 step applies to y.
    """
    def sl(m, start):
        return [x if isinstance(x, int) else x[start::2] for x in m]

    Ai, Am, Ae = sl(A, 0), sl(A, 1), sl(A, 2)
    Ai = [x if isinstance(x, int) else x[:len(Am[0])] for x in Ai]
    half = 0.5 * h
    K2 = _mat_lincomb([(1.0, Am), (half, _mat_mul(Am, Ai))])
    K3 = _mat_lincomb([(1.0, Am), (half, _mat_mul(Am, K2))])
    K4 = _mat_lincomb([(1.0, Ae), (h, _mat_mul(Ae, K3))])
    h6 = h / 6.0
    M = _mat_lincomb([(h6, Ai), (2.0 * h6, K2), (2.0 * h6, K3), (h6, K4)])
    for e in (0, 4, 8):
        M[e] = M[e] + 1.0
    shape = Am[0].shape
    return [np.broadcast_to(x, shape) for x in M]


def _chunk_product(M):
    """Ordered product M_{C-1} ... M_0 by a balanced pairwise tree.

    Partial products stay bounded because the shift by the launch root
    makes the marched mode dominant in the marching direction.
    """
    while len(M[0]) > 1:
        m = len(M[0])
        P = _mat_mul([x[1:m:2] for x in M], [x[0:m - 1:2] for x in M])
        if m % 2:
            P = [np.concatenate((p, x[m - 1:])) for p, x in zip(P, M)]
        M = P
    return [x[0] for x in M]


def _chunk_maps(p0, p1, p2, pinv, lams, alpha, shifts, hs, sign, adjoint):
    """Yield (first step, step propagators) for chunks of _STEPS steps."""
    nstep = (p0.shape[0] - 1) // 2
    h = sign * hs
    for j0 in range(0, nstep, _STEPS):
        j1 = min(nstep, j0 + _STEPS)
        A = _generators(p0, p1, p2, pinv, lams, alpha, shifts, adjoint, 2 * j0, 2 * j1 + 1)
        yield j0, _step_maps(A, h)


def shoot_final_numpy(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """March all columns of y0s through the full grid; return final states (B, 3)."""
    lams = np.asarray(lams, dtype=np.complex128)
    shifts = np.asarray(shifts, dtype=np.complex128)
    y0s = np.asarray(y0s, dtype=np.complex128)
    out = np.empty((len(lams), 3), dtype=np.complex128)
    for g in range(0, len(lams), _GROUP):
        sel = slice(g, g + _GROUP)
        y = [y0s[sel, 0], y0s[sel, 1], y0s[sel, 2]]
        for _, M in _chunk_maps(p0, p1, p2, pinv, lams[sel], alpha, shifts[sel],
                                hs, sign, adjoint):
            P = _chunk_product(M)
            y = [P[3 * r] * y[0] + P[3 * r + 1] * y[1] + P[3 * r + 2] * y[2]
                 for r in range(3)]
        out[sel] = np.stack(y, axis=1)
    return out


def shoot_traj_numpy(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
    """Single-column march recording every node; returns (nstep + 1, 3)."""
    nstep = (p0.shape[0] - 1) // 2
    out = np.empty((nstep + 1, 3), dtype=np.complex128)
    y = np.array(y0, dtype=np.complex128)
    out[0] = y
    for j0, M in _chunk_maps(p0, p1, p2, pinv, np.array([lam], dtype=np.complex128),
                             alpha, np.array([shift], dtype=np.complex128),
                             hs, sign, adjoint):
        C = len(M[0])
        mats = np.empty((C, 9), dtype=np.complex128)
        for e, x in enumerate(M):
            mats[:, e] = x[:, 0]
        mats = mats.reshape(C, 3, 3)
        for j in range(C):
            y = mats[j] @ y
            out[j0 + j + 1] = y
    return out


if HAVE_NUMBA:

    @numba.njit(cache=True, inline="always")
    def _rhs_nb(i, p0, p1, p2, pinv, lam, alpha, s, sign, adjoint, y1, y2, y3):
        q0 = p0[i] - lam * pinv[i]
        q1 = p1[i] + 0j
        q2 = p2[i] + lam * pinv[i]
        a = alpha
        Q0 = q0 - a * q1 + a * a * q2 + a * a * a
        Q1 = q1 - 2.0 * a * q2 - 3.0 * a * a
        Q2 = q2 + 3.0 * a
        if adjoint:
            f1 = -Q0 * y3 + s * y1
            f2 = -y1 - Q1 * y3 + s * y2
            f3 = -y2 + (s - Q2) * y3
        else:
            f1 = y2 - s * y1
            f2 = y3 - s * y2
            f3 = Q0 * y1 + Q1 * y2 + (Q2 - s) * y3
        return sign * f1, sign * f2, sign * f3

    @numba.njit(cache=True)
    def _shoot_final_nb(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
        B = lams.shape[0]
        nstep = (p0.shape[0] - 1) // 2
        out = np.empty((B, 3), np.complex128)
        h6 = hs / 6.0
        for b in range(B):
            lam = lams[b]
            s = shifts[b]
            y1, y2, y3 = y0s[b, 0], y0s[b, 1], y0s[b, 2]
            for j in range(nstep):
                i = 2 * j
                a1, a2, a3 = _rhs_nb(i, p0, p1, p2, pinv, lam, alpha, s, sign, adjoint, y1, y2, y3)
                b1, b2, b3 = _rhs_nb(i + 1, p0, p1, p2, pinv, lam, alpha, s, sign, adjoint,
                                     y1 + 0.5 * hs * a1, y2 + 0.5 * hs * a2, y3 + 0.5 * hs * a3)
                c1, c2, c3 = _rhs_nb(i + 1, p0, p1, p2, pinv, lam, alpha, s, sign, adjoint,
                                     y1 + 0.5 * hs * b1, y2 + 0.5 * hs * b2, y3 + 0.5 * hs * b3)
                d1, d2, d3 = _rhs_nb(i + 2, p0, p1, p2, pinv, lam, alpha, s, sign, adjoint,
                                     y1 + hs * c1, y2 + hs * c2, y3 + hs * c3)
                y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
                y2 = y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2)
                y3 = y3 + h6 * (a3 + 2.0 * (b3 + c3) + d3)
            out[b, 0] = y1
            out[b, 1] = y2
            out[b, 2] = y3
        return out

    @numba.njit(cache=True)
    def _shoot_traj_nb(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
        nstep = (p0.shape[0] - 1) // 2
        out = np.empty((nstep + 1, 3), np.complex128)
        h6 = hs / 6.0
        y1, y2, y3 = y0[0], y0[1], y0[2]
        out[0, 0], out[0, 1], out[0, 2] = y1, y2, y3
        for j in range(nstep):
            i = 2 * j
            a1, a2, a3 = _rhs_nb(i, p0, p1, p2, pinv, lam, alpha, shift, sign, adjoint, y1, y2, y3)
            b1, b2, b3 = _rhs_nb(i + 1, p0, p1, p2, pinv, lam, alpha, shift, sign, adjoint,
                                 y1 + 0.5 * hs * a1, y2 + 0.5 * hs * a2, y3 + 0.5 * hs * a3)
            c1, c2, c3 = _rhs_nb(i + 1, p0, p1, p2, pinv, lam, alpha, shift, sign, adjoint,
                                 y1 + 0.5 * hs * b1, y2 + 0.5 * hs * b2, y3 + 0.5 * hs * b3)
            d1, d2, d3 = _rhs_nb(i + 2, p0, p1, p2, pinv, lam, alpha, shift, sign, adjoint,
                                 y1 + hs * c1, y2 + hs * c2, y3 + hs * c3)
            y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
            y2 = y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2)
            y3 = y3 + h6 * (a3 + 2.0 * (b3 + c3) + d3)
            out[j + 1, 0] = y1
            out[j + 1, 1] = y2
            out[j + 1, 2] = y3
        return out

    def shoot_final_numba(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
        return _shoot_final_nb(
            np.ascontiguousarray(p0), np.ascontiguousarray(p1),
            np.ascontiguousarray(p2), np.ascontiguousarray(pinv),
            np.ascontiguousarray(lams, dtype=np.complex128),
            float(alpha),
            np.ascontiguousarray(shifts, dtype=np.complex128),
            np.ascontiguousarray(y0s, dtype=np.complex128),
            float(hs), float(sign), bool(adjoint),
        )

    def shoot_traj_numba(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
        return _shoot_traj_nb(
            np.ascontiguousarray(p0), np.ascontiguousarray(p1),
            np.ascontiguousarray(p2), np.ascontiguousarray(pinv),
            complex(lam), float(alpha), complex(shift),
            np.ascontiguousarray(y0, dtype=np.complex128),
            float(hs), float(sign), bool(adjoint),
        )

else:  # pragma: no cover
    shoot_final_numba = None
    shoot_traj_numba = None


def shoot_final(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """Final states of a batch of shifted companion systems, shape (B, 3)."""
    lams = np.asarray(lams, dtype=np.complex128)
    shifts = np.asarray(shifts, dtype=np.complex128)
    y0s = np.asarray(y0s, dtype=np.complex128)
    if USE_NUMBA:
        return shoot_final_numba(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint)
    return shoot_final_numpy(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint)


def shoot_traj(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
    """All node states of a single shifted companion system, shape (n + 1, 3)."""
    if USE_NUMBA:
        return shoot_traj_numba(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint)
    return shoot_traj_numpy(p0, p1, p2, pinv, lam, alpha, shift,
                            np.asarray(y0, dtype=np.complex128), hs, sign, adjoint)
