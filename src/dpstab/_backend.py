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
symmetry of results is exact; set DPSTAB_NO_NUMBA=1 to force the numpy
path.  The numpy path marches one lambda at a time: it forms the RK4 step
maps of a chunk of steps as whole-array expressions and runs the step
recursion y_{j+1} = M_j y_j as one banded triangular solve (BLAS ztbsv).
`shoot_final_numpy` and `shoot_traj_numpy` share that march.  Both
implementations stay importable for benchmarks and equivalence tests, and
`shoot_final_stepwise` keeps the plain step loop as the reference for the
numpy path.
"""
from __future__ import annotations

import os

import numpy as np
from scipy.linalg.blas import ztbsv

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


# The numpy path marches one lambda at a time.  The system is linear, so an
# RK4 step is y_{j+1} = M_j y_j.  A chunk of _STEPS steps forms its maps M_j
# on 1-D node and midpoint arrays, with lambda and s entering as Python
# complex scalars, and stores -M_j under the unit diagonal of a lower band
# matrix of bandwidth 5: entry (r, c) of step j sits at band row 3 + r - c,
# column 3 j + c.  Forward substitution on that block-bidiagonal system
# y_{j+1} - M_j y_j = 0 from x = [y_0, 0, ...] (BLAS ztbsv) is the step loop
# itself, run in C; no products of step maps are formed.  The chunk length
# only bounds the working set (a few MB), and since every lambda is marched
# alone its arithmetic does not depend on the batch it comes in.
_STEPS = 2048


def _split(p0, p1, p2, pinv, alpha):
    """lambda-free coefficient parts (R0, R1, R2, pinv) at nodes and at midpoints.

    Q0 = R0 + lam (alpha^2 - 1) pinv, Q1 = R1 - 2 alpha lam pinv and
    Q2 = R2 + lam pinv.
    """
    a = alpha
    R = (p0 - a * p1 + a * a * p2 + a * a * a, p1 - 2.0 * a * p2 - 3.0 * a * a,
         p2 + 3.0 * a, pinv)
    return ([np.ascontiguousarray(x[0::2]) for x in R],
            [np.ascontiguousarray(x[1::2]) for x in R])


def _scalar_zero(x):
    return not isinstance(x, np.ndarray) and x == 0


def _apply(k, u, s):
    """(X - s I) u for the companion matrix X with last row k.

    Entries of u may be Python numbers; exact zeros cost no array operation.
    """
    last = None
    for kc, uc in zip(k, u):
        if not _scalar_zero(uc):
            if last is None:
                last = kc * uc
            else:
                last += kc * uc
    return u[1] - s * u[0], u[2] - s * u[1], last


def _axpy(u, a, v):
    return [a * y if _scalar_zero(x) else x + a * y for x, y in zip(u, v)]


def _neg_step_maps(ki, km, ke, s, h):
    """Columns of -M for the RK4 step maps M of y' = (X - s I) y.

    ki, km and ke hold (Q0, Q1, Q2 - s) at the start, middle and end of each
    step.  With K1 = A_i, K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2) and
    K4 = A_e (I + h K3), M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), the matrix that
    the vector RK4 step applies to y; it is built column by column.
    """
    hh, h6 = 0.5 * h, h / 6.0
    cols = []
    for e in range(3):
        u = [0, 0, 0]
        u[e] = 1
        k1 = _apply(ki, u, s)
        k2 = _apply(km, _axpy(u, hh, k1), s)
        k3 = _apply(km, _axpy(u, hh, k2), s)
        k4 = _apply(ke, _axpy(u, h, k3), s)
        col = []
        for a, b, c, d in zip(k1, k2, k3, k4):
            t = b + c
            t *= 2.0
            t += a
            t += d
            t *= -h6
            col.append(t)
        col[e] -= 1.0
        cols.append(col)
    return cols


def _march(nodes, mids, lam, alpha, s, y0, hs, sign, adjoint):
    """RK4 march of one lambda from y0; returns all node states (nstep + 1, 3).

    The adjoint generator -X^T + s I is -(X - s I)^T, so its step map from
    start i over middle m to end e with step h is the transpose of the
    forward map from e over m to i with step -h.
    """
    nstep = len(mids[0])
    coef = (lam * (alpha * alpha - 1.0), -2.0 * alpha * lam, lam)
    h = -sign * hs if adjoint else sign * hs
    C = min(_STEPS, nstep)
    band = np.zeros((6, 3 * C + 3), dtype=np.complex128, order="F")
    x = np.zeros(3 * nstep + 3, dtype=np.complex128)
    x[:3] = y0
    for j0 in range(0, nstep, _STEPS):
        j1 = min(nstep, j0 + _STEPS)
        qn = [R[j0:j1 + 1] + c * nodes[3][j0:j1 + 1] for R, c in zip(nodes[:3], coef)]
        qm = [R[j0:j1] + c * mids[3][j0:j1] for R, c in zip(mids[:3], coef)]
        qn[2] -= s
        qm[2] -= s
        ki, ke = [q[:-1] for q in qn], [q[1:] for q in qn]
        if adjoint:
            ki, ke = ke, ki
        cols = _neg_step_maps(ki, qm, ke, s, h)
        n = 3 * (j1 - j0)
        for r in range(3):
            for c in range(3):
                band[3 + r - c, c:n:3] = cols[r][c] if adjoint else cols[c][r]
        seg = x[3 * j0:3 * j1 + 3]
        seg[:] = ztbsv(5, band[:, :n + 3], seg, lower=1, diag=1, overwrite_x=1)
    return x.reshape(-1, 3)


def shoot_final_numpy(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """March each lambda from its row of y0s through the full grid; final states (B, 3)."""
    nodes, mids = _split(p0, p1, p2, pinv, alpha)
    y0s = np.asarray(y0s, dtype=np.complex128)
    out = np.empty((len(lams), 3), dtype=np.complex128)
    for b, (lam, s) in enumerate(zip(np.asarray(lams).tolist(), np.asarray(shifts).tolist())):
        out[b] = _march(nodes, mids, complex(lam), alpha, complex(s), y0s[b], hs, sign,
                        adjoint)[-1]
    return out


def shoot_traj_numpy(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
    """Single-column march recording every node; returns (nstep + 1, 3)."""
    nodes, mids = _split(p0, p1, p2, pinv, alpha)
    return _march(nodes, mids, complex(lam), alpha, complex(shift),
                  np.asarray(y0, dtype=np.complex128), hs, sign, adjoint)


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
