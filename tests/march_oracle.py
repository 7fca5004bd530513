"""Second march route: the RK4 step maps built by whole-array expressions.

This is the shooting march as `dpstab._backend` built it before its step
maps went into one workspace per call: `_split` forms the lambda-free
coefficient parts on the whole grid, `_neg_step_maps` builds the columns of
-M for each chunk from fresh arrays through the generic helpers `_apply` and
`_axpy`, and the band solve is the same.  The workspace build runs the same
operations in the same order, so its maps and states must equal these bit
for bit (up to the sign of an exact zero).
"""
import numpy as np

from dpstab._backend import ztbsv


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


def marches(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint, steps):
    """For each lambda, marched in chunks of `steps` steps: the list of the
    bands (the columns of the chunk's -M_j) and all node states (nstep + 1, 3)."""
    nodes, mids = _split(p0, p1, p2, pinv, alpha)
    nstep = len(mids[0])
    h = -sign * hs if adjoint else sign * hs
    band = np.zeros((6, 3 * min(steps, nstep) + 3), dtype=np.complex128, order="F")
    for lam, s, y0 in zip(np.asarray(lams, dtype=complex).tolist(),
                          np.asarray(shifts, dtype=complex).tolist(), y0s):
        coef = (lam * (alpha * alpha - 1.0), -2.0 * alpha * lam, lam)
        x = np.zeros(3 * nstep + 3, dtype=np.complex128)
        x[:3] = y0
        bands = []
        for j0 in range(0, nstep, steps):
            j1 = min(nstep, j0 + steps)
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
            bands.append(band[:, :n].copy())
            seg = x[3 * j0:3 * j1 + 3]
            seg[:] = ztbsv(5, band[:, :n + 3], seg, lower=1, diag=1, overwrite_x=1)
        yield bands, x.reshape(-1, 3)
