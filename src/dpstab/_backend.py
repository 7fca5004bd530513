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

Each lambda is marched alone: the RK4 step maps of a chunk of steps are
formed as whole-array expressions and the step recursion y_{j+1} = M_j y_j
runs as one banded triangular solve (BLAS ztbsv).  `shoot_final` and
`shoot_traj` share that march.

This module is also the package's one source of BLAS and real transforms,
loaded by `_load_extension` straight from scipy's extension files, without
the package inits above them: `dtbsv` and `ztbsv` from `linalg/_fblas` (the
`scipy.linalg` init loads `numpy.f2py`, `numpy.testing`, `numpy.ma` and
`numpy.random`), and pocketfft's `r2c` and `c2r`, behind `rfft` and `irfft`,
from `fft/_pocketfft/pypocketfft` (the `scipy.fft` init costs about 0.07 s;
`numpy.fft`, the same pocketfft code bit for bit, spends much of each call on
fixed overhead).  Both are single-phase extensions: the functions are the
very objects scipy's own modules use, whichever is imported first.
"""
from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np


def _load_extension(folder: str, stem: str, *names: str) -> tuple:
    """The functions `names` of the extension file `stem` in scipy's `folder`
    ('/'-separated), loaded as its scipy module without the package inits."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("dpstab needs scipy for its BLAS and transforms")
    name = ".".join(["scipy", *folder.split("/"), stem])
    folder = os.path.join(scipy.submodule_search_locations[0], *folder.split("/"))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, stem + suffix)
        if os.path.isfile(path):
            spec = spec_from_loader(name, ExtensionFileLoader(name, path))
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return tuple(getattr(module, f) for f in names)
    raise ImportError(f"no scipy extension {stem} in {folder}")


dtbsv, ztbsv = _load_extension("linalg", "_fblas", "dtbsv", "ztbsv")
_r2c, _c2r = _load_extension("fft/_pocketfft", "pypocketfft", "r2c", "c2r")


def rfft(x, out=None) -> np.ndarray:
    """numpy.fft.rfft(x) on the last axis, into out if given."""
    x = np.asarray(x, dtype=np.float64)
    return _r2c(x, (x.ndim - 1,), True, 0, out, 1)


def irfft(X, n: int, out=None) -> np.ndarray:
    """numpy.fft.irfft(X, n) of n // 2 + 1 entries on the last axis, into out if given."""
    X = np.asarray(X, dtype=np.complex128)
    return _c2r(X, (X.ndim - 1,), n, False, 2, out, 1)


def backend_name() -> str:
    """Name of the shooting implementation; perfbench records it as provenance."""
    return "numpy"


# The system is linear, so an RK4 step is y_{j+1} = M_j y_j.  A chunk of
# _STEPS steps forms its maps M_j on 1-D node and midpoint arrays, with
# lambda and s entering as Python complex scalars, and stores -M_j under the
# unit diagonal of a lower band matrix of bandwidth 5: entry (r, c) of step
# j sits at band row 3 + r - c, column 3 j + c.  Forward substitution on that
# block-bidiagonal system y_{j+1} - M_j y_j = 0 from x = [y_0, 0, ...] (BLAS
# ztbsv) is the step loop itself, run in C; no products of step maps are
# formed.  The chunk length only bounds the working set (a few MB), and since
# every lambda is marched alone its arithmetic does not depend on the batch
# it comes in.
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


def _marches(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """RK4 march of each lambda from its row of y0s; yields all node states
    (nstep + 1, 3), a view of one state vector that the next march reuses.

    Every march writes the same band slots and the others stay zero, so one
    band serves all lambda.  The adjoint generator -X^T + s I is -(X - s I)^T,
    so its step map from start i over middle m to end e with step h is the
    transpose of the forward map from e over m to i with step -h.
    """
    nodes, mids = _split(p0, p1, p2, pinv, alpha)
    nstep = len(mids[0])
    h = -sign * hs if adjoint else sign * hs
    band = np.zeros((6, 3 * min(_STEPS, nstep) + 3), dtype=np.complex128, order="F")
    x = np.empty(3 * nstep + 3, dtype=np.complex128)
    for lam, s, y0 in zip(np.asarray(lams, dtype=complex).tolist(),
                          np.asarray(shifts, dtype=complex).tolist(), y0s):
        coef = (lam * (alpha * alpha - 1.0), -2.0 * alpha * lam, lam)
        x[:3] = y0
        x[3:] = 0.0
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
        yield x.reshape(-1, 3)


def shoot_final(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """Final states of a batch of shifted companion systems, shape (B, 3).

    Each lambda is marched from its row of y0s through the full grid.
    """
    out = np.empty((len(lams), 3), dtype=np.complex128)
    for b, y in enumerate(_marches(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign,
                                   adjoint)):
        out[b] = y[-1]
    return out


def shoot_traj(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
    """All node states of a single shifted companion system, shape (nstep + 1, 3)."""
    return next(_marches(p0, p1, p2, pinv, [lam], alpha, [shift], [y0], hs, sign, adjoint))
