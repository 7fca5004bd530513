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
built by ufuncs writing into one workspace allocated per call, and the step
recursion y_{j+1} = M_j y_j runs as one banded triangular solve (BLAS
ztbsv).  `shoot_final` and `shoot_traj` share that march.

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


# The system is linear, so an RK4 step is y_{j+1} = M_j y_j.  The march runs
# in chunks of _STEPS steps.  Per chunk it forms the lambda-free parts of the
# coefficients at nodes and midpoints once, then for each lambda the
# coefficients and the maps M_j, with lambda and s entering as Python complex
# scalars, into one workspace allocated per call; -M_j goes under the unit
# diagonal of a lower band matrix of bandwidth 5: entry (r, c) of step j
# sits at band row 3 + r - c, column 3 j + c.  Forward substitution on that
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


def _stage_scalars(s, h):
    """The scalar entries of the RK4 stages of column e of M, per e: k1 =
    (X - s I) e_e = (k10, k11, Q_e), u2 = e_e + h/2 k1 = (v20, v21, array),
    k2 = (k20, array, array) and u3 = (v30, array, array), with the products
    s v21 and s v30 that the array stages subtract."""
    hh = 0.5 * h
    out = []
    for e in range(3):
        u = [0, 0, 0]
        u[e] = 1
        k1 = (u[1] - s * u[0], u[2] - s * u[1])
        v20, v21 = (hh * k if x == 0 else x + hh * k for x, k in zip(u, k1))
        k20 = v21 - s * v20
        v30 = hh * k20 if e else 1 + hh * k20
        out.append((*k1, v20, v21, k20, v30, s * v21, s * v30))
    return out


def _step_maps(band, ws, ki, km, ke, s, h, scalars, adjoint):
    """-M_j of each step of a chunk into band, for y' = (X - s I) y.

    ki, km and ke hold (Q0, Q1, Q2 - s) at the start, middle and end of each
    step.  With K1 = A_i, K2 = A_m (I + h/2 K1), K3 = A_m (I + h/2 K2) and
    K4 = A_e (I + h K3), M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), the matrix that
    the vector RK4 step applies to y; column e is M e_e.  Each array
    operation writes into a row of the workspace ws (the last into the
    band), with its operands in the order of the vector step, and exact
    zeros of the stage vectors cost none.  The adjoint places the transpose.
    """
    t, u0, u1, u2, k21, k22, k30, k31, k32, k40, k41, k42 = ws
    u = (u0, u1, u2)
    hh, h6, n = 0.5 * h, h / 6.0, 3 * len(t)
    for e, (k10, k11, v20, v21, k20, v30, sv21, sv30) in enumerate(scalars):
        # k2 = A_m (v20, v21, U), where v20 = 0 for e = 2 and v21 = 0 for
        # e = 0, so then k21 = U - s v21 is U itself
        U = k21 if e == 0 else u2
        np.multiply(hh, ki[e], out=U)
        if e == 2:
            np.add(1, U, out=U)
            np.multiply(km[1], v21, out=k22)
        else:
            np.multiply(km[0], v20, out=k22)
        if e == 1:
            np.multiply(km[1], v21, out=t)
            k22 += t
        if e:
            np.subtract(U, sv21, out=k21)
        np.multiply(km[2], U, out=t)
        k22 += t
        # k3 = A_m (v30, u1, u2), u3 = e_e + h/2 k2
        np.multiply(hh, k21, out=u1)
        np.multiply(hh, k22, out=u2)
        if e:
            np.add(1, u[e], out=u[e])
        np.subtract(u1, sv30, out=k30)
        np.multiply(s, u1, out=k31)
        np.subtract(u2, k31, out=k31)
        np.multiply(km[0], v30, out=k32)
        for kc, uc in ((km[1], u1), (km[2], u2)):
            np.multiply(kc, uc, out=t)
            k32 += t
        # k4 = A_e u4, u4 = e_e + h k3
        for uc, kc in zip(u, (k30, k31, k32)):
            np.multiply(h, kc, out=uc)
        np.add(1, u[e], out=u[e])
        for kc, a, b in ((k40, u0, u1), (k41, u1, u2)):
            np.multiply(s, a, out=kc)
            np.subtract(b, kc, out=kc)
        np.multiply(ke[0], u0, out=k42)
        for kc, uc in ((ke[1], u1), (ke[2], u2)):
            np.multiply(kc, uc, out=t)
            k42 += t
        # entry r of -M e_e is -h/6 (2 (k2 + k3) + k1 + k4); for r < 2 the
        # k1 entry e_{r+1} - s e_r is zero unless e is r or r + 1
        for r, a, b, c, d in ((0, k10, k20, k30, k40), (1, k11, k21, k31, k41),
                              (2, ki[e], k22, k32, k42)):
            np.add(b, c, out=c)
            c *= 2.0
            if r == 2 or e in (r, r + 1):
                c += a
            c += d
            np.multiply(c, -h6, out=band[3 + e - r, r:n:3] if adjoint else band[3 + r - e, e:n:3])
        band[3, e:n:3] -= 1.0


def _march(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint, whole=False):
    """RK4 march of each lambda from its row of y0s: the final states (B, 3),
    or with whole=True (one lambda) all node states (nstep + 1, 3).

    Every march writes the same band slots and the others stay zero, so one
    band and one workspace serve all lambda.  The adjoint generator
    -X^T + s I is -(X - s I)^T, so its step map from start i over middle m to
    end e with step h is the transpose of the forward map from e over m to i
    with step -h.
    """
    nstep = (len(p0) - 1) // 2
    h = -sign * hs if adjoint else sign * hs
    m = min(_STEPS, nstep)
    band = np.zeros((6, 3 * m + 3), dtype=np.complex128, order="F")
    ws = np.empty((18, m + 1), dtype=np.complex128)  # Q at nodes, at midpoints, stages
    ys = np.array(y0s, dtype=np.complex128).reshape(-1, 3)
    x = np.zeros(3 * (nstep if whole else m) + 3, dtype=np.complex128)
    if whole:
        x[:3] = ys[0]
    lams = np.asarray(lams, dtype=complex).tolist()
    shifts = np.asarray(shifts, dtype=complex).tolist()
    scalars = [_stage_scalars(s, h) for s in shifts]
    for j0 in range(0, nstep, _STEPS):
        j1 = min(nstep, j0 + _STEPS)
        n = 3 * (j1 - j0)
        nodes, mids = _split(*(p[2 * j0:2 * j1 + 1] for p in (p0, p1, p2, pinv)), alpha)
        qn, qm = ws[:3, :j1 - j0 + 1], ws[3:6, :j1 - j0]
        for b, (lam, s) in enumerate(zip(lams, shifts)):
            coef = (lam * (alpha * alpha - 1.0), -2.0 * alpha * lam, lam)
            for q, R in ((qn, nodes), (qm, mids)):
                for qi, Ri, c in zip(q, R, coef):
                    np.multiply(c, R[3], out=qi)
                    np.add(Ri, qi, out=qi)
                q[2] -= s
            ki, ke = qn[:, :-1], qn[:, 1:]
            if adjoint:
                ki, ke = ke, ki
            _step_maps(band, ws[6:, :j1 - j0], ki, qm, ke, s, h, scalars[b], adjoint)
            if whole:
                seg = x[3 * j0:3 * j1 + 3]
            else:
                seg = x[:n + 3]
                seg[:3] = ys[b]
                seg[3:] = 0.0
            seg[:] = ztbsv(5, band[:, :n + 3], seg, lower=1, diag=1, overwrite_x=1)
            ys[b] = seg[-3:]
    return x.reshape(-1, 3) if whole else ys


def shoot_final(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint):
    """Final states of a batch of shifted companion systems, shape (B, 3).

    Each lambda is marched from its row of y0s through the full grid.
    """
    return _march(p0, p1, p2, pinv, lams, alpha, shifts, y0s, hs, sign, adjoint)


def shoot_traj(p0, p1, p2, pinv, lam, alpha, shift, y0, hs, sign, adjoint):
    """All node states of a single shifted companion system, shape (nstep + 1, 3)."""
    return _march(p0, p1, p2, pinv, [lam], alpha, [shift], [y0], hs, sign, adjoint, True)
