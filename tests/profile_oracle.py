"""Second profile route: the tail-launched DOP853 quadrature of w = u0 - k."""
import numpy as np
from scipy.integrate import solve_ivp

from dpstab.wave import ParameterError, SolverError, WaveParams, derived_constants


def _integrate_half(params: WaveParams, L: float, tol: float):
    """Integrate the tail-launched half orbit up to the crest turning point."""
    k, c = params.k, params.c
    d = derived_constants(params)
    r = d.r_decay
    ck = c - k
    pad = 12.0 / r
    delta0 = (d.u_max - k) * np.exp(-r * (L + pad))
    if delta0 < 1e-280:
        raise ParameterError(f"domain L={L} too long: launch amplitude underflows")

    def rhs(_, y):
        w = y[0]
        return (y[1], w - k * np.expm1(-3.0 * np.log1p(-w / ck)))

    def turning(_, y):
        return y[1]

    turning.terminal = True
    turning.direction = -1

    sol = solve_ivp(
        rhs,
        (0.0, L + pad + 40.0 / r),
        (delta0, r * delta0),
        method="DOP853",
        rtol=tol,
        atol=delta0 * 1e-10,
        dense_output=True,
        events=turning,
        max_step=0.25,  # keeps the dense interpolant accurate through the flat tail
    )
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise SolverError("profile integration did not reach the crest turning point")
    xistar = float(sol.t_events[0][0])
    if xistar <= L:
        raise SolverError(
            f"crest reached at xi*={xistar:.3f} inside the requested half-domain L={L}"
        )
    return sol.sol, xistar, delta0, r


def dop853_w(params: WaveParams, L: float, x, tol: float = 1e-13):
    """w and w' at 0 <= x <= L."""
    dense, xistar, _, _ = _integrate_half(params, L, tol)
    w, wp = dense(xistar - np.asarray(x, dtype=float))
    return w, -wp


def fd_dc_w(params: WaveParams, L: float, x):
    """dw/dc at fixed k and 0 <= x <= L, Richardson-refined centered differences."""
    k, c = params.k, params.c
    dc = 1e-4 * c
    w = {s: dop853_w(WaveParams(k, c + s * dc), L, x)[0] for s in (-1, -0.5, 0.5, 1)}
    d1 = (w[1] - w[-1]) / (2.0 * dc)
    d2 = (w[0.5] - w[-0.5]) / dc
    return (4.0 * d2 - d1) / 3.0
