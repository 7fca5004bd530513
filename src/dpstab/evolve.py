"""Linearized and nonlinear time evolution in exponentially weighted norms.

The linearization about the wave in the co-moving frame is

    A w = d (1 - d^2)^{-1} (4 - d^2) [(c - u0) w] - 3 c d (1 - d^2)^{-1} w,

with d the spatial derivative; the weighted operator A_alpha replaces d by
d - alpha.  Spatial discretization is Fourier collocation on the periodic
grid of the first N - 1 = 2L/h nodes of the closed profile grid, the
package's one grid rule (`kernel.close_seam`): the grid maps and the RK4
flows discard the input's last node and return the seam node as a copy of
node 0 (the free flow's datum has no seam node).  Every nonlocal inverse is
then a diagonal multiplier on the real-FFT half-spectrum; profiles are
exponentially close to the background at the boundary, which keeps the
periodic mismatch far below the test tolerances.

The free resolvent (lambda - A_alpha^inf)^{-1} over the flat background is
realized by an explicit piecewise-exponential kernel: the C^1 Green function
of the cubic polynomial part, with second-derivative jump 1/(c - k), composed
with the local factor 1 - (d - alpha)^2.  Both the jump constant and the
composition are pinned by a manufactured-solution oracle in the tests rather
than assumed.

The three flows share one shape: datum, parameters, final time T, grid and
n_records go in; an `EvolutionState` comes out: the norm and the flow's own
named record columns at n_records times from 0 to T, and the final state.
The free flow is exact, one inverse transform per record; the linearized
and nonlinear flows are classical RK4 on one validated schedule, the step
chosen against a bound read off the symbols: max|c - u0| max|p| + max|3c q|
bounds the 2-norm of A_alpha on the grid, so its spectral radius, and
max|u - c| sigma_max bounds the advection.
A_alpha has one discretization, on the rfft half-spectrum (`_symbols`): the
linearized flow steps it, and `apply_linearized` applies it through
`kernel.real_spectral_map` (`_spectral_rhs`).  The linearized flow is
linear and autonomous, so its RK4 step is the degree-4 Taylor polynomial of
exp(dt A_alpha); `_linear_step` evaluates it in Horner form,
y <- v + (dt/j) A_alpha y for j = 4, 3, 2, 1, at one inverse and one forward
transform per stage.
The nonlinear flow carries the half-spectrum of m - k from step to step.
Per step, one 4-row inverse transform gives m - k, u - k, u' and m' at the
step's start, each later stage one forward transform of m - k and one 3-row
inverse to u - k, u' and m', and the new m - k one forward transform: 4
forward and 4 inverse transforms.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from ._backend import irfft, rfft
from .dispersion import (_check_alpha, char_roots, check_shifted_roots, lambda_of_r,
                         spectral_gap)
from .kernel import _grid_function
from .wave import (
    ParameterError,
    Profile,
    SolverError,
    WaveParams,
    _no_overflow,
    dc_profile,
    derived_constants,
    profile_w,
    solve_profile,
)

__all__ = [
    "apply_linearized",
    "free_evolve",
    "GreenFunction",
    "free_green",
    "green_apply",
    "resolvent_norm_scan",
    "EvolutionState",
    "linear_evolve",
    "nonlinear_evolve",
    "decay_rate",
    "ModulationFit",
    "modulation_fit",
    "l2_norm",
]

# the resolvent scan's sigma grid and the step cap of the damped Gauss-Newton
# modulation fit
_SCAN_SIGMA_MAX, _SCAN_POINTS = 400.0, 160_001
_FIT_MAX_ITER = 50
# a projected linear run's largest pairing max|<eta_j, w(t)>| over the data
# norm is 4.4e-10 at (0.1, 1), alpha 0.5 on the CLI grid, and 0.18 at alpha
# 0.75, where the truncation splits the Jordan pair.  A datum in the kernel
# projects to a residue that pairs at its own size, up to 7e-12 of the datum
_MAX_DRIFT, _KERNEL_FLOOR = 1e-2, 1e-8


def l2_norm(w, h: float) -> float:
    # rectangle rule: exact Parseval partner of the periodic Fourier evolution.
    # The samples are scaled by the power of two just below max|w|: their
    # squares cannot overflow, and where the unscaled squares neither overflow
    # nor underflow the result is the unscaled sum's to the bit
    a = np.abs(np.asarray(w))
    scale = np.ldexp(1.0, np.frexp(np.max(a, initial=0.0))[1] - 1)
    return float(scale * np.sqrt(h * np.sum((a / scale) ** 2)))


def _symbols(profile: Profile, alpha: float, adjoint: bool = False):
    """c - u0 on the first n = N - 1 profile nodes, p and 3c q on the rfft
    half-spectrum of n nodes, and the slice of its DC and Nyquist modes (n is
    even), whose imaginary parts irfft discards.  With p = d (4 - d^2)/(1 - d^2)
    and q = d/(1 - d^2), A_alpha = p (c - u0) - 3c q at d = i sigma - alpha and
    its L^2 adjoint is (c - u0) p - 3c q at d = -i sigma - alpha."""
    c = profile.params.c
    n = profile.xi.size - 1
    sig = kernel.rfft_sigma(n, profile.h)
    d = (-1j if adjoint else 1j) * sig - alpha
    p = d * (4.0 - d * d) / (1.0 - d * d)
    q3 = 3.0 * c * d / (1.0 - d * d)
    return c - profile.u0[:n], p, q3, slice(0, None, n // 2)


def _norm_bound(profile: Profile, alpha: float) -> float:
    """max|c - u0| max|p| + max|3c q| over `_symbols`: a bound on the 2-norm
    of A_alpha on the grid, so on its spectral radius.  The grid operator is
    the diagonal c - u0 and the multipliers p and 3c q between unitary
    transforms, then the real part irfft takes, none of which has a norm
    above its largest entry."""
    cmu, p, q3, _ = _symbols(profile, alpha)
    return float(np.max(np.abs(cmu)) * np.max(np.abs(p)) + np.max(np.abs(q3)))


def _spectral_rhs(profile: Profile, alpha: float, adjoint: bool = False):
    """v -> rfft(A irfft(v, n)), A = A_alpha or its L^2 adjoint (`_symbols`),
    for the rfft half-spectrum v (or a stack of them) of a real function on the
    first n = N - 1 profile nodes: two real transforms.  The DC and Nyquist
    imaginary parts, which irfft discards, are zeroed: a march on v is the grid's."""
    cmu, p, q3, real_modes = _symbols(profile, alpha, adjoint)
    n = cmu.size

    def rhs(v):
        if adjoint:
            out = rfft(cmu * irfft(p * v, n)) - q3 * v
        else:
            out = p * rfft(cmu * irfft(v, n)) - q3 * v
        out.imag[..., real_modes] = 0.0
        return out

    return rhs


def apply_linearized(w, profile: Profile, alpha: float, adjoint: bool = False):
    """A_alpha w (or its L^2 adjoint) by Fourier collocation, the operator the
    linearized flow steps: the input's last node is discarded, as the flows
    discard it, and the result's seam node is a copy of node 0.
    Weights: any finite alpha with |alpha| != 1."""
    _check_alpha(alpha)
    w = np.asarray(w)
    if w.shape != profile.xi.shape:
        raise ParameterError("w is not on the profile grid")
    rhs = _spectral_rhs(profile, alpha, adjoint)
    return kernel.close_seam(kernel.real_spectral_map(w[:-1], rhs))


@dataclass(frozen=True)
class GreenFunction:
    """Piecewise-exponential kernel of the free resolvent.

    roots are the shifted spatial roots s_j = r_j + alpha sorted by real
    part: G(y) = a1 e^{s1 y} for y > 0 (Re s1 < 0) and
    G(y) = -(a2 e^{s2 y} + a3 e^{s3 y}) for y < 0 (Re s2, s3 > 0), with
    a_j = 1/P'(s_j) the inverse derivative of the characteristic cubic.
    The residue identities sum_j a_j = sum_j a_j s_j = 0 make G and G'
    continuous at 0, while G'' jumps by sum_j a_j s_j^2 = 1/(c - k); the
    resolvent acts as G * (1 - (d - alpha)^2) f.
    """

    lam: complex
    alpha: float
    roots: tuple
    a: tuple


def free_green(lam, alpha: float, params: WaveParams) -> GreenFunction:
    """Green function of lambda - A_alpha^inf for lambda strictly right of the
    spectrum: `check_shifted_roots`, and no shifted root on the imaginary axis."""
    _check_alpha(alpha)
    s = char_roots(lam, params) + alpha
    check_shifted_roots(lam, alpha, s)
    # G decays on both sides only with one root left of the axis and two right
    if not s[0].real < -1e-9 < 1e-9 < s[1].real:
        raise ParameterError(f"lambda={lam} has a shifted root on the imaginary axis "
                             f"(alpha={alpha}): real parts {np.round(s.real, 6)}")
    sep = min(abs(s[0] - s[1]), abs(s[0] - s[2]), abs(s[1] - s[2]))
    # a true double root only resolves to ~sqrt(eps) numerically
    if sep < 1e-6:
        raise SolverError(f"coalescing characteristic roots at lambda={lam}")
    ck = params.c - params.k
    a = tuple(
        1.0 / (ck * np.prod([s[j] - s[i] for i in range(3) if i != j]))
        for j in range(3)
    )
    return GreenFunction(lam=complex(lam), alpha=float(alpha), roots=tuple(s), a=a)


@_no_overflow
def green_apply(gf: GreenFunction, phi, h: float) -> np.ndarray:
    """Solve (lambda - A_alpha^inf) u = phi for decaying phi on the grid."""
    phi = _grid_function(phi, "phi")
    psi = kernel.spectral_multiplier(phi, h, lambda s: 1.0 - (1j * s - gf.alpha) ** 2)
    s1, s2, s3 = gf.roots
    a1, a2, a3 = gf.a
    u = a1 * kernel.causal_exp_conv(psi, -s1, h)
    u -= a2 * kernel.causal_exp_conv(psi[::-1], s2, h)[::-1]
    u -= a3 * kernel.causal_exp_conv(psi[::-1], s3, h)[::-1]
    if np.isrealobj(phi) and abs(np.imag(gf.lam)) < 1e-14:
        return u.real
    return u


@_no_overflow
def resolvent_norm_scan(params: WaveParams, alpha: float, xs) -> dict:
    """Discretized L^2 norm of the free resolvent along real lambda = x.

    The constant-coefficient operator diagonalizes in Fourier, so the norm is
    max over 160 001 sigma in [-400, 400] of 1/|x - lambda_alpha(sigma)|, returned
    with its products against |x| and |x|^2; the |x|^2
    product is the scaling a uniform quadratic decay of the resolvent would
    require, the |x| product is what a distance-to-spectrum bound allows.
    The |x|^2 product cannot stay flat in L^2: ||R(lambda)|| >= 1/dist(lambda,
    sigma) holds for any closed operator, and here the spectrum reaches -gap.
    """
    gap = spectral_gap(params, alpha)
    sigma = np.linspace(-_SCAN_SIGMA_MAX, _SCAN_SIGMA_MAX, _SCAN_POINTS)
    lam_curve = lambda_of_r(1j * sigma - alpha, params)
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ParameterError("x must be finite")
    dist = np.array([np.min(np.abs(x - lam_curve)) for x in xs])
    on_curve = xs[dist == 0.0]
    if on_curve.size:
        raise ParameterError(
            f"x={on_curve[0]} lies on the sampled weighted essential spectrum"
        )
    norms = 1.0 / dist
    return {
        "x": xs,
        "norm": norms,
        "norm_times_x2": norms * xs ** 2,
        "norm_times_x1": norms * np.abs(xs),
        "gap": gap,
    }


@dataclass
class EvolutionState:
    """Record times t, norms norm_w, the final state w, the run's solver
    settings, and the flow's own record columns aligned with t: ip_eta1 and
    ip_eta2 = <eta_j, w(t)> for the linearized flow, the invariants E, Q and
    H for the nonlinear flow, none for the free flow.

    The norms must be finite and non-negative: the zero datum of the
    linearized or free flow and the exact background of the nonlinear flow
    are valid runs of norm 0, which `decay_rate` refuses to fit."""

    dt: float
    T: float
    t: np.ndarray
    norm_w: np.ndarray
    w: np.ndarray
    config: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise SolverError("trajectory timestamps must increase strictly")
        if not np.all((self.norm_w >= 0.0) & (self.norm_w < np.inf)):
            raise SolverError("trajectory norm record must be finite and non-negative")


# fixed work limits of one run, far above the defaults (201 records, 728 RK4
# steps of linear-evolve at L = 40, h = 0.04)
_MAX_RECORDS = 100_000
_MAX_STEPS = 1_000_000


def _check_records(T: float, n_records: int) -> None:
    if not 0.0 < T < np.inf:
        raise ParameterError(f"final time must be positive and finite, got T={T}")
    if n_records < 2:
        raise ParameterError(f"need at least 2 records, got n_records={n_records}")
    if n_records > _MAX_RECORDS:
        raise ParameterError(
            f"at most {_MAX_RECORDS} records per run, got n_records={n_records}")


def _schedule(T: float, n_records: int, dt: float | None, dt_safe: float,
              dt_max: float, bound: str) -> tuple[int, float, set]:
    """nsteps >= n_records - 1 equal steps of at most dt (default dt_safe)
    over [0, T], and the n_records distinct steps round(linspace(0, nsteps,
    n_records)) to record; dt must lie in (0, dt_max], dt_max being `bound`.
    A run takes at most 1 000 000 RK4 steps and 100 000 records."""
    _check_records(T, n_records)
    if dt is None:
        dt = dt_safe
    elif not 0.0 < dt <= dt_max:
        raise ParameterError(
            f"dt={dt} is outside (0, {dt_max:.3e}], the {bound}; "
            f"use dt <= {dt_safe:.3e}"
        )
    if T > _MAX_STEPS * dt:
        raise ParameterError(
            f"T={T} at dt={dt:.3e} needs more than {_MAX_STEPS} RK4 steps, "
            "the limit of one run"
        )
    nsteps = max(int(np.ceil(T / dt)), n_records - 1)
    record_at = set(np.rint(np.linspace(0, nsteps, n_records)).astype(int).tolist())
    return nsteps, T / nsteps, record_at


def _march(w, step, schedule: tuple, observe, names: tuple):
    """Time steps over the schedule.  step(w, t) returns the state one step of
    dt after the state w at time t; observe(t, w) returns the record row
    (||w||, *columns) of the state w at t = 0 and at every record step.
    Returns the final state, the record times, the norms and the {name:
    column} records."""
    nsteps, dt, record_at = schedule
    times, rows = [0.0], [observe(0.0, w)]
    for i in range(1, nsteps + 1):
        w = step(w, (i - 1) * dt)
        if i in record_at:
            times.append(i * dt)
            rows.append(observe(i * dt, w))
    norms, *columns = np.array(rows).T
    return w, np.array(times), norms, dict(zip(names, columns))


def free_evolve(w0, params: WaveParams, alpha: float, T: float, h: float,
                n_records: int = 201) -> EvolutionState:
    """Exact multiplier evolution over the flat background, recorded at
    linspace(0, T, n_records): one rfft of the real datum w0 and one symbol
    per run, then one irfft per record.
    Weights: finite with |alpha| != 1; one without a gap (alpha < 0 or
    alpha_crit <= alpha < 1) warns."""
    _check_alpha(alpha)
    _check_records(T, n_records)
    w0 = np.asarray(w0)
    if w0.ndim != 1 or w0.size < 2 or np.iscomplexobj(w0) or not np.all(np.isfinite(w0)):
        raise ParameterError("w0 must be a real, finite 1-d grid function")
    n = w0.size
    lam = lambda_of_r(1j * kernel.rfft_sigma(n, h) - alpha, params)
    ac = derived_constants(params).alpha_crit
    if alpha < 0.0 or ac <= alpha < 1.0:
        warnings.warn(
            f"weight alpha={alpha} has no spectral gap: growth expected",
            stacklevel=2,
        )
    w0_hat = rfft(w0)
    times = np.linspace(0.0, T, n_records)
    norms = np.empty(n_records)
    for i, t in enumerate(times):
        w = irfft(np.exp(lam * t) * w0_hat, n)
        norms[i] = l2_norm(w, h)
    config = {"kind": "free", "k": params.k, "c": params.c, "alpha": alpha,
              "h": h, "n_fft": n, "T": T}
    return EvolutionState(dt=float(times[1] - times[0]), T=T, t=times,
                          norm_w=norms, w=w, config=config)


def _linear_step(profile: Profile, alpha: float, dt: float):
    """The RK4 step of v' = A_alpha v on the rfft half-spectrum of `_symbols`.
    For a linear autonomous flow RK4 is the degree-4 Taylor polynomial of
    exp(dt A_alpha), here in Horner form y <- v + (dt/j) A_alpha y for j = 4, 3,
    2, 1, with the stage multipliers (dt/j) p and (dt/j) 3c q of `_symbols`;
    each stage zeroes the DC and Nyquist imaginary parts, as `_spectral_rhs`
    does."""
    cmu, p, q3, real_modes = _symbols(profile, alpha)
    n = cmu.size
    stages = [(dt / j * p, dt / j * q3) for j in (4, 3, 2, 1)]
    w, qy = np.empty(n), np.empty_like(p)

    def step(v, t):
        y = v
        for pj, qj in stages:
            ay = rfft(np.multiply(irfft(y, n, out=w), cmu, out=w))
            ay *= pj
            ay -= np.multiply(qj, y, out=qy)
            ay += v
            ay.imag[real_modes] = 0.0
            y = ay
        return y

    return step


def linear_evolve(w0, profile: Profile, alpha: float, T: float,
                  dt: float | None = None, project_out: bool = True,
                  n_records: int = 201) -> EvolutionState:
    """Integrate w_t = A_alpha w by RK4, recording norms and eta-pairings.

    With project_out the data is first reduced by the complementary kernel
    projection; the recorded pairings <eta_j, w(t)> then measure how well the
    projection commutes with the discrete flow, and a run whose largest
    pairing exceeds 1e-2 of the projected data norm (plus 1e-8 of the
    datum's) raises `SolverError`.  The flow runs on the periodic grid of the
    first N - 1 profile nodes, stepping the rfft half-spectrum of the state;
    recorded and returned states are back on the grid and carry the seam
    node as a copy of node 0.
    """
    basis = kernel.kernel_basis(profile, alpha)
    w = np.array(w0, dtype=float, copy=True)
    if w.shape != profile.xi.shape:
        raise ParameterError("w0 is not on the profile grid")
    if not np.all(np.isfinite(w)):
        raise ParameterError("w0 must be finite")
    if project_out:
        _, w = kernel.project(w, basis)
    rate = _norm_bound(profile, alpha)
    schedule = _schedule(
        T, n_records, dt, 2.5 / rate, 2.8 / rate,
        f"RK4 stability bound 2.8/{rate:.3e} from the norm of A_alpha",
    )
    h = profile.h
    n = w.size - 1

    def observe(t, v):
        w = kernel.close_seam(irfft(v, n))
        if not np.all(np.isfinite(w)):
            raise SolverError(f"linear evolution lost finiteness at t={t}")
        return (l2_norm(w, h), float(np.trapezoid(basis.eta1 * w, dx=h)),
                float(np.trapezoid(basis.eta2 * w, dx=h)))

    dt = schedule[1]
    v, t, norms, records = _march(rfft(w[:n]), _linear_step(profile, alpha, dt),
                                  schedule, observe, ("ip_eta1", "ip_eta2"))
    drift = max(np.abs(records["ip_eta1"]).max(), np.abs(records["ip_eta2"]).max())
    if project_out and drift > _MAX_DRIFT * norms[0] + _KERNEL_FLOOR * l2_norm(w0, h):
        raise SolverError(
            f"kernel pairing drift {drift:.3g} exceeds {_MAX_DRIFT:g} of the data "
            f"norm {norms[0]:.3g} at alpha={alpha}, L={profile.L}: the projected "
            "flow leaves the complement of the kernel"
        )
    config = {
        "kind": "linear", "k": profile.params.k, "c": profile.params.c,
        "alpha": alpha, "L": profile.L, "h": h, "n_fft": n, "dt": dt, "T": T,
        "projected": bool(project_out),
    }
    return EvolutionState(dt=dt, T=T, t=t, norm_w=norms,
                          w=kernel.close_seam(irfft(v, n)),
                          config=config, records=records)


def _positive_momentum(a, k: float, t: float) -> np.ndarray:
    """m = k + a, the momentum at time t, checked finite and positive."""
    m = a + k
    mn = float(np.min(m))
    if not np.isfinite(mn) or mn <= 0.0:
        raise SolverError(f"momentum positivity lost at t={t:.6f} (min m = {mn})")
    return m


def nonlinear_evolve(m0, params: WaveParams, T: float, h: float,
                     dt: float | None = None, n_records: int = 201) -> EvolutionState:
    """Integrate the co-moving momentum flow m_t = -(u - c) m' - 3 u' m.

    m0 lives on a closed grid of odd length N; the flow runs on the periodic
    grid of its first N - 1 nodes.  u is recovered from m through the
    periodic Helmholtz multiplier.  No mode is filtered: on a grid that
    resolves the datum a filter moves the run only by rounding.  The records are E, Q and H
    (`kernel.conserved`), taken at every record time through the independent
    recursion-based quadrature route; the final state is the only state
    returned.  Every state is checked finite and positive before it is used,
    else `SolverError` names its time.  A datum at rest in the frame (u = c
    everywhere) sets no advective step bound: the run then takes n_records - 1
    steps.
    """
    m = np.array(m0, dtype=float, copy=True)
    if m.ndim != 1 or m.size < 16 or m.size % 2 == 0:
        raise ParameterError("m0 must be a 1-d grid function with an odd length")
    if not np.all(m > 0.0):
        raise ParameterError("m0 must be positive everywhere")
    k, c = params.k, params.c
    n = m.size - 1
    sig = kernel.rfft_sigma(n, h)
    inv_helm = 1.0 / (1.0 + sig * sig)
    mk_hat = rfft(m[:n] - k)
    u0_k = irfft(inv_helm * mk_hat, n)
    rate = float(np.max(np.abs(u0_k + k - c))) * float(sig.max())
    # a state at rest in the frame (u = c) sets no advective step bound
    schedule = _schedule(T, n_records, dt, 2.0 / rate if rate else np.inf,
                         2.8 / rate if rate else np.inf, "advective stability bound")
    dt = schedule[1]

    # The march carries the half-spectrum f of m - k.  rows(f, 0) are
    # m - k, u - k, u' and m' of f, rows(f, 1) the last three.  The stages keep
    # classical RK4's arithmetic on m_t = -s, s = (u - c) m' + 3u' m, which
    # slope writes over the row of u - k; stage sums and grid rows live in
    # buffers, and a step returns a new f
    syms = np.array([np.ones_like(sig), inv_helm, 1j * sig * inv_helm, 1j * sig])
    spec = np.empty(syms.shape, dtype=complex)
    grid = np.empty((4, n))
    stage_hat = np.empty(sig.size, dtype=complex)
    sums = np.empty((2, n))

    def rows(f, first):
        return irfft(np.multiply(syms[first:], f, out=spec[first:]), n, out=grid[first:])

    def slope(mm, u_k, ux, mx):
        u_k += k
        u_k -= c
        u_k *= mx
        ux *= 3.0
        ux *= mm
        u_k += ux
        return u_k

    def step(f, t):
        stage, acc = sums
        a, *r = rows(f, 0)
        m = _positive_momentum(a, k, t)
        s = slope(m, *r)
        acc[:] = s
        for c_s, b_s in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            np.subtract(m, np.multiply(s, c_s * dt, out=stage), out=stage)
            np.subtract(stage, k, out=a)
            s = slope(stage, *rows(rfft(a, out=stage_hat), 1))
            acc += b_s * s
        np.subtract(m, np.multiply(acc, dt / 6.0, out=acc), out=acc)
        acc -= k
        return rfft(acc)

    def observe(t, f):
        mm = kernel.close_seam(_positive_momentum(irfft(f, n), k, t))
        cv = kernel.conserved(params, h, m=mm)
        return l2_norm(mm - k, h), cv.E_mass, cv.Q, cv.H

    f, t, norms, records = _march(mk_hat, step, schedule, observe, ("E", "Q", "H"))
    config = {"kind": "nonlinear", "k": k, "c": c, "L": 0.5 * h * n, "h": h,
              "n_fft": n, "dt": dt, "T": T}
    return EvolutionState(dt=dt, T=T, t=t, norm_w=norms,
                          w=kernel.close_seam(k + irfft(f, n)),
                          config=config, records=records)


def decay_rate(traj: EvolutionState, window: tuple | None = None) -> float:
    """Least-squares slope of log ||w(t)|| over the fitting window.

    Defaults to [T/5, 4T/5], excluding the transient and the truncation tail.
    The slope resolves to about eps max(1, max |log ||w|||) over the window
    length; a fit whose rounding floor exceeds 1e-6 is refused.  A norm in the
    window that is not positive, such as a zero state's, raises `SolverError`.
    """
    if window is None:
        window = (traj.T / 5.0, 4.0 * traj.T / 5.0)
    mask = (traj.t >= window[0]) & (traj.t <= window[1])
    if np.count_nonzero(mask) < 3:
        raise ParameterError("fitting window contains fewer than 3 records")
    norms = traj.norm_w[mask]
    if not np.all(norms > 0.0):
        raise SolverError("norm record is not strictly positive in the window")
    t = traj.t[mask]
    # polyfit scales the time column by its 2-norm, which must be a normal
    # float: squares that underflow or overflow leave a singular fit
    with np.errstate(over="ignore", under="ignore"):
        tt = float(np.dot(t, t))
    if not np.finfo(float).tiny <= tt < np.inf:
        raise ParameterError(
            f"record times in the window [{window[0]:.3g}, {window[1]:.3g}] "
            "are too small or too large for a least-squares fit"
        )
    log_norms = np.log(norms)
    floor = np.finfo(float).eps * max(1.0, float(np.max(np.abs(log_norms)))) / (t[-1] - t[0])
    if not floor <= 1e-6:
        raise ParameterError(
            f"the window [{window[0]:.3g}, {window[1]:.3g}] is too short to fit a "
            f"slope: its rounding floor {floor:.3g} exceeds 1e-6"
        )
    return float(np.polyfit(t, log_norms, 1)[0])


@dataclass(frozen=True)
class ModulationFit:
    """Best-fit wave parameters for a state near the solitary family."""

    c_star: float
    gamma_star: float
    residual: float
    converged: bool
    n_iter: int
    history: tuple


def modulation_fit(u, params: WaveParams, alpha: float, h: float) -> ModulationFit:
    """Damped Gauss-Newton fit of (c, gamma) minimizing the weighted misfit.

    The Jacobian is frozen at the seed (c, 0): columns e^{alpha xi} d_c u0 and
    -e^{alpha xi} u0'.  Each iterate evaluates the closed-form profile at the
    candidate speed and shifted positions, so gamma is not restricted to
    grid multiples.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size % 2 == 0:
        raise ParameterError("u must be a 1-d grid function with an odd length")
    if not (np.isfinite(u).all() and np.isfinite(alpha)):
        raise ParameterError(f"u and the weight alpha={alpha} must be finite")
    base = solve_profile(params, L=0.5 * h * (u.size - 1), h=h)
    xi = base.xi
    weight = np.exp(alpha * xi)
    k, c = params.k, params.c
    j_c = weight * dc_profile(base)
    j_g = -weight * base.u0_p
    # frozen 2x2 normal matrix of the Gauss-Newton step
    M = np.array([
        [np.trapezoid(j_c * j_c, dx=h), np.trapezoid(j_c * j_g, dx=h)],
        [np.trapezoid(j_g * j_c, dx=h), np.trapezoid(j_g * j_g, dx=h)],
    ])

    def model(cv, gv):
        if not 0.0 < k < cv / 4.0:
            raise SolverError(f"fit iterate left the admissible region: c={cv}")
        return k + profile_w(WaveParams(k, cv), xi - gv)[0]

    def resid(cv, gv):
        return weight * (u - model(cv, gv))

    cs, gs = c, 0.0
    r = resid(cs, gs)
    rn = l2_norm(r, h)
    history = [(cs, gs, rn)]
    converged = False
    it = 0
    for it in range(1, _FIT_MAX_ITER + 1):
        b = np.array([np.trapezoid(j_c * r, dx=h), np.trapezoid(j_g * r, dx=h)])
        try:
            step = np.linalg.solve(M, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular normal equations in the modulation fit") from exc
        if abs(step[0]) <= 1e-9 * max(1.0, abs(cs)) and abs(step[1]) <= 1e-9:
            converged = True
            break
        lam = 1.0
        improved = False
        for _ in range(9):
            cn, gn = cs + lam * step[0], gs + lam * step[1]
            rc = resid(cn, gn)
            rcn = l2_norm(rc, h)
            if rcn < rn * (1.0 - 1e-12):
                cs, gs, r, rn = cn, gn, rc, rcn
                improved = True
                break
            lam *= 0.5
        history.append((cs, gs, rn))
        if not improved:
            # the parameters sit at the residual floor: the full step no
            # longer reduces the misfit, which for a descent method is the
            # stopping state once the step has also become small
            converged = abs(step[0]) <= 1e-6 and abs(step[1]) <= 1e-6
            break
    if rn >= 0.1:
        raise ParameterError(
            f"weighted misfit {rn:.3e} after fitting: the state is outside "
            "the trust region of the solitary family (residual < 0.1)"
        )
    return ModulationFit(
        c_star=float(cs), gamma_star=float(gs), residual=float(rn),
        converged=converged, n_iter=it, history=tuple(history),
    )
