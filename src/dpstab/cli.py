"""Command line front end exposing every pipeline as a subcommand.

Each subcommand mirrors one module entry point, writes its CSV/JSON
artifacts with the resolved configuration embedded, and reports through
exit codes: 0 on success, 2 on a validation error (including unknown
flags), 3 on a numerical failure.  A ``--config file.json`` path
overrides flag values so a run can be replayed from its own sidecar.
Identical resolved configuration yields byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import dispersion, evans, evolve, kernel, lax, wave
from .wave import ParameterError, SolverError, WaveParams

__all__ = ["RunConfig", "run", "main"]

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    typ: type
    default: object
    help: str


def _opt(typ, default, help):
    return _Opt(typ, default, help)


_PARAMS = {
    "k": _opt(float, _REQUIRED, "background height k, 0 < k < c/4"),
    "c": _opt(float, _REQUIRED, "wave speed c > 0"),
}
_ALPHA_REQ = {"alpha": _opt(float, _REQUIRED, "exponential weight rate")}
_ALPHA_OPT = {"alpha": _opt(float, 0.0, "exponential weight rate")}
_GRID = {
    "L": _opt(float, 40.0, "half-length of the grid"),
    "h": _opt(float, 0.02, "grid spacing"),
}
_CONFIG = {"config": _opt(str, None, "JSON file whose entries override flags")}
_PLOT = {"plot_script": _opt(str, None,
                             "write a plain-text plotting script to this path")}
_BUMP = {
    "center": _opt(float, 2.0, "center of the Gaussian disturbance"),
    "width": _opt(float, 1.0, "width of the Gaussian disturbance"),
}


def _out(stem):
    return {"out": _opt(str, stem, "output path prefix")}


_TABLES = {
    "profile": {
        **_PARAMS, **_GRID,
        "tol": _opt(float, 1e-13, "shooting tolerance"),
        **_out("profile"), **_PLOT, **_CONFIG,
    },
    "spectrum": {
        **_PARAMS, **_ALPHA_REQ,
        "sigma_max": _opt(float, 40.0, "half-width of the frequency window"),
        "n": _opt(int, 2001, "number of frequency samples"),
        **_out("spectrum"), **_PLOT, **_CONFIG,
    },
    "gap": {**_PARAMS, **_ALPHA_REQ, **_CONFIG},
    "evans": {
        **_PARAMS, **_ALPHA_OPT,
        "lam_re": _opt(float, _REQUIRED, "real part of lambda"),
        "lam_im": _opt(float, 0.0, "imaginary part of lambda"),
        **_GRID,
        "nsub": _opt(int, 10, "integration substeps per grid cell"),
        "out": _opt(str, None, "optional JSON output path prefix"),
        **_CONFIG,
    },
    "winding": {
        **_PARAMS, **_ALPHA_OPT,
        "contour": _opt(str, "circle", "contour kind: circle, rectangle, keyhole"),
        "center": _opt(complex, 0j, "contour center, Python complex syntax"),
        "radius": _opt(float, 0.05, "circle radius"),
        "n_nodes": _opt(int, 64, "initial node count on a circle"),
        "re_min": _opt(float, -0.2, "rectangle left edge"),
        "re_max": _opt(float, 2.0, "rectangle right edge"),
        "im_abs": _opt(float, 2.0, "rectangle half-height"),
        "hole_radius": _opt(float, 0.05, "keyhole excluded-disc radius"),
        "density": _opt(float, 8.0, "rectangle nodes per unit length"),
        **_GRID,
        "nsub": _opt(int, None, "fixed integration substeps per grid cell; default: "
                     "error-controlled, nsub 1 and 2 refined per node up to 16"),
        **_out("winding"), **_CONFIG,
    },
    "lax": {
        **_PARAMS,
        "lam_re": _opt(float, _REQUIRED, "real part of lambda"),
        "lam_im": _opt(float, 0.0, "imaginary part of lambda"),
        **_out("lax"), **_CONFIG,
    },
    "kernel": {
        **_PARAMS, **_ALPHA_REQ, **_GRID,
        **_out("kernel"), **_PLOT, **_CONFIG,
    },
    "free-evolve": {
        **_PARAMS, **_ALPHA_REQ,
        "t_final": _opt(float, 40.0, "final time"),
        "n_records": _opt(int, 201, "number of recorded times"),
        "width": _opt(float, 3.0, "width of the Gaussian datum"),
        **_GRID,
        **_out("free-evolve"), **_PLOT, **_CONFIG,
    },
    "linear-evolve": {
        **_PARAMS, **_ALPHA_REQ,
        "t_final": _opt(float, 25.0, "final time"),
        "dt": _opt(float, None, "time step, default from the spectral radius"),
        "n_records": _opt(int, 201, "number of recorded times"),
        **_BUMP,
        "no_project": _opt(bool, False,
                           "skip the complementary kernel projection"),
        **_GRID,
        **_out("linear-evolve"), **_PLOT, **_CONFIG,
    },
    "nonlinear-evolve": {
        **_PARAMS,
        "t_final": _opt(float, 5.0, "final time"),
        "dt": _opt(float, None, "time step, default from the advective bound"),
        "delta": _opt(float, 1e-3, "disturbance amplitude"),
        "n_records": _opt(int, 201, "number of recorded times"),
        **_BUMP,
        "no_filter": _opt(bool, False, "disable the high-mode filter"),
        "L": _opt(float, 40.0, "half-length of the grid"),
        "h": _opt(float, 0.05, "grid spacing"),
        **_out("nonlinear-evolve"), **_PLOT, **_CONFIG,
    },
    "selftest": {
        "k": _opt(float, 0.1, "background height k"),
        "c": _opt(float, 1.0, "wave speed c"),
        **_CONFIG,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved subcommand options after the config-file merge."""

    subcommand: str
    options: dict

    def resolved(self) -> dict:
        out = {"subcommand": self.subcommand}
        for key in sorted(self.options):
            if key != "config":
                out[key] = self.options[key]
        return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpstab",
        description="solitary-wave stability laboratory for the "
                    "Degasperis-Procesi equation on a constant background",
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, table in _TABLES.items():
        sp = subs.add_parser(name)
        for key, opt in table.items():
            flag = "--" + key.replace("_", "-")
            if opt.typ is bool:
                sp.add_argument(flag, action="store_true", help=opt.help)
            else:
                text = opt.help + (" (required)" if opt.default is _REQUIRED
                                   else "")
                default = None if opt.default is _REQUIRED else opt.default
                sp.add_argument(flag, type=opt.typ, default=default, help=text)
    return parser


def _coerce(key: str, value, opt: _Opt):
    if opt.typ is bool:
        if not isinstance(value, bool):
            raise ParameterError(f"flag --{key.replace('_', '-')} is boolean")
        return value
    if value is None:
        return None
    flag = "--" + key.replace("_", "-")
    # int() would take JSON true/false and truncate 2.7 from a config file
    if opt.typ is int and (isinstance(value, bool)
                           or isinstance(value, float) and not value.is_integer()):
        raise ParameterError(f"{flag} must be an integer, got {value!r}")
    try:
        value = opt.typ(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad value for {flag}: {exc}") from exc
    # float() and JSON both accept nan and inf, which no option admits
    if opt.typ in (float, complex) and not np.isfinite(value):
        raise ParameterError(f"{flag} must be finite, got {value}")
    return value


def _resolve_options(ns: argparse.Namespace, table: dict) -> dict:
    options = {key: getattr(ns, key) for key in table}
    path = options.get("config")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a JSON object")
        for raw_key, value in data.items():
            key = raw_key.replace("-", "_")
            if key == "config" or key not in table:
                raise ParameterError(f"unknown config key: {raw_key}")
            options[key] = value
    for key, opt in table.items():
        options[key] = _coerce(key, options[key], opt)
        if opt.default is _REQUIRED and options[key] is None:
            raise ParameterError(
                f"missing required flag --{key.replace('_', '-')}")
    return options


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: str, names, cols) -> None:
    cols = [np.asarray(col, dtype=float) for col in cols]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(cols[0].size):
            fh.write(",".join("%.17g" % col[i] for col in cols) + "\n")


def _write_plot_script(path: str, csv_path: str, title: str,
                       logy: bool = False) -> None:
    lines = [
        "# plotting script (gnuplot syntax); nothing is rendered here",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set title "{title}"',
    ]
    if logy:
        lines.append("set logscale y")
    lines.append(f'plot "{csv_path}" using 1:2 with lines')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _params(options: dict) -> WaveParams:
    return WaveParams(k=options["k"], c=options["c"])


def _cmd_profile(cfg: RunConfig) -> int:
    o = cfg.options
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"], tol=o["tol"])
    meta = wave.profile_meta(prof)
    wave.write_profile_csv(prof, o["out"] + ".csv")
    _write_json(o["out"] + ".json", {"config": cfg.resolved(), **meta})
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv", "wave profile")
    print(f"u_max = {meta['u_max']:.10f}")
    print(f"wrote {o['out']}.csv, {o['out']}.json")
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    o = cfg.options
    if o["n"] < 2:
        raise ParameterError("need at least 2 frequency samples")
    params = _params(o)
    sigma = np.linspace(-o["sigma_max"], o["sigma_max"], o["n"])
    curve = dispersion.ess_spectrum_curve(params, o["alpha"], sigma)
    gap = dispersion.spectral_gap(params, o["alpha"])
    _write_csv(o["out"] + ".csv", ("sigma", "re_lambda", "im_lambda"),
               (curve.sigma, curve.lam.real, curve.lam.imag))
    _write_json(o["out"] + ".json", {
        "config": cfg.resolved(),
        "gap": gap,
        "max_re": float(curve.lam.real.max()),
    })
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv",
                           "weighted essential spectrum")
    print(f"spectral gap = {gap:.12g}")
    return 0


def _cmd_gap(cfg: RunConfig) -> int:
    o = cfg.options
    print(f"{dispersion.spectral_gap(_params(o), o['alpha']):.12g}")
    return 0


def _cmd_evans(cfg: RunConfig) -> int:
    o = cfg.options
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    lam = complex(o["lam_re"], o["lam_im"])
    sample = evans.evans_eval(lam, prof, o["alpha"], nsub=o["nsub"])
    if o["out"]:
        _write_json(o["out"] + ".json", {
            "config": cfg.resolved(),
            "re": sample.value.real,
            "im": sample.value.imag,
            "renorm_exponent": sample.renorm_exponent,
        })
    print(f"D = {_fmt_c(sample.value)}")
    return 0


def _cmd_winding(cfg: RunConfig) -> int:
    o = cfg.options
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    kind = o["contour"]
    if kind == "circle":
        contour = evans.circle_contour(center=o["center"], radius=o["radius"],
                                       n=o["n_nodes"])
    elif kind == "rectangle":
        contour = evans.rectangle_contour(o["re_min"], o["re_max"],
                                          o["im_abs"], density=o["density"])
    elif kind == "keyhole":
        contour = evans.keyhole_contour(o["re_min"], o["re_max"], o["im_abs"],
                                        hole_radius=o["hole_radius"],
                                        hole_center=o["center"],
                                        density=o["density"])
    else:
        raise ParameterError(f"unknown contour kind: {kind}")
    result = evans.winding_count(contour, prof, o["alpha"], nsub=o["nsub"])
    _write_json(o["out"] + ".json", {
        "config": cfg.resolved(),
        "winding": result.winding,
        "min_abs_D": result.min_abs_D,
        "err_ratio": result.err_ratio,
        "nsub_max": result.nsub_max,
    })
    print(f"winding = {result.winding}")
    return 0


def _cmd_lax(cfg: RunConfig) -> int:
    o = cfg.options
    data = lax.m_cubic(complex(o["lam_re"], o["lam_im"]), _params(o))
    _write_json(o["out"] + ".json",
                {"config": cfg.resolved(), **lax.root_report(data)})
    print(f"discriminant = {_fmt_c(data.discriminant)}")
    return 0


def _cmd_kernel(cfg: RunConfig) -> int:
    o = cfg.options
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    basis = kernel.kernel_basis(prof, o["alpha"])
    report = kernel.basis_report(basis)
    kernel.write_basis_csv(basis, o["out"] + ".csv")
    _write_json(o["out"] + ".json", {"config": cfg.resolved(), **report})
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv",
                           "generalized kernel basis")
    print(f"theta1 = {report['theta1']:.12g}")
    print(f"theta2 = {report['theta2']:.12g}")
    return 0


def _cmd_free_evolve(cfg: RunConfig) -> int:
    o = cfg.options
    params = _params(o)
    if o["t_final"] <= 0.0:
        raise ParameterError("t-final must be positive")
    if o["n_records"] < 4:
        raise ParameterError("need at least 4 records")
    if o["width"] <= 0.0:
        raise ParameterError("width must be positive")
    if o["L"] <= 0.0 or o["h"] <= 0.0:
        raise ParameterError("L and h must be positive")
    n = int(round(2.0 * o["L"] / o["h"]))
    if n < 16:
        raise ParameterError("grid too small")
    xi = -o["L"] + o["h"] * np.arange(n)
    w0 = np.exp(-xi * xi / (2.0 * o["width"] ** 2))
    times = np.linspace(0.0, o["t_final"], o["n_records"])
    norms = np.empty(times.size)
    flow = evolve.free_flow(w0, params, o["alpha"], o["h"])
    for i, t in enumerate(times):
        w = evolve.free_evolve(w0, params, o["alpha"], float(t), o["h"], flow)
        norms[i] = evolve.l2_norm(w, o["h"])
    traj = evolve.EvolutionState(
        kind="free", params=params, alpha=o["alpha"], h=o["h"],
        dt=float(times[1] - times[0]), T=o["t_final"], t=times, norm_w=norms,
        ip_eta1=None, ip_eta2=None, w=w, config=cfg.resolved())
    rate = evolve.decay_rate(traj)
    evolve.write_trajectory_csv(traj, o["out"] + ".csv")
    _write_json(o["out"] + ".json",
                {"config": cfg.resolved(), "decay_rate": rate})
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv",
                           "constant-background decay", logy=True)
    print(f"decay rate = {rate:.6g}")
    return 0


def _cmd_linear_evolve(cfg: RunConfig) -> int:
    o = cfg.options
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    xi = prof.xi
    w0 = np.exp(-((xi - o["center"]) ** 2) / (2.0 * o["width"] ** 2))
    traj = evolve.linear_evolve(w0, prof, o["alpha"], T=o["t_final"],
                                dt=o["dt"], project_out=not o["no_project"],
                                n_records=o["n_records"])
    rate = evolve.decay_rate(traj)
    evolve.write_trajectory_csv(traj, o["out"] + ".csv")
    _write_json(o["out"] + ".json", {
        "config": cfg.resolved(),
        "solver": traj.config,
        "decay_rate": rate,
    })
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv",
                           "linearized decay", logy=True)
    print(f"decay rate = {rate:.6g}")
    return 0


def _cmd_nonlinear_evolve(cfg: RunConfig) -> int:
    o = cfg.options
    params = _params(o)
    prof = wave.solve_profile(params, L=o["L"], h=o["h"])
    xi = prof.xi
    u = prof.u0 + o["delta"] * np.exp(-((xi - o["center"]) ** 2)
                                      / (2.0 * o["width"] ** 2))
    sig = 2.0 * np.pi * np.fft.fftfreq(xi.size, d=o["h"])
    m0 = np.fft.ifft((1.0 + sig * sig) * np.fft.fft(u)).real
    traj = evolve.nonlinear_evolve(m0, params, T=o["t_final"], h=o["h"],
                                   dt=o["dt"],
                                   filter_modes=not o["no_filter"],
                                   n_records=o["n_records"])
    drift = {key: float((traj.extra[key][-1] - traj.extra[key][0])
                        / max(abs(traj.extra[key][0]), 1e-300))
             for key in ("E", "Q", "H")}
    evolve.write_trajectory_csv(traj, o["out"] + ".csv")
    _write_json(o["out"] + ".json", {
        "config": cfg.resolved(),
        "solver": traj.config,
        "invariant_drift": drift,
    })
    if o["plot_script"]:
        _write_plot_script(o["plot_script"], o["out"] + ".csv",
                           "nonlinear residual norm", logy=True)
    print("invariant drift: E {E:.3g}, Q {Q:.3g}, H {H:.3g}".format(**drift))
    return 0


def _cmd_selftest(cfg: RunConfig) -> int:
    o = cfg.options
    sign = dispersion.sign_convention_report(_params(o))
    cubic = lax.mcubic_selftest()
    ok_sign = bool(sign["consistent"])
    ok_cubic = bool(cubic["consistent"])
    print(f"dispersion sign convention [{'ok' if ok_sign else 'FAIL'}] "
          f"family {sign['family']}, curve residual "
          f"{sign['curve_residual']:.3g}, rejected-family residual "
          f"{sign['rejected_family_residual']:.3g}")
    print(f"factorization identity [{'ok' if ok_cubic else 'FAIL'}] "
          f"family {cubic['family']}, {len(cubic['samples'])} rational samples")
    return 0 if ok_sign and ok_cubic else 3


_HANDLERS = {
    "profile": _cmd_profile,
    "spectrum": _cmd_spectrum,
    "gap": _cmd_gap,
    "evans": _cmd_evans,
    "winding": _cmd_winding,
    "lax": _cmd_lax,
    "kernel": _cmd_kernel,
    "free-evolve": _cmd_free_evolve,
    "linear-evolve": _cmd_linear_evolve,
    "nonlinear-evolve": _cmd_nonlinear_evolve,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    """Parse argv, dispatch one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if ns.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        options = _resolve_options(ns, _TABLES[ns.subcommand])
        return _HANDLERS[ns.subcommand](RunConfig(ns.subcommand, options))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
