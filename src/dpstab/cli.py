"""Command line front end exposing every pipeline as a subcommand.

Each subcommand mirrors one module entry point, writes its CSV/JSON
artifacts with the resolved configuration embedded, and reports through
exit codes: 0 on success, 2 on a validation error (including unknown
flags), 3 on a numerical failure.  A ``--config file.json`` path
overrides flag values: every entry of the file wins over its flag.  A
sidecar's "config" block replays as is: its "subcommand" entry must name the
running subcommand, a complex value is written and read as [re, im], and its
"out" entry wins over --out like any other entry.  Identical resolved
configuration yields byte-identical outputs.  This is
the only module that reads or writes files: the library returns arrays and
dataclasses, each subcommand shapes its JSON sidecar and CSV columns from
them, and `_emit` writes every artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dispersion, evans, evolve, kernel, lax, wave
from .wave import ParameterError, SolverError, WaveParams

__all__ = ["run", "main"]

_REQUIRED = object()


@dataclass(frozen=True)
class _Opt:
    typ: type
    default: object
    help: str


_PARAMS = {
    "k": _Opt(float, _REQUIRED, "background height k, 0 < k < c/4"),
    "c": _Opt(float, _REQUIRED, "wave speed c > 0"),
}
_ALPHA_REQ = {"alpha": _Opt(float, _REQUIRED, "exponential weight rate")}
_ALPHA_OPT = {"alpha": _Opt(float, 0.0, "exponential weight rate")}
_GRID = {
    "L": _Opt(float, 40.0, "half-length of the grid"),
    "h": _Opt(float, 0.02, "grid spacing"),
}
_LAMBDA = {
    "lam_re": _Opt(float, _REQUIRED, "real part of lambda"),
    "lam_im": _Opt(float, 0.0, "imaginary part of lambda"),
}
_PLOT = {"plot_script": _Opt(str, None,
                              "write a plain-text plotting script to this path")}
_BUMP = {
    "center": _Opt(float, 2.0, "center of the Gaussian disturbance"),
    "width": _Opt(float, 1.0, "width of the Gaussian disturbance"),
}


def _out(stem):
    return {"out": _Opt(str, stem, "output path prefix")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpstab",
        description="solitary-wave stability laboratory for the "
                    "Degasperis-Procesi equation on a constant background",
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, (_, table) in _COMMANDS.items():
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
        sp.add_argument("--config", help="JSON file whose entries override flags")
    return parser


_KINDS = {int: "an integer", float: "a number", complex: "a complex number",
          str: "a string"}


def _coerce(key: str, value, opt: _Opt):
    if opt.typ is bool:
        if not isinstance(value, bool):
            raise ParameterError(f"flag --{key.replace('_', '-')} is boolean")
        return value
    if value is None:
        return None
    flag = "--" + key.replace("_", "-")
    # the sidecar writes a complex value as [re, im]
    pair = opt.typ is complex and isinstance(value, list)
    if pair and (len(value) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ParameterError(f"{flag} must be a complex number or an [re, im] "
                             f"pair of numbers, got {value!r}")
    # int(), float() and complex() would all read JSON true/false as 1 or 0,
    # and int() would truncate 2.7 from a config file
    if isinstance(value, bool) or (opt.typ is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ParameterError(f"{flag} must be {_KINDS[opt.typ]}, got {value!r}")
    try:
        value = complex(*value) if pair else opt.typ(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad value for {flag}: {exc}") from exc
    # float() and JSON both accept nan and inf, which no option admits
    if opt.typ in (float, complex) and not np.isfinite(value):
        raise ParameterError(f"{flag} must be finite, got {value}")
    return value


def _resolve_options(ns: argparse.Namespace, table: dict) -> dict:
    """The subcommand's options, flags overridden by the --config file's
    entries, with the subcommand's name under "subcommand"."""
    options = {key: getattr(ns, key) for key in table}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a JSON object")
        named = data.pop("subcommand", ns.subcommand)
        if named != ns.subcommand:
            raise ParameterError(f"config file is for subcommand {named!r}, "
                                 f"not {ns.subcommand!r}")
        for raw_key, value in data.items():
            key = raw_key.replace("-", "_")
            if key not in table:
                raise ParameterError(f"unknown config key: {raw_key}")
            options[key] = value
    for key, opt in table.items():
        options[key] = _coerce(key, options[key], opt)
        if opt.default is _REQUIRED and options[key] is None:
            raise ParameterError(
                f"missing required flag --{key.replace('_', '-')}")
    return {**options, "subcommand": ns.subcommand}


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


def _emit(o: dict, meta: dict, table: dict | None = None,
          title: str = "", logy: bool = False) -> None:
    """Write the run's artifacts under the --out prefix.

    <out>.json holds {"config": the resolved options o, **meta}.  Given a
    {column: values} table, <out>.csv holds its columns at full precision
    and, when --plot-script is set, a gnuplot script plots the first two.
    """
    with open(o["out"] + ".json", "w", encoding="utf-8") as fh:
        json.dump({"config": o, **meta}, fh, indent=2,
                  sort_keys=True, default=_json_default)
        fh.write("\n")
    if table is None:
        return
    csv = o["out"] + ".csv"
    np.savetxt(csv, np.column_stack(list(table.values())), fmt="%.17g",
               delimiter=",", header=",".join(table), comments="")
    if o["plot_script"]:
        lines = [
            "# plotting script (gnuplot syntax); nothing is rendered here",
            'set datafile separator ","',
            "set key autotitle columnhead",
            f'set title "{title}"',
            *(["set logscale y"] if logy else []),
            f'plot "{csv}" using 1:2 with lines',
        ]
        with open(o["plot_script"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _emit_trajectory(o: dict, traj: evolve.EvolutionState, meta: dict,
                     title: str) -> None:
    """The artifacts of an evolve run: the sidecar's "solver" block is the
    run's config, the CSV columns are t, norm_w and the flow's records."""
    _emit(o, {"solver": traj.config, **meta},
          {"t": traj.t, "norm_w": traj.norm_w, **traj.records}, title, logy=True)


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _params(options: dict) -> WaveParams:
    return WaveParams(k=options["k"], c=options["c"])


def _cmd_profile(o: dict) -> int:
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    meta = {"k": prof.params.k, "c": prof.params.c, "L": prof.L, "h": prof.h,
            **asdict(prof.consts), "u0_center": float(prof.u0[prof.i0])}
    table = {name: getattr(prof, name)
             for name in ("xi", "u0", "u0_p", "u0_pp", "u0_ppp", "mu")}
    table["dc_u0"] = wave.dc_profile(prof)
    _emit(o, meta, table, "wave profile")
    print(f"u_max = {meta['u_max']:.10f}")
    print(f"wrote {o['out']}.csv, {o['out']}.json")
    return 0


def _cmd_spectrum(o: dict) -> int:
    if o["n"] < 2:
        raise ParameterError("need at least 2 frequency samples")
    wave.check_samples(o["n"], "the frequency window")
    params = _params(o)
    sigma = np.linspace(-o["sigma_max"], o["sigma_max"], o["n"])
    lam = dispersion.ess_spectrum_curve(params, o["alpha"], sigma)
    gap = dispersion.spectral_gap(params, o["alpha"])
    _emit(o, {"gap": gap, "max_re": float(lam.real.max())},
          {"sigma": sigma, "re_lambda": lam.real, "im_lambda": lam.imag},
          "weighted essential spectrum")
    print(f"spectral gap = {gap:.12g}")
    return 0


def _cmd_gap(o: dict) -> int:
    print(f"{dispersion.spectral_gap(_params(o), o['alpha']):.12g}")
    return 0


def _cmd_evans(o: dict) -> int:
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    lam = complex(o["lam_re"], o["lam_im"])
    sample = evans.evans_eval(lam, prof, o["alpha"], nsub=o["nsub"])
    if o["out"]:
        _emit(o, {
            "re": sample.value.real,
            "im": sample.value.imag,
            "renorm_exponent": sample.renorm_exponent,
        })
    print(f"D = {_fmt_c(sample.value)}")
    return 0


def _cmd_winding(o: dict) -> int:
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
    result = evans.winding_count(contour, prof, o["alpha"])
    _emit(o, {
        "winding": result.winding,
        "min_abs_D": result.min_abs_D,
        "err_ratio": result.err_ratio,
        "nsub_max": result.nsub_max,
    })
    print(f"winding = {result.winding}")
    return 0


def _cmd_lax(o: dict) -> int:
    data = lax.m_cubic(complex(o["lam_re"], o["lam_im"]), _params(o))
    _emit(o, {"lambda": data.lam, "discriminant": data.discriminant,
              "branches": [asdict(b) for b in data.branches]})
    print(f"discriminant = {_fmt_c(data.discriminant)}")
    return 0


def _cmd_kernel(o: dict) -> int:
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    basis = kernel.kernel_basis(prof, o["alpha"])
    _emit(o, {name: getattr(basis, name)
              for name in ("alpha", "theta1", "theta2", "gram_residuals")},
          {name: getattr(basis, name)
           for name in ("xi", "z1", "z2", "eta1", "eta2")},
          "generalized kernel basis")
    print(f"theta1 = {basis.theta1:.12g}")
    print(f"theta2 = {basis.theta2:.12g}")
    return 0


def _bump(xi, width: float, center: float = 0.0) -> np.ndarray:
    """The Gaussian datum exp(-(xi - center)^2 / (2 width^2))."""
    if width <= 0.0:
        raise ParameterError("width must be positive")
    return np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))


def _cmd_free_evolve(o: dict) -> int:
    n = 2 * wave.grid_steps(o["L"], o["h"])
    if n < 16:
        raise ParameterError("grid too small")
    w0 = _bump(-o["L"] + o["h"] * np.arange(n), o["width"])
    traj = evolve.free_evolve(w0, _params(o), o["alpha"], o["t_final"], o["h"],
                              n_records=o["n_records"])
    rate = evolve.decay_rate(traj)
    _emit_trajectory(o, traj, {"decay_rate": rate}, "constant-background decay")
    print(f"decay rate = {rate:.6g}")
    return 0


def _cmd_linear_evolve(o: dict) -> int:
    prof = wave.solve_profile(_params(o), L=o["L"], h=o["h"])
    w0 = _bump(prof.xi, o["width"], o["center"])
    traj = evolve.linear_evolve(w0, prof, o["alpha"], T=o["t_final"],
                                dt=o["dt"], project_out=not o["no_project"],
                                n_records=o["n_records"])
    rate = evolve.decay_rate(traj)
    _emit_trajectory(o, traj, {"decay_rate": rate}, "linearized decay")
    print(f"decay rate = {rate:.6g}")
    return 0


def _cmd_nonlinear_evolve(o: dict) -> int:
    params = _params(o)
    prof = wave.solve_profile(params, L=o["L"], h=o["h"])
    u = prof.u0 + o["delta"] * _bump(prof.xi, o["width"], o["center"])
    m0 = params.k + kernel.spectral_multiplier(u - params.k, o["h"], lambda s: 1.0 + s * s)
    traj = evolve.nonlinear_evolve(m0, params, T=o["t_final"], h=o["h"],
                                   dt=o["dt"], n_records=o["n_records"])
    drift = {key: float((v[-1] - v[0]) / max(abs(v[0]), 1e-300))
             for key, v in traj.records.items()}
    _emit_trajectory(o, traj, {"invariant_drift": drift}, "nonlinear residual norm")
    print("invariant drift: E {E:.3g}, Q {Q:.3g}, H {H:.3g}".format(**drift))
    return 0


# each subcommand's handler and options; _build_parser adds --config to each
_COMMANDS = {
    "profile": (_cmd_profile, {**_PARAMS, **_GRID, **_out("profile"), **_PLOT}),
    "spectrum": (_cmd_spectrum, {
        **_PARAMS, **_ALPHA_REQ,
        "sigma_max": _Opt(float, 40.0, "half-width of the frequency window"),
        "n": _Opt(int, 2001, "number of frequency samples"),
        **_out("spectrum"), **_PLOT,
    }),
    "gap": (_cmd_gap, {**_PARAMS, **_ALPHA_REQ}),
    "evans": (_cmd_evans, {
        **_PARAMS, **_ALPHA_OPT, **_LAMBDA, **_GRID,
        "nsub": _Opt(int, 10, "integration substeps per grid cell"),
        "out": _Opt(str, None, "optional JSON output path prefix"),
    }),
    "winding": (_cmd_winding, {
        **_PARAMS, **_ALPHA_OPT,
        "contour": _Opt(str, "circle", "contour kind: circle, rectangle, keyhole"),
        "center": _Opt(complex, 0j, "contour center, Python complex syntax"),
        "radius": _Opt(float, 0.05, "circle radius"),
        "n_nodes": _Opt(int, 64, "initial node count on a circle"),
        "re_min": _Opt(float, -0.2, "rectangle left edge"),
        "re_max": _Opt(float, 2.0, "rectangle right edge"),
        "im_abs": _Opt(float, 2.0, "rectangle half-height"),
        "hole_radius": _Opt(float, 0.05, "keyhole excluded-disc radius"),
        "density": _Opt(float, 8.0, "rectangle nodes per unit length"),
        **_GRID, **_out("winding"),
    }),
    "lax": (_cmd_lax, {**_PARAMS, **_LAMBDA, **_out("lax")}),
    "kernel": (_cmd_kernel, {**_PARAMS, **_ALPHA_REQ, **_GRID, **_out("kernel"), **_PLOT}),
    "free-evolve": (_cmd_free_evolve, {
        **_PARAMS, **_ALPHA_REQ,
        "t_final": _Opt(float, 40.0, "final time"),
        "n_records": _Opt(int, 201, "number of recorded times"),
        "width": _Opt(float, 3.0, "width of the Gaussian datum"),
        **_GRID, **_out("free-evolve"), **_PLOT,
    }),
    "linear-evolve": (_cmd_linear_evolve, {
        **_PARAMS, **_ALPHA_REQ,
        "t_final": _Opt(float, 25.0, "final time"),
        "dt": _Opt(float, None, "time step, default from the operator norm bound"),
        "n_records": _Opt(int, 201, "number of recorded times"),
        **_BUMP,
        "no_project": _Opt(bool, False, "skip the complementary kernel projection"),
        "L": _Opt(float, 40.0, "half-length of the grid"),
        "h": _Opt(float, 0.04, "grid spacing"),
        **_out("linear-evolve"), **_PLOT,
    }),
    "nonlinear-evolve": (_cmd_nonlinear_evolve, {
        **_PARAMS,
        "t_final": _Opt(float, 5.0, "final time"),
        "dt": _Opt(float, None, "time step, default from the advective bound"),
        "delta": _Opt(float, 1e-3, "disturbance amplitude"),
        "n_records": _Opt(int, 201, "number of recorded times"),
        **_BUMP,
        "L": _Opt(float, 40.0, "half-length of the grid"),
        "h": _Opt(float, 0.1, "grid spacing"),
        **_out("nonlinear-evolve"), **_PLOT,
    }),
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
    handler, table = _COMMANDS[ns.subcommand]
    try:
        return handler(_resolve_options(ns, table))
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
