"""One benchmark workload, run in a process of its own.

Usage: python3 perfbench/workloads.py WORKLOAD --seed N --trace 0|1 --out DIR

The seed only generates the inputs; dpstab receives nothing but those inputs.
Each workload runs a fixed list of operations once, cold, the way a command
line user pays for them.  Every operation is checked; an operation that raises
or misses a check counts as failed.  With --trace 1 the public functions of
the layers are wrapped for the run and spans are written to DIR/spans.json.
The last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dpstab  # noqa: E402
from dpstab import _backend, cli, dispersion, evans, evolve, kernel, lax, wave  # noqa: E402

import spans  # noqa: E402

K, C, ALPHA = 0.1, 1.0, 0.5
BASE = ["--k", "0.1", "--c", "1"]
DIGITS_CLIP = 16.0
# tolerances of the output checks
CONJ_TOL = 1e-10
EVANS_REF_TOL = 1e-6
LAX_RESIDUAL_TOL = 1e-5
DECAY_SLOPE_MAX = -0.175
KERNEL_DRIFT_TOL = 1e-6
INVARIANT_DRIFT_TOL = 1e-6


def digits(err: float) -> float:
    """-log10 of an error, clipped to [.., 16]; an exact result gives 16."""
    if not err > 10.0 ** -DIGITS_CLIP:
        return DIGITS_CLIP if err == err else 0.0  # nan reads as no digits
    return -math.log10(err)


class Run:
    """Operations, checks and figures of one workload run."""

    def __init__(self, tracer: spans.Tracer, out: Path):
        self.tracer = tracer
        self.out = out
        self.ops: list[dict] = []
        self.figures: dict[str, float] = {}
        self.work = 0.0
        self.work_s = 0.0
        self.work_windows: list[tuple[float, float]] = []
        self.bytes_written = 0
        self.fft_len: dict[str, int] = {}

    def attempt(self, name: str, fn, work=None) -> None:
        """Run one operation; fn returns {check: (value, limit, ok)}.

        work(), called after fn succeeds, gives the operation's work units
        for ops_per_s; failed operations add neither work nor time.  The
        operation's [start, end] on the tracer's clock goes to work_windows.
        """
        checks, error = {}, None
        with self.tracer.span("bench." + name) as rec:
            try:
                checks = fn()
            except Exception:  # boundary: an operation that raises is a failure
                error = traceback.format_exc(limit=4)
                print(error, file=sys.stderr)
        ok = error is None and all(c[2] for c in checks.values())
        dt = rec["end"] - rec["start"]
        if work is not None and error is None:
            self.work += work()
            self.work_s += dt
            self.work_windows.append((rec["start"], rec["end"]))
        self.ops.append({"op": name, "ok": ok, "s": dt, "error": error,
                         "checks": {k: list(v) for k, v in checks.items()}})

    def cli(self, name: str, argv: list[str]) -> tuple[dict, Path]:
        """cli.run one command; return its JSON sidecar and output prefix."""
        prefix = self.out / "artifacts" / name
        prefix.parent.mkdir(parents=True, exist_ok=True)
        before = _dir_bytes(prefix.parent)
        rc = cli.run(argv + ["--out", str(prefix)])
        self.bytes_written += _dir_bytes(prefix.parent) - before
        if rc != 0:
            raise RuntimeError(f"dpstab {argv[0]} exited with code {rc}")
        with open(str(prefix) + ".json", encoding="utf-8") as fh:
            return json.load(fh), prefix


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _le(value: float, limit: float) -> tuple:
    return (float(value), float(limit), bool(value <= limit))


def _lt(value: float, limit: float) -> tuple:
    return (float(value), float(limit), bool(value < limit))


# --- workloads ------------------------------------------------------------

def contour(run: Run, rng: random.Random) -> None:
    """winding at defaults (circle |lambda|=0.05, 64 nodes), then a keyhole."""
    r, th = 0.01 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    center = complex(r * math.cos(th), r * math.sin(th))
    gap = dispersion.spectral_gap(wave.WaveParams(K, C), ALPHA)
    re_min = -rng.uniform(0.4, 0.6) * gap
    # work units: the nodes of the requested contours (before refinement)
    keyhole_nodes = sum(len(loop) for loop in evans.keyhole_contour(re_min, 2.0, 2.0))
    common = ["winding"] + BASE + ["--alpha", str(ALPHA)]
    errors = []
    for name, extra, expected, nodes in (
            ("winding-circle", ["--center", str(center)], 2, 64),
            ("winding-keyhole", ["--contour", "keyhole", "--re-min", repr(re_min)],
             0, keyhole_nodes)):
        def op(extra=extra, expected=expected, name=name):
            meta, _ = run.cli(name, common + extra)
            errors.append(abs(meta["winding"] - expected))
            return {"winding": (meta["winding"], expected, errors[-1] == 0)}
        run.attempt(name, op, work=lambda nodes=nodes: nodes)
    run.figures["winding_digits"] = digits(
        max(errors) if len(errors) == len(run.ops) else math.nan)


def pointwise(run: Run, rng: random.Random) -> None:
    """Single-lambda Evans values and Lax pairings on one shared profile."""
    with open(HERE / "pool.json", encoding="utf-8") as fh:
        pool = json.load(fh)
    i = rng.randrange(len(pool["lambdas"]))
    lam, ref = complex(*pool["lambdas"][i]), complex(*pool["D"][i])
    sigmas = [rng.uniform(0.7, 2.0) for _ in range(2)]

    with run.tracer.span("bench.profile"):
        prof = wave.solve_profile(wave.WaveParams(pool["k"], pool["c"]),
                                  L=pool["L"], h=pool["h"])
    values = {}
    ref_err, conj_err, lax_res = [], [], []
    for tag, z, zref in (("lambda", lam, ref), ("conj", lam.conjugate(), ref.conjugate())):
        def op(tag=tag, z=z, zref=zref):
            d = evans.evans_eval(z, prof, pool["alpha"], nsub=10).value
            values[tag] = d
            ref_err.append(abs(d - zref) / abs(zref))
            checks = {"ref_error": _le(ref_err[-1], EVANS_REF_TOL)}
            if tag == "conj":
                conj_err.append(abs(values["lambda"] - d.conjugate()) / abs(values["lambda"]))
                checks["conj_symmetry"] = _le(conj_err[-1], CONJ_TOL)
            return checks
        run.attempt(f"evans-{tag}", op, work=lambda: 1)
    # the root and direction pattern of acceptance criterion 05
    for sigma, (j, direction) in zip(sigmas, ((0, "+"), (2, "-"))):
        def op(sigma=sigma, j=j, direction=direction):
            phi = lax.lax_solve(sigma, prof, lax.l_roots(K * sigma)[0], "+")
            psi = lax.lax_solve(sigma, prof, lax.l_roots(K * sigma, adjoint=True)[j],
                                direction, adjoint=True)
            lax_res.append(lax.squared_eigenfunction(phi, psi).residual_interior)
            return {"residual": _lt(lax_res[-1], LAX_RESIDUAL_TOL)}
        run.attempt(f"lax-pair-{direction}", op)
    run.figures["evans_ref_digits"] = digits(max(ref_err, default=math.nan))
    run.figures["conj_sym_digits"] = digits(max(conj_err, default=math.nan))
    run.figures["lax_residual_digits"] = digits(max(lax_res, default=math.nan))


def _grid_len(cfg: dict, closed: bool) -> int:
    """FFT length of the grid a command ran on, from the L and h it reports:
    closed grids (the profile's) hold both ends, 2L/h + 1 points; the
    periodic free-evolve grid drops the seam node, 2L/h points."""
    return round(2.0 * cfg["L"] / cfg["h"]) + (1 if closed else 0)


def evolve_(run: Run, rng: random.Random) -> None:
    """linear-evolve, nonlinear-evolve (T=50, L=60) and free-evolve."""
    # around the CLI defaults (center 2, width 1; free-evolve width 3)
    center, width = rng.uniform(1.75, 2.25), rng.uniform(0.9, 1.1)
    free_width = rng.uniform(2.5, 3.5)
    bump = ["--center", repr(center), "--width", repr(width)]
    steps = {}

    def linear():
        meta, prefix = run.cli("linear-evolve",
                               ["linear-evolve"] + BASE + ["--alpha", str(ALPHA)] + bump)
        steps["linear"] = round(meta["solver"]["T"] / meta["solver"]["dt"])
        run.fft_len["linear-evolve"] = _grid_len(meta["solver"], True)
        traj = np.genfromtxt(str(prefix) + ".csv", delimiter=",", names=True)
        drift = float(max(np.max(np.abs(traj["ip_eta1"])), np.max(np.abs(traj["ip_eta2"])))
                      / traj["norm_w"][0])
        run.figures["decay_slope"] = meta["decay_rate"]
        run.figures["kernel_drift_digits"] = digits(drift)
        return {"decay_slope": _lt(meta["decay_rate"], DECAY_SLOPE_MAX),
                "kernel_drift": _le(drift, KERNEL_DRIFT_TOL)}

    def nonlinear():
        meta, _ = run.cli("nonlinear-evolve",
                          ["nonlinear-evolve"] + BASE + ["--t-final", "50", "--L", "60"] + bump)
        steps["nonlinear"] = round(meta["solver"]["T"] / meta["solver"]["dt"])
        run.fft_len["nonlinear-evolve"] = _grid_len(meta["solver"], True)
        drift = max(abs(v) for v in meta["invariant_drift"].values())
        run.figures["invariant_drift_digits"] = digits(drift)
        return {"invariant_drift": _lt(drift, INVARIANT_DRIFT_TOL)}

    def free():
        meta, _ = run.cli("free-evolve", ["free-evolve"] + BASE
                          + ["--alpha", str(ALPHA), "--width", repr(free_width)])
        run.fft_len["free-evolve"] = _grid_len(meta["config"], False)
        run.figures["free_decay_slope"] = meta["decay_rate"]
        return {"decay_slope": _lt(meta["decay_rate"], DECAY_SLOPE_MAX)}

    # work units: RK4 time steps of the two integrators
    run.attempt("linear-evolve", linear, work=lambda: steps["linear"])
    run.attempt("nonlinear-evolve", nonlinear, work=lambda: steps["nonlinear"])
    run.attempt("free-evolve", free)


WORKLOADS = {"contour": contour, "pointwise": pointwise, "evolve": evolve_}


# --- traced layers --------------------------------------------------------

def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _steps(args, kwargs, result):
    return {"steps": round(result.T / result.dt)}


def sites():
    """(owner, attribute, span name, measure) for every wrapped call site.

    A function imported by name is wrapped in the importing module as well,
    under the same span name; methods are wrapped on their class.
    """
    def shoot_final(a, kw, r):
        B = np.size(_arg(a, kw, 4, "lams"))
        return {"lambdas": B, "lambda_steps": B * ((len(a[0]) - 1) // 2)}

    return [
        (_backend, "shoot_final", "backend.shoot_final", shoot_final),
        (_backend, "shoot_traj", "backend.shoot_traj",
         lambda a, kw, r: {"steps": (len(a[0]) - 1) // 2}),
        (wave.Profile, "eval", "wave.Profile.eval",
         lambda a, kw, r: {"points": int(np.size(_arg(a, kw, 1, "x")))}),
        (wave, "solve_profile", "wave.solve_profile", None),
        (evolve, "solve_profile", "wave.solve_profile", None),
        (wave, "dc_profile", "wave.dc_profile", None),
        (kernel, "dc_profile", "wave.dc_profile", None),
        (evans, "char_roots", "dispersion.char_roots", None),
        (lax, "char_roots", "dispersion.char_roots", None),
        (dispersion, "char_roots", "dispersion.char_roots", None),
        (evans, "evans_batch", "evans.evans_batch",
         lambda a, kw, r: {"lambdas": int(np.size(_arg(a, kw, 0, "lams")))}),
        (evans, "winding_count", "evans.winding_count", None),
        # refinement lives in the per-loop helper: its first evans_batch
        # call is the loop's initial nodes, every later one a refinement pass
        (evans, "_loop_winding", "evans.winding_loop", None),
        (lax, "lax_solve", "lax.lax_solve", None),
        (lax, "squared_eigenfunction", "lax.squared_eigenfunction", None),
        (kernel, "kernel_basis", "kernel.kernel_basis", None),
        (kernel, "conserved", "kernel.conserved", None),
        (kernel, "helmholtz_solve", "kernel.helmholtz_solve", None),
        (evolve, "linear_evolve", "evolve.linear_evolve", _steps),
        (evolve, "nonlinear_evolve", "evolve.nonlinear_evolve", _steps),
        (evolve, "apply_linearized", "evolve.apply_linearized",
         lambda a, kw, r: {"n": int(np.size(a[0]))}),
        (evolve, "free_evolve", "evolve.free_evolve",
         lambda a, kw, r: {"n": int(np.size(a[0]))}),
        (cli, "run", "cli.run", None),
    ]


NARROW_BATCH = 4
# layer -> the summed span quantities reported for it as layer.quantity
SUMMED = {
    "backend.shoot_final": ("calls", "s", "lambda_steps"),
    "backend.shoot_traj": ("calls", "s", "steps"),
    "wave.Profile.eval": ("points", "s"),
    "wave.solve_profile": ("calls", "s"),
    "evans.evans_batch": ("calls", "lambdas", "self_s"),
    "dispersion.char_roots": ("calls", "s"),
    "evans.winding_count": ("calls", "s"),
    "lax.lax_solve": ("calls", "self_s"),
    "lax.squared_eigenfunction": ("s",),
    "wave.dc_profile": ("s",),
    "kernel.kernel_basis": ("s",),
    "kernel.conserved": ("calls", "s"),
    "kernel.helmholtz_solve": ("calls", "s"),
    "evolve.linear_evolve": ("s", "steps"),
    "evolve.nonlinear_evolve": ("s", "steps"),
    "evolve.apply_linearized": ("calls", "s"),
    "evolve.free_evolve": ("calls", "s"),
    "cli.run": ("calls", "self_s"),
}


def layer_metrics(span_list: list[dict], bytes_written: int) -> dict:
    """Per-layer metrics from the spans of a traced run (0 for idle layers)."""
    agg = spans.summarize(span_list)
    out = {f"{layer}.{q}": agg.get(layer, {}).get(q, 0)
           for layer, qs in SUMMED.items() for q in qs}

    def ratio(num, den, scale):
        return scale * out[num] / out[den] if out[den] else 0.0

    out["backend.shoot_final.ns_per_lambda_step"] = ratio(
        "backend.shoot_final.s", "backend.shoot_final.lambda_steps", 1e9)
    for fn in ("evolve.linear_evolve", "evolve.nonlinear_evolve"):
        out[fn + ".ms_per_step"] = ratio(fn + ".s", fn + ".steps", 1e3)
    narrow = [s for s in span_list if s["name"] == "backend.shoot_final"
              and s["attrs"]["lambdas"] <= NARROW_BATCH]
    out["backend.shoot_final.narrow_calls"] = len(narrow)
    out["backend.shoot_final.narrow_s"] = sum(s["end"] - s["start"] for s in narrow)
    kids = spans.children(span_list)
    refine = [k for s in span_list if s["name"] == "evans.winding_loop"
              for k in kids[s["id"]][1:] if k["name"] == "evans.evans_batch"]
    out["evans.winding_count.refine_passes"] = len(refine)
    out["evans.winding_count.refine_lambdas"] = sum(k["attrs"]["lambdas"] for k in refine)
    out["evans.winding_count.refine_s"] = sum(k["end"] - k["start"] for k in refine)
    out["cli.run.bytes_written"] = bytes_written
    return out


# --- entry point ----------------------------------------------------------

def provenance(seed: int, run: Run) -> dict:
    out = {
        "backend": _backend.backend_name(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
    }
    if run.fft_len:
        out["fft_len"] = run.fft_len
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if Path(dpstab.__file__).resolve().parent != SRC / "dpstab":
        print(f"error: imported dpstab from {dpstab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the probe stamps its samples on the same system-wide clock
    tracer = spans.Tracer(clock=time.monotonic)
    run = Run(tracer, out)
    sites_ = sites() if args.trace else []
    with tracer.installed(sites_):
        t0 = time.perf_counter()
        WORKLOADS[args.workload](run, random.Random(args.seed))
        wall = time.perf_counter() - t0
    shutil.rmtree(out / "artifacts", ignore_errors=True)

    result = {
        "workload": args.workload,
        "wall_s": wall,
        "work": run.work,
        "work_s": run.work_s,
        "work_windows": run.work_windows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": run.ops,
        "figures": run.figures,
        "bytes_written": run.bytes_written,
        "provenance": provenance(args.seed, run),
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans, run.bytes_written)
        with open(out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
