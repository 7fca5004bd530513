"""Command line dispatch: artifacts, config merge, and exit codes."""

import ast
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpstab import _backend, cli, evolve, kernel, lax
from dpstab.dispersion import spectral_gap
from dpstab.wave import SolverError, WaveParams, dc_profile, solve_profile

K, C = "0.1", "1"


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_gap_prints_value(capsys):
    assert cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


def test_gap_matches_module(capsys):
    assert cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.3"]) == 0
    printed = float(capsys.readouterr().out)
    expected = spectral_gap(WaveParams(0.1, 1.0), 0.3)
    assert printed == pytest.approx(expected, rel=1e-10)


def test_profile_artifacts(tmp_path, capsys):
    out = str(tmp_path / "prof")
    with pytest.warns(UserWarning, match="short"):
        rc = cli.run(["profile", "--k", K, "--c", C, "--L", "20", "--h", "0.1",
                      "--out", out])
    assert rc == 0
    capsys.readouterr()
    with open(out + ".csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "xi,u0,u0_p,u0_pp,u0_ppp,mu,dc_u0"
    with pytest.warns(UserWarning, match="short"):
        prof = solve_profile(WaveParams(0.1, 1.0), L=20.0, h=0.1)
    data = np.loadtxt(out + ".csv", delimiter=",", skiprows=1)
    assert data.shape == (len(prof.xi), 7)
    assert np.max(np.abs(data[:, 1] - prof.u0)) <= 1e-15
    # the exact speed derivative on the same grid
    assert not np.any(np.isnan(data[:, 6]))
    assert np.array_equal(data[:, 6], dc_profile(prof))
    meta = _read_json(out + ".json")
    assert "tol" not in meta and "xistar" not in meta
    assert meta["u_max"] == pytest.approx(0.5837722339831621, abs=1e-12)
    assert meta["u_max"] == prof.consts.u_max
    assert meta["u0_center"] == prof.u0[prof.i0]
    assert meta["config"]["subcommand"] == "profile"
    assert meta["config"]["k"] == 0.1
    assert meta["config"]["c"] == 1.0


def test_rerun_is_byte_identical(tmp_path, capsys):
    # one command per CSV shape: profile, spectrum, kernel basis, and the
    # trajectories of the three evolve flows
    grid = ["--L", "30", "--h", "0.05"]
    for argv in (["profile"] + grid,
                 ["spectrum", "--alpha", "0.5", "--n", "101"],
                 ["kernel", "--alpha", "0.5"] + grid,
                 ["linear-evolve", "--alpha", "0.5", "--t-final", "1",
                  "--n-records", "11"] + grid,
                 ["free-evolve", "--alpha", "0.5", "--t-final", "5",
                  "--n-records", "11"] + grid,
                 ["nonlinear-evolve", "--t-final", "1", "--n-records", "11"]
                 + grid):
        out = str(tmp_path / argv[0])
        argv = argv + ["--k", K, "--c", C, "--out", out]
        assert cli.run(argv) == 0
        first = (Path(out + ".csv").read_bytes(),
                 Path(out + ".json").read_bytes())
        assert cli.run(argv) == 0
        assert Path(out + ".csv").read_bytes() == first[0], argv[0]
        assert Path(out + ".json").read_bytes() == first[1], argv[0]
    capsys.readouterr()


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "over.json"
    cfg.write_text(json.dumps({"alpha": 0.25}))
    rc = cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5",
                  "--config", str(cfg)])
    assert rc == 0
    printed = float(capsys.readouterr().out)
    assert printed == pytest.approx(spectral_gap(WaveParams(0.1, 1.0), 0.25),
                                    rel=1e-10)


def test_config_accepts_dashed_keys(tmp_path, capsys):
    out = str(tmp_path / "curve")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma-max": 10.0, "n": 101}))
    rc = cli.run(["spectrum", "--k", K, "--c", C, "--alpha", "0.5",
                  "--out", out, "--config", str(cfg)])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["config"]["sigma_max"] == 10.0
    assert meta["gap"] == pytest.approx(0.25, abs=1e-10)
    with open(out + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sigma,re_lambda,im_lambda"
    assert len(lines) == 102


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nope": 1}))
    rc = cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5",
                  "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err
    # profile has no tol: the closed-form profile has no quadrature tolerance
    cfg.write_text(json.dumps({"tol": 1e-13}))
    rc = cli.run(["profile", "--k", K, "--c", C, "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key: tol" in capsys.readouterr().err


def test_config_malformed_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5",
                  "--config", str(cfg)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_flag_prints_usage(capsys):
    rc = cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5", "--bogus"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert cli.run([]) == 2
    assert "usage" in capsys.readouterr().err
    assert cli.run(["selftest"]) == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert cli.run(["gap", "--k", K, "--c", C]) == 2
    assert "missing required flag --alpha" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out


def test_validation_error_exit_code(capsys):
    # inadmissible k >= c/4 fails the parameter preconditions
    rc = cli.run(["gap", "--k", "0.3", "--c", C, "--alpha", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_singular_weight_is_validation(tmp_path, capsys):
    # rejected before the curve is sampled: one error line and no warning
    rc = cli.run(["spectrum", "--k", K, "--c", C, "--alpha", "-1",
                  "--out", str(tmp_path / "x")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "singular" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["winding", "--alpha", "0.5", "--radius", "nan"], "--radius"),
    (["linear-evolve", "--alpha", "0.5", "--dt", "nan"], "--dt"),
    (["free-evolve", "--alpha", "nan"], "--alpha"),
    (["free-evolve", "--alpha", "0.5", "--width", "nan"], "--width"),
    (["spectrum", "--alpha", "nan"], "--alpha"),
    (["winding", "--alpha", "0.5", "--center", "infj"], "--center"),
])
def test_non_finite_float_flag_rejected(tmp_path, capsys, argv, flag):
    rc = cli.run(argv + ["--k", K, "--c", C, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["profile", "--L", "1e15", "--h", "1e-6"], "points"),
    (["evans", "--lam-re", "0.5", "--nsub", str(10 ** 16)], "points"),
    (["winding", "--n-nodes", str(2 * 10 ** 18)], "points"),
    (["winding", "--contour", "rectangle", "--density", "1e18"], "points"),
    (["spectrum", "--alpha", "0.5", "--n", str(2 * 10 ** 18)], "points"),
    (["free-evolve", "--alpha", "0.5", "--L", "1e17", "--h", "0.02"], "points"),
    (["free-evolve", "--alpha", "0.5", "--L", "40", "--h", "0.03"], "integer multiple"),
], ids=["profile", "evans-nsub", "circle", "rectangle", "spectrum", "free-evolve",
        "free-evolve-off-grid"])
def test_oversized_or_off_grid_sample_count_rejected(tmp_path, capsys, argv, message):
    # rejected before any array is made: each oversized count holds more than
    # 2^63 bytes, so an allocation would fail at once rather than fill memory
    rc = cli.run(argv + ["--k", K, "--c", C, "--out", str(tmp_path / "x")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--alpha", "0.5", "--sigma-max", "1e300"], "ess_spectrum_curve"),
    (["lax", "--lam-re", "1e300"], "m_cubic"),
    (["lax", "--lam-re", "1e77"], "m_cubic"),
    (["nonlinear-evolve", "--delta", "1e308", "--L", "40", "--h", "0.1",
      "--t-final", "1"], "spectral_multiplier"),
], ids=["spectrum", "lax-pow", "lax-product", "nonlinear-evolve"])
def test_overflowing_input_rejected(tmp_path, capsys, argv, name):
    # finite inputs too large for the arithmetic: exit 2, one error line, no
    # artifact and no overflow warning; the error names the function the
    # command called, not the guarded function inside it that overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(argv + ["--k", K, "--c", C, "--out", str(tmp_path / "x")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {name} overflows"), err
    assert err.count("\n") == 1, err
    assert "too large" in err
    assert not list(tmp_path.iterdir())


def test_non_finite_config_value_rejected(tmp_path, capsys):
    # JSON's Infinity literal reaches the same check as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 0.1, "c": 1, "alpha": Infinity}')
    assert cli.run(["gap", "--config", str(cfg)]) == 2
    assert "--alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, key, value", [
    ("winding", "n_nodes", "2.7"), ("winding", "n_nodes", "true"),
    ("spectrum", "n", "2.7"), ("spectrum", "n", "false"),
    ("gap", "c", "true"), ("winding", "center", "false"),
])
def test_non_integer_config_value_rejected(tmp_path, capsys, monkeypatch,
                                           cmd, key, value):
    # int() would truncate 2.7 to 2, and int(), float() and complex() would
    # read true/false as 1 or 0
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"k": 0.1, "c": 1, "alpha": 0.5, "{key}": {value}}}')
    assert cli.run([cmd, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert re.search(rf"{flag} must be an? (integer|number|complex number), "
                     "got", err), err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_GRID = ["--L", "30", "--h", "0.1"]
_REPLAY = {
    "profile": ["profile", *_GRID],
    "spectrum": ["spectrum", "--alpha", "0.5", "--n", "101"],
    "evans": ["evans", "--alpha", "0.5", "--lam-re", "0.3", "--lam-im", "0.2", *_GRID],
    "winding-circle": ["winding", "--alpha", "0.5", "--center", "0.003+0.001j",
                       "--n-nodes", "32", *_GRID],
    "winding-keyhole": ["winding", "--alpha", "0.5", "--contour", "keyhole", *_GRID],
    "lax": ["lax", "--lam-re", "0.3", "--lam-im", "0.2"],
    "kernel": ["kernel", "--alpha", "0.5", *_GRID],
    "free-evolve": ["free-evolve", "--alpha", "0.5", "--t-final", "2",
                    "--n-records", "11", *_GRID],
    "linear-evolve": ["linear-evolve", "--alpha", "0.5", "--t-final", "1",
                      "--n-records", "11", *_GRID],
    "nonlinear-evolve": ["nonlinear-evolve", "--t-final", "1", "--n-records", "11",
                         *_GRID],
}


@pytest.mark.parametrize("argv", _REPLAY.values(), ids=_REPLAY)
def test_sidecar_config_replays(tmp_path, capsys, argv):
    # a sidecar's config block, written to a file as is, is a --config file
    # for the same run: its subcommand entry and the complex center written
    # as [re, im] read back, and only the output paths differ
    first, again = str(tmp_path / "first"), str(tmp_path / "again")
    argv = argv + ["--k", K, "--c", C, "--out", first]
    if argv[0] == "profile":
        argv += ["--plot-script", first + ".gp"]
    assert cli.run(argv) == 0
    printed = capsys.readouterr().out
    config = _read_json(first + ".json")["config"]
    assert config["subcommand"] == argv[0]
    config["out"] = again
    if config.get("plot_script"):
        config["plot_script"] = again + ".gp"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.run([argv[0], "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == printed.replace(first, again)
    written = sorted(p.name for p in tmp_path.iterdir())
    suffixes = [name[len("first"):] for name in written if name.startswith("first")]
    assert [name for name in written if name.startswith("again")] == [
        "again" + suffix for suffix in suffixes]
    for suffix in suffixes:
        expected = Path(first + suffix).read_bytes().replace(first.encode(), again.encode())
        assert Path(again + suffix).read_bytes() == expected, suffix


@pytest.mark.parametrize("entries, message", [
    ({"subcommand": "spectrum"}, "config file is for subcommand 'spectrum', not 'winding'"),
    ({"center": [True, False]}, "--center must be a complex number or an [re, im] pair"),
    ({"center": [0.1]}, "--center must be a complex number or an [re, im] pair"),
    ({"center": [0.1, 0.2, 0.3]}, "--center must be a complex number or an [re, im] pair"),
    ({"center": [0.1, "0.2"]}, "--center must be a complex number or an [re, im] pair"),
    ({"center": [0.1, None]}, "--center must be a complex number or an [re, im] pair"),
    ({"alpha": 10 ** 400}, "bad value for --alpha: int too large"),
], ids=["other-subcommand", "bool-pair", "short-pair", "long-pair", "string-in-pair",
        "null-in-pair", "huge-int"])
def test_config_block_rejected(tmp_path, capsys, monkeypatch, entries, message):
    # a block for another subcommand, a complex value that is not two real
    # numbers, or a number no float holds: exit 2, one error line, no artifact
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "winding", "k": 0.1, "c": 1,
                               "alpha": 0.5, **entries}))
    assert cli.run(["winding", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: " + message), err
    assert err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_integral_config_number_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 0.1, "c": 1, "alpha": 0.5, "n": 101.0}')
    assert cli.run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert _read_json(tmp_path / "x.json")["config"]["n"] == 101


_BAD_EVOLVE = {
    "t-final-0": (["--t-final", "0"], "final time must be positive"),
    "t-final-neg": (["--t-final", "-2"], "final time must be positive"),
    "dt-0": (["--dt", "0"], "use dt <="),
    "dt-neg": (["--dt", "-0.01"], "use dt <="),
    "n-records-1": (["--n-records", "1"], "at least 2 records"),
    "width-0": (["--width", "0"], "width must be positive"),
    "width-neg": (["--width", "-1"], "width must be positive"),
    "h-0": (["--h", "0"], "L and h must be positive"),
    "L-neg": (["--L", "-1"], "L and h must be positive"),
    "t-final-huge": (["--t-final", "1e9"], "RK4 steps"),
    "n-records-huge": (["--n-records", "1000000000"], "at most 100000 records"),
    "t-final-tiny": (["--t-final", "1e-300"], "least-squares fit"),
    "t-final-short": (["--t-final", "1e-20"], "rounding floor"),
}
# free-evolve has no time step; nonlinear-evolve fits no decay rate
_NOT_APPLICABLE = {
    "free-evolve": ("dt-0", "dt-neg", "t-final-huge"),
    "linear-evolve": (),
    "nonlinear-evolve": ("t-final-tiny", "t-final-short"),
}
_EVOLVE_CASES = [(cmd, bad) for cmd, skip in _NOT_APPLICABLE.items()
                 for bad in _BAD_EVOLVE if bad not in skip]


@pytest.mark.parametrize("cmd, bad", _EVOLVE_CASES,
                         ids=[f"{cmd}-{bad}" for cmd, bad in _EVOLVE_CASES])
def test_evolve_rejects_bad_input(tmp_path, capsys, monkeypatch, cmd, bad):
    # a validation error: exit 2, one error line, no artifact, no warning,
    # and no RK4 step before it unless the failed check is the decay fit
    flags, message = _BAD_EVOLVE[bad]
    alpha = [] if cmd == "nonlinear-evolve" else ["--alpha", "0.5"]
    argv = [cmd, "--k", K, "--c", C, "--L", "30", "--h", "0.1",
            "--out", str(tmp_path / "x"), *alpha, *flags]
    steps = []
    march = evolve._march

    def counting_march(w, step, *args):
        def counted(*step_args):
            steps.append(1)
            return step(*step_args)
        return march(w, counted, *args)

    monkeypatch.setattr(evolve, "_march", counting_march)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.run(argv)
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert list(tmp_path.iterdir()) == []
    assert (len(steps) > 0) == (bad in ("t-final-tiny", "t-final-short")
                                and cmd == "linear-evolve")


@pytest.mark.parametrize("flags, rate", [
    (["--alpha", "0.5", "--t-final", "1e-8"], -0.291196),
    (["--alpha", "0"], 0.0),
])
def test_decay_fit_above_rounding_floor(tmp_path, capsys, flags, rate):
    # a short window that still resolves the slope, and a flat norm, are
    # fitted; "t-final-short" above is refused
    rc = cli.run(["free-evolve", "--k", K, "--c", C, "--L", "30", "--h", "0.1",
                  "--out", str(tmp_path / "x"), *flags])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert abs(float(out.split("decay rate = ")[1]) - rate) <= 1e-6, out


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # the dispatcher maps solver aborts onto exit code 3
    def boom(cfg):
        raise SolverError("synthetic abort")

    monkeypatch.setitem(cli._COMMANDS, "gap", (boom, cli._COMMANDS["gap"][1]))
    rc = cli.run(["gap", "--k", K, "--c", C, "--alpha", "0.5"])
    assert rc == 3
    assert "synthetic abort" in capsys.readouterr().err


def test_dt_gate_is_validation(tmp_path, capsys):
    out = str(tmp_path / "nl")
    with pytest.warns(UserWarning, match="short"):
        rc = cli.run(["nonlinear-evolve", "--k", K, "--c", C, "--t-final", "1",
                      "--L", "20", "--h", "0.1", "--dt", "0.5", "--out", out])
    assert rc == 2
    assert "use dt <=" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, rc, printed", [
    ("0.5", 0, "decay rate = -0.352481\n"),
    ("0.75", 3, "error: kernel pairing drift 0.195 exceeds 0.01 of the data norm 1.1 "),
], ids=["alpha-0.5", "alpha-0.75"])
def test_linear_evolve_drift_gate(tmp_path, capsys, alpha, rc, printed):
    # alpha 0.75 is admissible (alpha_crit 0.8165), but on L 40 the projected
    # flow drifts into the kernel and grows; alpha 0.5 prints the rate it did
    # before the gate
    out = str(tmp_path / "le")
    assert cli.run(["linear-evolve", "--k", K, "--c", C, "--alpha", alpha,
                    "--out", out]) == rc
    stdout, err = capsys.readouterr()
    assert (err if rc else stdout).startswith(printed)
    assert Path(out + ".json").exists() == (rc == 0)


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Subcommands:(.*?)\.\s", readme, re.S).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(cli._COMMANDS)


def _file_access(path):
    """Names of the file-format and file-writing operations in one module:
    an import of json, and calls of open() or savetxt()."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update("json" for a in node.names if a.name.split(".")[0] == "json")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.add("json")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("open", "savetxt"):
                found.add(name)
    return found


def test_only_cli_touches_files():
    # the library returns arrays and dataclasses; cli alone reads config
    # files and shapes and writes every artifact
    src = Path(cli.__file__).parent
    access = {p.name: _file_access(p) for p in sorted(src.glob("*.py"))}
    assert access.pop("cli.py") == {"json", "open", "savetxt"}
    assert {name: found for name, found in access.items() if found} == {}


def _private_attributes(source: str) -> set:
    """Names of the non-dunder attributes read or written as x._name."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.endswith("__")}


def test_only_wave_touches_profile_cache():
    # the profile's one cache belongs to wave.half_step_samples: no other
    # module reaches into a private attribute, so none can keep its own
    # per-profile state
    assert _private_attributes("profile._cache[key] = basis") == {"_cache"}
    src = Path(cli.__file__).parent
    found = {p.name: _private_attributes(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name != "wave.py"}
    assert {name: attrs for name, attrs in found.items() if attrs} == {}


def _run_python(code):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_heavy_scipy_subpackages_out():
    # each of these pulls in dozens of modules that no command uses; the
    # scipy.linalg package init alone loads the four numpy subpackages, and
    # np.isin in a conjugate fold would load numpy.ma during the run.  The
    # BLAS extension scipy.linalg._fblas and the transform extension
    # scipy.fft._pocketfft.pypocketfft are loaded without their packages, and
    # the sweep's Gauss-Legendre nodes come from numpy.linalg, not from
    # numpy.polynomial (about 5 ms of imports).
    heavy = tuple(name + "." for name in (
        "scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate",
        "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
        "scipy.special", "scipy.linalg", "scipy.fft", "numpy.ma", "numpy.f2py",
        "numpy.testing", "numpy.random", "numpy.fft", "numpy.polynomial"))
    loaded = ("scipy.linalg._fblas", "scipy.fft._pocketfft.pypocketfft")
    code = ("import sys, dpstab.cli\n"
            "from dpstab import evans, evolve, wave\n"
            "prof = wave.solve_profile(wave.WaveParams(0.1, 1.0), L=20.0, h=0.1)\n"
            "evans.evans_batch([0.3 + 0.2j, 0.3 - 0.2j], prof, 0.5, nsub=1)\n"
            "evolve.linear_evolve(prof.u0_p, prof, 0.5, T=0.5, n_records=3)\n"
            f"print(' '.join(m for m in sys.modules if m not in {loaded!r}\n"
            f"               and (m + '.').startswith({heavy!r})))")
    assert _run_python(code).split() == []


@pytest.mark.parametrize("first", ["dpstab", "scipy"])
def test_backend_blas_is_scipys(first):
    # the band solvers loaded from scipy's extension file are the functions
    # scipy.linalg.blas exports, whichever is imported first
    imports = ["from dpstab import _backend", "import scipy.linalg.blas as blas"]
    code = "\n".join(imports if first == "dpstab" else imports[::-1]) + (
        "\nprint(_backend.ztbsv is blas.ztbsv, _backend.dtbsv is blas.dtbsv)")
    assert _run_python(code).split() == ["True", "True"]


@pytest.mark.parametrize("first", ["dpstab", "scipy"])
def test_backend_transforms_are_scipys(first):
    # r2c and c2r are the functions scipy.fft calls, whichever is imported
    # first, and scipy.fft still works after dpstab
    imports = ["from dpstab import _backend", "import scipy.fft",
               "from scipy.fft._pocketfft import pypocketfft as pfft"]
    code = "\n".join(imports if first == "dpstab" else imports[1:] + imports[:1]) + (
        "\nimport numpy as np\nx = np.arange(8.0)\n"
        "print(_backend._r2c is pfft.r2c, _backend._c2r is pfft.c2r,\n"
        "      np.array_equal(scipy.fft.rfft(x), _backend.rfft(x)))")
    assert _run_python(code).split() == ["True", "True", "True"]


def test_missing_blas_extension_names_the_folder(monkeypatch):
    monkeypatch.setattr(_backend, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"_fblas in .*linalg"):
        _backend._load_extension("linalg", "_fblas", "dtbsv")


def test_missing_transform_extension_names_the_folder(monkeypatch):
    monkeypatch.setattr(_backend, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"pypocketfft in .*fft.*_pocketfft"):
        _backend._load_extension("fft/_pocketfft", "pypocketfft", "r2c")


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c", "from dpstab.cli import main; main()",
         "gap", "--k", K, "--c", C, "--alpha", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.25"


def test_winding_circle_counts_double_zero(tmp_path, capsys):
    out = str(tmp_path / "wind")
    rc = cli.run(["winding", "--k", K, "--c", C, "--alpha", "0.5",
                  "--contour", "circle", "--center", "0", "--radius", "0.05",
                  "--L", "30", "--h", "0.05", "--n-nodes", "32",
                  "--out", out])
    assert rc == 0
    assert "winding = 2" in capsys.readouterr().out
    meta = _read_json(out + ".json")
    assert meta["winding"] == 2
    assert meta["min_abs_D"] > 0.0
    # error-controlled: steps 2h and h sufficed at every node
    assert 0.0 < meta["err_ratio"] <= 1e-2 and meta["nsub_max"] == 1


def test_winding_takes_no_nsub(tmp_path, capsys, monkeypatch):
    # the count is always error-controlled: --nsub is an unknown flag, and an
    # nsub entry of a config file an unknown key
    monkeypatch.chdir(tmp_path)
    argv = ["winding", "--k", K, "--c", C, "--alpha", "0.5"]
    assert cli.run(argv + ["--nsub", "10"]) == 2
    assert "unrecognized arguments: --nsub 10" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"subcommand": "winding", "k": 0.1, "c": 1, "alpha": 0.5, "nsub": null}')
    assert cli.run(["winding", "--config", str(cfg)]) == 2
    assert "unknown config key: nsub" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_winding_unknown_contour(tmp_path, capsys):
    rc = cli.run(["winding", "--k", K, "--c", C, "--contour", "triangle",
                  "--out", str(tmp_path / "w")])
    assert rc == 2
    assert "unknown contour kind" in capsys.readouterr().err


def test_evans_point_json(tmp_path, capsys):
    out = str(tmp_path / "ev")
    rc = cli.run(["evans", "--k", K, "--c", C, "--alpha", "0.5",
                  "--lam-re", "0.5", "--L", "30", "--h", "0.05",
                  "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    # D is real positive on the real axis right of the spectrum
    assert meta["re"] > 0.0
    assert meta["im"] == pytest.approx(0.0, abs=1e-12)


def test_lax_report_json(tmp_path, capsys):
    out = str(tmp_path / "lx")
    rc = cli.run(["lax", "--k", K, "--c", C, "--lam-re", "0.3",
                  "--lam-im", "0.1", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["lambda"] == [0.3, 0.1]
    assert len(meta["branches"]) == 3
    assert all("sigma" in b and "checks" in b for b in meta["branches"])
    # complex values as [re, im], each the library's to the last bit
    data = lax.m_cubic(0.3 + 0.1j, WaveParams(0.1, 1.0))
    assert meta["discriminant"] == [data.discriminant.real, data.discriminant.imag]
    assert [complex(*b["sigma"]) for b in meta["branches"]] == [
        b.sigma for b in data.branches]


def test_kernel_report_json(tmp_path, capsys):
    out = str(tmp_path / "ker")
    rc = cli.run(["kernel", "--k", K, "--c", C, "--alpha", "0.5",
                  "--L", "30", "--h", "0.05", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["theta1"] == pytest.approx(4.320087729757807, rel=1e-6)
    assert meta["theta2"] == pytest.approx(11.337868480767948, rel=1e-6)
    assert set(meta["gram_residuals"]) == {"z1_eta1", "z1_eta2", "z2_eta1",
                                           "z2_eta2"}
    # the CSV holds the library's basis on the same grid, bit for bit
    basis = kernel.kernel_basis(
        solve_profile(WaveParams(0.1, 1.0), L=30.0, h=0.05), 0.5)
    assert meta["theta1"] == basis.theta1
    data = np.genfromtxt(out + ".csv", delimiter=",", names=True)
    assert data.dtype.names == ("xi", "z1", "z2", "eta1", "eta2")
    assert np.array_equal(data["z1"], basis.z1)
    assert np.array_equal(data["eta2"], basis.eta2)


def test_free_evolve_decay(tmp_path, capsys):
    out = str(tmp_path / "free")
    rc = cli.run(["free-evolve", "--k", K, "--c", C, "--alpha", "0.5",
                  "--t-final", "20", "--n-records", "81",
                  "--L", "30", "--h", "0.05", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["decay_rate"] < -0.2
    with open(out + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("t,norm_w")
    assert len(lines) == 82


def test_linear_evolve_artifacts(tmp_path, capsys):
    out = str(tmp_path / "lin")
    with pytest.warns(UserWarning):
        rc = cli.run(["linear-evolve", "--k", K, "--c", C, "--alpha", "0.5",
                      "--t-final", "4", "--n-records", "21",
                      "--L", "20", "--h", "0.1", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["solver"]["kind"] == "linear"
    assert meta["solver"]["projected"] is True
    assert meta["decay_rate"] < 0.0
    data = np.genfromtxt(out + ".csv", delimiter=",", names=True)
    assert data.dtype.names == ("t", "norm_w", "ip_eta1", "ip_eta2")
    assert data.size == 21
    # the CSV holds the library trajectory of the same run, bit for bit
    with pytest.warns(UserWarning):
        prof = solve_profile(WaveParams(0.1, 1.0), L=20.0, h=0.1)
    w0 = np.exp(-((prof.xi - 2.0) ** 2) / 2.0)
    traj = evolve.linear_evolve(w0, prof, 0.5, T=4.0, n_records=21)
    columns = {"t": traj.t, "norm_w": traj.norm_w, **traj.records}
    for name in ("t", "norm_w", "ip_eta1", "ip_eta2"):
        assert np.array_equal(data[name], columns[name]), name


def test_nonlinear_evolve_artifacts(tmp_path, capsys):
    out = str(tmp_path / "nl")
    with pytest.warns(UserWarning):
        rc = cli.run(["nonlinear-evolve", "--k", K, "--c", C,
                      "--t-final", "1", "--n-records", "21",
                      "--L", "20", "--h", "0.1", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    for key in ("E", "Q", "H"):
        assert abs(meta["invariant_drift"][key]) < 1e-6
    solver = meta["solver"]
    assert solver["kind"] == "nonlinear" and "filter" not in solver
    assert solver["h"] == 0.1 and solver["T"] == 1.0
    with open(out + ".csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "t,norm_w,E,Q,H"
    data = np.genfromtxt(out + ".csv", delimiter=",", names=True)
    assert data.size == 21
    # no kernel projection in the nonlinear flow, so no pairing columns
    assert not any(name.startswith("ip_eta") for name in data.dtype.names)
    # the Q column is the recorded invariant the sidecar's drift came from
    Q = data["Q"]
    assert (Q[-1] - Q[0]) / abs(Q[0]) == meta["invariant_drift"]["Q"]


@pytest.mark.parametrize("cmd, header", [
    (["free-evolve", "--alpha", "0.5"], "t,norm_w"),
    (["linear-evolve", "--alpha", "0.5"], "t,norm_w,ip_eta1,ip_eta2"),
    (["nonlinear-evolve"], "t,norm_w,E,Q,H"),
], ids=["free", "linear", "nonlinear"])
def test_evolve_artifacts_hold_only_recorded_values(tmp_path, capsys, cmd, header):
    # each flow writes the columns it records and the settings it ran with:
    # no all-NaN column, no null setting
    out = str(tmp_path / "run")
    argv = cmd + ["--k", K, "--c", C, "--t-final", "1", "--n-records", "11",
                  "--L", "20", "--h", "0.1", "--out", out]
    if cmd[0] == "free-evolve":
        rc = cli.run(argv)
    else:
        with pytest.warns(UserWarning, match="short"):
            rc = cli.run(argv)
    assert rc == 0
    capsys.readouterr()
    with open(out + ".csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == header
    data = np.genfromtxt(out + ".csv", delimiter=",", names=True)
    assert data.size == 11
    for name in data.dtype.names:
        assert not np.all(np.isnan(data[name])), name
    solver = _read_json(out + ".json")["solver"]
    assert solver["kind"] == cmd[0].removesuffix("-evolve")
    assert solver["T"] == 1.0 and solver["h"] == 0.1
    assert None not in solver.values()


def test_plot_script_references_csv(tmp_path, capsys):
    out = str(tmp_path / "prof")
    script = str(tmp_path / "plot.gp")
    with pytest.warns(UserWarning, match="short"):
        rc = cli.run(["profile", "--k", K, "--c", C, "--L", "20", "--h", "0.1",
                      "--out", out, "--plot-script", script])
    assert rc == 0
    capsys.readouterr()
    text = Path(script).read_text(encoding="utf-8")
    assert out + ".csv" in text
    assert "plot" in text
