"""Command line dispatch: artifacts, config merge, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpstab import cli
from dpstab.dispersion import spectral_gap
from dpstab.wave import SolverError, WaveParams

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
    assert header.startswith("xi,u0")
    meta = _read_json(out + ".json")
    assert meta["u_max"] == pytest.approx(0.5837722339831621, abs=1e-12)
    assert meta["config"]["subcommand"] == "profile"
    assert meta["config"]["k"] == 0.1
    assert meta["config"]["c"] == 1.0


def test_rerun_is_byte_identical(tmp_path, capsys):
    out = str(tmp_path / "rep")
    argv = ["profile", "--k", K, "--c", C, "--L", "20", "--h", "0.1",
            "--out", out]
    with pytest.warns(UserWarning, match="short"):
        assert cli.run(argv) == 0
    first = (Path(out + ".csv").read_bytes(), Path(out + ".json").read_bytes())
    with pytest.warns(UserWarning, match="short"):
        assert cli.run(argv) == 0
    capsys.readouterr()
    assert Path(out + ".csv").read_bytes() == first[0]
    assert Path(out + ".json").read_bytes() == first[1]


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


def test_non_finite_config_value_rejected(tmp_path, capsys):
    # JSON's Infinity literal reaches the same check as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": 0.1, "c": 1, "alpha": Infinity}')
    assert cli.run(["gap", "--config", str(cfg)]) == 2
    assert "--alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--h", "0"], ["--L", "-1"]])
def test_free_evolve_rejects_nonpositive_grid(tmp_path, capsys, grid):
    rc = cli.run(["free-evolve", "--k", K, "--c", C, "--alpha", "0.5",
                  "--out", str(tmp_path / "x")] + grid)
    assert rc == 2
    assert "L and h must be positive" in capsys.readouterr().err


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # the dispatcher maps solver aborts onto exit code 3
    def boom(cfg):
        raise SolverError("synthetic abort")

    monkeypatch.setitem(cli._HANDLERS, "gap", boom)
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


def test_selftest_passes(capsys):
    assert cli.run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 2


def test_selftest_without_sympy_names_the_extra(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert cli.run(["selftest"]) == 2
    assert "dpstab[selftest]" in capsys.readouterr().err


def test_import_leaves_heavy_scipy_subpackages_out():
    # each of these pulls in dozens of modules that no command uses
    heavy = ("scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate")
    code = ("import sys, dpstab.cli; print(' '.join(m for m in sys.modules "
            f"if m.startswith({heavy!r})))")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def test_kernel_report_json(tmp_path, capsys):
    out = str(tmp_path / "ker")
    rc = cli.run(["kernel", "--k", K, "--c", C, "--alpha", "0.5",
                  "--L", "30", "--h", "0.05", "--out", out])
    assert rc == 0
    capsys.readouterr()
    meta = _read_json(out + ".json")
    assert meta["theta1"] == pytest.approx(4.320087729757807, rel=1e-6)
    assert meta["theta2"] == pytest.approx(11.337868480767948, rel=1e-6)


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
    assert meta["decay_rate"] < 0.0


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
    with open(out + ".csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "t,norm_w,ip_eta1,ip_eta2,E,Q,H"


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
