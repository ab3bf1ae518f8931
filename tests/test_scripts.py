"""Smoke runs of the two reproduction scripts on small grids."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_rows(path, header):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == header
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def test_werner_enhancement(tmp_path, capsys):
    out = tmp_path / "werner.csv"
    assert load_script("werner_enhancement").main(["--out", str(out), "--points", "4"]) == 0
    rows = read_rows(out, "s,c_initial,c_final,delta_measured,delta_predicted,"
                          "prediction_applicable")
    assert rows.shape == (4, 6)
    applicable = rows[rows[:, 5] == 1]
    assert len(applicable) > 0
    assert np.abs(applicable[:, 3] - applicable[:, 4]).max() < 1e-9
    assert f"wrote {out}" in capsys.readouterr().out


def test_phase_diagram_with_evolve_check(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    assert load_script("phase_diagram").main(
        ["--out", str(out), "--tau-points", "5", "--f-points", "3", "--check-evolve"]) == 0
    assert read_rows(out, "tau,f,concurrence").shape == (15, 3)
    thresholds = read_rows(tmp_path / "phase_threshold.csv", "f,tau_threshold")
    assert thresholds.shape == (3, 2)
    spot = re.search(r"max \|closed - evolved\| = (\S+)", capsys.readouterr().out)
    assert float(spot.group(1)) < 1e-9


@pytest.mark.parametrize("name,threshold", [("phase.txt", "phase_threshold.txt"),
                                            ("phase", "phase_threshold")])
def test_phase_diagram_threshold_path_keeps_any_suffix(tmp_path, capsys, name, threshold):
    out = tmp_path / name
    assert load_script("phase_diagram").main(
        ["--out", str(out), "--tau-points", "5", "--f-points", "3"]) == 0
    assert read_rows(out, "tau,f,concurrence").shape == (15, 3)
    assert read_rows(tmp_path / threshold, "f,tau_threshold").shape == (3, 2)
    assert f"wrote {out} and {tmp_path / threshold}" in capsys.readouterr().out


@pytest.mark.parametrize("script,lam,message", [
    ("phase_diagram", "1,1", "expected 3 entries"),
    ("phase_diagram", "1,-1,1", "negative eigenvalue"),
    ("phase_diagram", "1,0,0", "rank <= 1"),
    ("werner_enhancement", "1,1", "expected 3 entries"),
    ("werner_enhancement", "1,0,0", "rank <= 1"),
])
def test_scripts_reject_bad_rates(tmp_path, capsys, script, lam, message):
    out = tmp_path / "out.csv"
    argv = ["--out", str(out), "--lam", lam]
    if script == "werner_enhancement":
        argv += ["--b", "0"]  # the default |B| = 0.5 is not positive on rank-1 rates
    with pytest.raises(SystemExit) as exc:
        load_script(script).main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script,out,blocker", [
    ("phase_diagram", "no/such/p.csv", None),
    ("phase_diagram", "p.csv", "p_threshold.csv"),  # threshold path is a directory
    ("werner_enhancement", "no/such/w.csv", None),
    ("werner_enhancement", "w.csv", "w.csv"),
], ids=["phase-missing-dir", "phase-threshold-is-dir", "werner-missing-dir",
        "werner-out-is-dir"])
def test_scripts_refuse_unwritable_out_before_work(tmp_path, capsys, monkeypatch,
                                                   script, out, blocker):
    if blocker is not None:
        (tmp_path / blocker).mkdir()
    module = load_script(script)

    def no_work(*args):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(module, "stationary_family", no_work)
    with pytest.raises(SystemExit) as exc:
        module.main(["--out", str(tmp_path / out)])
    assert exc.value.code == 2
    assert "cannot write output" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ([] if blocker is None else [blocker])


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("script,flag", [("phase_diagram", "--tau-points"),
                                         ("phase_diagram", "--f-points"),
                                         ("werner_enhancement", "--points")])
def test_scripts_reject_grid_sizes_below_one(tmp_path, capsys, script, flag, value):
    with pytest.raises(SystemExit) as exc:
        load_script(script).main(["--out", str(tmp_path / "out.csv"), flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
