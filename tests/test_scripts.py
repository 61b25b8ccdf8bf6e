"""Smoke runs of the scripts under ``scripts/`` at small sizes."""

import importlib.util
import os

import pytest

from semidecay.fokker_planck import Potential

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep(capsys):
    _load("seed_sweep").main(3, 8)
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()
            if line.split()[:1] in (["1"], ["2"], ["3"])]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(row[6] == "True" for row in rows)
    assert "domination violations:   0/3" in out


def test_gap_convergence_study(capsys):
    _load("gap_convergence").study(Potential(2.0), -2.0, "quadratic potential",
                                   sizes=(100, 200))
    out = capsys.readouterr().out
    assert "quadratic potential (exact -2.00000000)" in out
    richardson = [line for line in out.splitlines() if line.startswith("Richardson")]
    error = float(richardson[0].split("error ")[1].rstrip(")"))
    assert error < 1e-3


def test_decay_demo_writes_its_trajectory(tmp_path, capsys):
    out_csv = tmp_path / "decay_demo.csv"
    _load("decay_demo").main(str(out_csv))
    out = capsys.readouterr().out
    assert f"trajectory written to {out_csv}" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,norm_H,norm_HH,mass"
    assert len(lines) == 1 + 401
    assert float(lines[1].split(",")[0]) == pytest.approx(0.0)


def test_scan_scale_counts_the_band_kernel(capsys):
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "fp_d1_scan.json")
    _load("scan_scale").main(config, 60)
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()
            if line.split()[:1] in (["small"], ["ambient"])}
    assert out.startswith("d=1 N=60 n=60")
    assert set(rows) == {"small", "ambient"}
    # every ambient evaluation takes the band kernel and factors once; the
    # Hermitian small line has none
    _, evaluations, anchors, factorizations, _ = rows["ambient"]
    assert int(factorizations) == int(evaluations) > int(anchors) > 0
    assert rows["small"][2:] == ["-", "-", "-"]
