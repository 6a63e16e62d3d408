"""Smoke runs of the research scripts at small sizes."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, check=True)


def test_corruption_sweep_factor_one_reads_half():
    out = run_script("corruption_sweep.py", "--methods", "bootstrap-lr",
                     "--factors", "1", "10").stdout
    header, *rows = out.splitlines()
    assert header.split() == ["method", "factor=1", "factor=10"]
    assert [r.split()[:2] for r in rows] == [["bootstrap-lr", "0.5000+-0.000"]]


def test_selective_prediction_prints_a_row_per_fraction():
    out = run_script("selective_prediction.py", "--methods", "bootstrap-lr",
                     "--seeds", "0", "--fractions", "0.5", "1.0").stdout
    header, *rows = out.splitlines()
    assert header.split() == ["method", "fraction", "auc", "ece"]
    assert [r.split()[:2] for r in rows] == [["bootstrap-lr", "1.00"], ["bootstrap-lr", "0.50"]]


def test_ood_shift_prints_a_row_per_shift():
    out = run_script("ood_shift.py", "--methods", "bootstrap-lr", "--seeds", "0",
                     "--shifts", "0", "3", "--group-size", "600").stdout
    header, *rows = out.splitlines()
    assert header.split() == ["method", "shift", "detection", "auc", "subgroup", "auc"]
    assert [r.split()[:2] for r in rows] == [["bootstrap-lr", "0.0"], ["bootstrap-lr", "3.0"]]
