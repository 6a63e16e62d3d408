"""Smoke runs of the research scripts at small sizes."""
import csv
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


def test_toy_surfaces_vae_table_has_paired_probability(tmp_path):
    run_script("toy_surfaces.py", "--resolution", "3", "--out", str(tmp_path))
    with open(tmp_path / "vae.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["x1", "x2", "entropy", "novelty", "probability"]
    assert len(rows) == 9
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)
