"""Smoke runs of README's synthetic-data configs at small sizes.

Each test writes the synthetic CSV with README's `write_synthetic` block,
runs the matching config through the CLI with one method, and reads the
per-seed records from results.json.
"""
import json
import re
from pathlib import Path

import pytest

from tabuq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_configs():
    """write_synthetic from README's block, and its configs by experiment."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Synthetic data\n"):text.index("## Layout\n")]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block.partition("\n\nwrite_synthetic(")[0], namespace)
    configs = [json.loads(config) for config in re.findall(r"```json\n(.*?)```", section, re.S)]
    return namespace["write_synthetic"], {config["experiment"]: config for config in configs
                                          if config["dataset"].startswith("csv:")}


@pytest.fixture
def synthetic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return readme_configs()


def run_records(config, name, **overrides):
    """The per-seed records of one run of config with overrides, as
    (context, metric, value) triples."""
    config = {**config, "methods": ["bootstrap-lr"], "out_dir": name, **overrides}
    Path(f"{name}.json").write_text(json.dumps(config))
    assert main(["--config", f"{name}.json", "--quiet"]) == 0
    doc = json.loads(Path(name, "results.json").read_text())
    return [(r["context"], r["metric"], r["value"]) for r in doc["per_seed"][0]["records"]]


def test_corruption_sweep_factor_one_reads_half(synthetic):
    write_synthetic, configs = synthetic
    write_synthetic("synthetic-seed0.csv", seed=0)
    records = run_records(configs["corrupt"], "corrupt", factors=[1, 10])
    factors = {context.partition(".")[0] for context, _, _ in records}
    assert sorted(factors) == ["factor=1", "factor=10"]
    assert {metric: value for context, metric, value in records if context == "factor=1"} == {
        "detection_auc_mean": 0.5, "detection_auc_std": 0.0}


def test_selective_prediction_prints_a_row_per_fraction(synthetic):
    write_synthetic, configs = synthetic
    write_synthetic("synthetic-seed0.csv", seed=0)
    records = run_records(configs["curve"], "curve", fractions=[0.5, 1.0])
    contexts = {context for context, _, _ in records}
    assert contexts == {"platt", "f=0.50", "f=1.00"}
    for fraction in ("f=0.50", "f=1.00"):
        assert {metric for context, metric, _ in records if context == fraction} >= {"auc", "ece"}


def test_ood_shift_prints_a_row_per_shift(synthetic):
    write_synthetic, configs = synthetic
    for shift in (0.0, 3.0):
        write_synthetic(f"shift{shift}.csv", seed=0, group_size=600, shift=shift)
        records = run_records(configs["ood:held"], f"ood-shift{shift}",
                              dataset=f"csv:shift{shift}.csv")
        assert {(context, metric) for context, metric, _ in records} >= {
            ("group=held", "detection_auc"), ("group=held", "subgroup_auc")}
