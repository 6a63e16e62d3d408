import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabuq import (Dataset, MethodSettings, SeededRng, VaeConfig, __version__, apply_scaler,
                   evaluation, fit_scaler, generate_synthetic, numeric, split)
from tabuq.cli import CSV_HEADER, KNOWN_KEYS, _write_grid, format_value, main, parse_config, run
from tabuq.data import grid_2d
from tabuq.errors import ConfigError

from oracles import write_grid_reference

BASE = {"dataset": "toy-balanced", "experiment": "curve"}


def write_config(tmp_path, extra, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps({**BASE, **extra}))
    return path


# Small but real config: one linear member, one seed, tiny toy set.
FAST = {"methods": ["bootstrap-lr"], "seeds": [0], "toy_n_train": 60,
        "fractions": [1.0, 0.5], "logistic_c": 1.0, "ensemble_size": 1}


class TestParseConfig:

    def test_toy_defaults(self):
        cfg = parse_config(dict(BASE))
        assert cfg.settings.mlp.hidden == (5,)
        assert cfg.settings.mlp.batch_size == 8
        assert cfg.settings.mlp.max_epochs == 20
        assert cfg.settings.mlp.patience is None
        assert cfg.settings.logistic_c == math.inf
        assert cfg.settings.vae.latent_dim == 2
        assert cfg.settings.standardize is False

    def test_csv_defaults(self):
        cfg = parse_config({"dataset": "csv:some.csv", "experiment": "curve"})
        assert cfg.settings.mlp.hidden == (100, 100)
        assert cfg.settings.mlp.batch_size == 256
        assert cfg.settings.mlp.max_epochs == 100
        assert cfg.settings.mlp.patience == 2
        assert cfg.settings.logistic_c == pytest.approx(1e-2)
        assert cfg.settings.vae.latent_dim == 500
        assert cfg.settings.standardize is True
        assert cfg.split_fractions == (0.6, 0.2, 0.2)
        assert cfg.factors == (10, 1000) and cfg.n_corrupt_features == 30

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="n_esembles"):
            parse_config({**BASE, "n_esembles": 5})

    def test_bad_dataset(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config({"dataset": "mnist", "experiment": "curve"})

    def test_ood_tag_parsing(self):
        cfg = parse_config({"dataset": "csv:d.csv", "experiment": "ood:elective"})
        assert cfg.ood_tag == "elective"
        assert cfg.experiment == "ood:elective"

    def test_ood_without_tag(self):
        with pytest.raises(ConfigError, match="ood"):
            parse_config({"dataset": "csv:d.csv", "experiment": "ood:"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({**BASE, "experiment": "ablation"})

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="gradient-boost"):
            parse_config({**BASE, "methods": ["gradient-boost"]})

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config({**BASE, "seeds": []})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_1(self, tmp_path, capsys, seed):
        # 2**64 would write 0's results a second time, and a std of 0.
        cfg = write_config(tmp_path, {**FAST, "seeds": [0, seed],
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        assert "key 'seeds'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_wins(self):
        cfg = parse_config({**BASE, "seeds": [0, 1]}, seed_override=[7, 9])
        assert cfg.seeds == (7, 9)

    # Values that collapse into one record would write rows twice or
    # overwrite one point with another, so they are refused by key.
    @pytest.mark.parametrize("extra, override, message", [
        ({"seeds": [3, 3]}, None, "key 'seeds': 3 and 3 both give seed 3"),
        ({"seeds": [0, 1]}, [5, 2, 5], "key 'seeds': 5 and 5 both give seed 5"),
        ({"fractions": [0.501, 0.504, 1.0]}, None,
         "key 'fractions': 0.501 and 0.504 both give f=0.50"),
        ({"factors": [10, 10.0000001]}, None,
         "key 'factors': 10.0 and 10.0000001 both give factor=10"),
    ], ids=["seeds", "seed-override", "fractions", "factors"])
    def test_values_writing_one_record_rejected(self, extra, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config({**BASE, **extra}, seed_override=override)

    def test_values_with_distinct_contexts_accepted(self):
        cfg = parse_config({**BASE, "seeds": [3, 4], "fractions": [0.5, 0.51, 1.0],
                            "factors": [10, 10.5, 1e-3]})
        assert (cfg.seeds, cfg.fractions, cfg.factors) == (
            (3, 4), (0.5, 0.51, 1.0), (10.0, 10.5, 1e-3))

    def test_fractions_writing_one_record_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "fractions": [0.501, 0.504, 1.0],
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        assert "key 'fractions'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_override_wins(self, tmp_path):
        cfg = parse_config({**BASE, "out_dir": "a"}, out_override=tmp_path / "b")
        assert cfg.out_dir.endswith("b")

    def test_flat_grid_bounds_rejected(self):
        with pytest.raises(ConfigError, match="grid_bounds"):
            parse_config({**BASE, "grid_bounds": [-6, 6]})

    def test_null_out_dir_rejected(self):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config({**BASE, "out_dir": None})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="max_epochs"):
            parse_config({**BASE, "max_epochs": True})

    def test_bad_parameter_becomes_config_error(self):
        with pytest.raises(ConfigError):
            parse_config({**BASE, "batch_size": 0})

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(KNOWN_KEYS)), value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8))
    def test_any_json_value_parses_or_raises_config_error(self, key, value):
        try:
            cfg = parse_config({**BASE, key: value})
        except ConfigError:
            return
        # The resolved settings, as results.json holds them, give the same run.
        again = parse_config(json.loads(json.dumps(cfg.resolved)))
        assert replace(again, echo={}, out_dir="") == replace(cfg, echo={}, out_dir="")


class TestFormatValue:

    def test_none_is_absent(self):
        assert format_value(None) == "absent"

    def test_floats_use_repr(self):
        assert format_value(0.5) == "0.5"
        assert format_value(np.float64(0.1)) == "0.1"
        assert format_value(1.0) == "1.0"


@pytest.fixture(scope="module")
def curve_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("curve")
    cfg = write_config(tmp, FAST)
    assert run(cfg, out_override=tmp / "out", quiet=True) == 0
    return tmp / "out"


@pytest.fixture(scope="module")
def surf_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("surf")
    cfg = write_config(tmp, {
        "experiment": "surfaces", "methods": ["bootstrap-lr", "vae"],
        "ensemble_size": 1, "seeds": [0], "toy_n_train": 40,
        "logistic_c": 1.0, "vae_epochs": 2,
        "grid_bounds": [[-1.0, 1.0], [-1.0, 1.0]], "grid_resolution": 5})
    assert run(cfg, out_override=tmp / "out", quiet=True) == 0
    return tmp / "out"


class TestRun:

    def test_csv_header_and_rows(self, curve_out):
        lines = (curve_out / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # per-seed rows plus mean/std aggregates for every record
        cells = [line.split(",") for line in lines[1:]]
        assert {c[2] for c in cells} == {"0", "mean", "std"}
        assert all(c[0] == "curve" and c[1] == "bootstrap-lr" for c in cells)
        assert {c[3] for c in cells} == {"f=1.00", "f=0.50"}

    def test_single_seed_std_is_absent(self, curve_out):
        lines = (curve_out / "results.csv").read_text().splitlines()
        std = [line for line in lines if line.split(",")[2] == "std"]
        assert std and all(line.endswith(",absent") for line in std)

    def test_json_document(self, curve_out):
        doc = json.loads((curve_out / "results.json").read_text())
        assert doc["toolkit_version"] == __version__
        assert doc["config"]["toy_n_train"] == 60
        assert doc["seeds"] == [0]
        assert doc["per_seed"][0]["seed"] == 0
        assert set(doc["aggregate"]) == {"mean", "std"}

    def test_csv_and_json_agree(self, curve_out):
        doc = json.loads((curve_out / "results.json").read_text())
        csv_rows = {}
        for line in (curve_out / "results.csv").read_text().splitlines()[1:]:
            exp, method, seed, context, metric, value = line.split(",")
            csv_rows[(method, seed, context, metric)] = value
        for rec in doc["per_seed"][0]["records"]:
            key = (rec["method"], "0", rec["context"], rec["metric"])
            assert csv_rows[key] == format_value(rec["value"])

    def test_rerun_is_byte_identical(self, curve_out, tmp_path):
        cfg = write_config(tmp_path, FAST)
        assert run(cfg, out_override=tmp_path / "out", quiet=True) == 0
        for name in ("results.csv", "results.json"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (curve_out / name).read_bytes()

    def test_platt_records_gated(self, curve_out, tmp_path):
        assert "platt" not in (curve_out / "results.csv").read_text()
        cfg = write_config(tmp_path, {**FAST, "platt": True,
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 0
        text = (tmp_path / "out" / "results.csv").read_text()
        assert "curve,bootstrap-lr,0,platt,a," in text
        assert "curve,bootstrap-lr,0,platt,b," in text

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mystery": 1})
        assert run(cfg, quiet=True) == 1
        assert "mystery" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(path, quiet=True) == 1

    def test_integer_too_long_to_read_exits_1(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"dataset": "toy-balanced", "experiment": "curve", '
                        '"seeds": [' + "1" * 5000 + "]}")
        assert run(path, quiet=True) == 1
        assert capsys.readouterr().err.startswith("config error")

    def test_missing_config_exits_1(self, tmp_path):
        assert run(tmp_path / "nope.json", quiet=True) == 1

    def test_missing_csv_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {**FAST,
                                      "dataset": f"csv:{tmp_path / 'no.csv'}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2

    def test_bad_csv_cell_exits_2(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,label\n1,oops,0\n2,3,1\n")
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2

    def test_zero_vae_samples_exits_1_naming_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "vae_samples": 0})
        assert run(cfg, quiet=True) == 1
        assert "vae_samples" in capsys.readouterr().err

    def test_feature_names_with_comma_and_quote_stay_six_fields(self, tmp_path):
        data = tmp_path / "odd.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x,1", 'q"2', "label"])
            writer.writerows([i % 5 - 2.0, (i * 7) % 11 / 3.0, i % 2] for i in range(40))
        cfg = write_config(tmp_path, {
            **FAST, "dataset": f"csv:{data}", "experiment": "corrupt",
            "factors": [10], "n_corrupt_features": 2,
            "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 0
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 6 for r in rows)
        contexts = {r[3] for r in rows}
        assert {"factor=10.feature=x,1", 'factor=10.feature=q"2'} <= contexts

    def test_nan_feature_exits_3(self, tmp_path, capsys):
        # NaN cells are refused on load (see the test below), so a training
        # failure is provoked with a step size that makes the first update
        # overflow: the next training loss is non-finite.
        data = tmp_path / "plain.csv"
        rows = ["a,b,label"] + [f"{i},{i % 3},{i % 2}" for i in range(20)]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "dataset": f"csv:{data}", "experiment": "curve",
            "methods": ["single-nn"], "seeds": [0], "fractions": [1.0],
            "standardize": False, "hidden": [4], "max_epochs": 2,
            "patience": None, "batch_size": 4, "lr": 1e300,
            "out_dir": str(tmp_path / "out")})
        with np.errstate(all="ignore"):
            assert run(cfg, quiet=True) == 3
        assert "training error" in capsys.readouterr().err

    def test_vae_error_beside_the_mlp_fit_exits_3_as_in_order(self, tmp_path, capsys,
                                                              monkeypatch):
        # Above the gate the VAE fits on a worker thread while the MLP fit
        # runs; its error must reach the exit code and message of a fit in order.
        # The single NN and the VAE's classifier, at batch 16, reach the gate.
        data = tmp_path / "plain.csv"
        rows = ["a,b,label"] + [f"{i},{i % 3},{i % 2}" for i in range(100)]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "dataset": f"csv:{data}", "experiment": "curve",
            "methods": ["single-nn", "vae"], "seeds": [0], "fractions": [1.0],
            "hidden": [-(-numeric.WORKER_MIN // 32)], "max_epochs": 2, "batch_size": 16,
            "vae_latent": -(-numeric.WORKER_MIN // 50), "vae_epochs": 2,
            "vae_lr": 1e300, "out_dir": str(tmp_path / "out")})
        on_worker = []
        real = evaluation.train_vae

        def recorded(*args):
            on_worker.append(threading.current_thread() is not threading.main_thread())
            return real(*args)

        monkeypatch.setattr(evaluation, "train_vae", recorded)
        errors = []
        for gate in (numeric.WORKER_MIN, math.inf):
            monkeypatch.setattr(numeric, "WORKER_MIN", gate)
            threads = threading.active_count()
            with np.errstate(all="ignore"):
                assert run(cfg, quiet=True) == 3
            assert threading.active_count() == threads
            errors.append(capsys.readouterr().err)
        assert on_worker == [True, False]
        assert errors[0] == errors[1]
        assert errors[0].startswith("training error: seed 0: non-finite training loss at epoch")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2_naming_row_and_column(self, tmp_path, capsys, cell):
        data = tmp_path / "nan.csv"
        rows = ["a,b,label"] + [f"{i},{cell if i == 7 else i % 3},{i % 2}" for i in range(60)]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2
        err = capsys.readouterr().err
        assert "row 8, column 'b'" in err and "non-finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, body, message", [
        ("bad_utf8.csv", "a,b,label\n1,2,0\n3,caf\u00e9,1\n".encode("latin-1"),
         "bad_utf8.csv: line 3: not UTF-8 text"),
        ("long_cell.csv", ("a,b,label\n1,2,0\n3," + "4" * 140_000 + ",1\n").encode(),
         "long_cell.csv: line 3: field larger than field limit")],
        ids=["bad_utf8", "long_cell"])
    def test_malformed_csv_exits_2_naming_its_line(self, tmp_path, capsys, name, body, message):
        data = tmp_path / name
        data.write_bytes(body)
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and message in err

    def test_csv_with_byte_order_mark_and_label_first_runs(self, tmp_path):
        data = tmp_path / "bom.csv"
        rows = ["label,a,b"] + [f"{i % 2},{i},{i % 3}" for i in range(60)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 0

    @pytest.mark.parametrize("key, value", [
        ("n_corrupt_features", 0), ("ensemble_size", 0), ("mc_passes", 0),
        ("split_fractions", [0.5, 0.5, 0.5]), ("split_fractions", [1.2, -0.1, -0.1]),
        ("fractions", [1.5]), ("fractions", []), ("factors", [-1]),
        ("factors", 3), ("toy_n_train", 1), ("grid_resolution", 1),
        ("methods", 5), ("seeds", 3), ("dropout_rate", 1.0), ("logistic_c", -1),
        ("lr", 0), ("vae_lr", -1), ("grid_bounds", [[1, 0], [0, 1]]),
        ("grid_bounds", [[math.nan, 1], [0, 1]]), ("label_column", 5),
        ("methods", ["vae", "vae"])])
    def test_out_of_range_key_exits_1_naming_it(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**FAST, key: value,
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("hidden", [10**12], "key 'hidden' must be at most 100000, got 1000000000000"),
        ("hidden", [5, 20000, 20000], "key 'hidden' allows at most 100000000 weights "
                                      "between adjacent hidden layers, got 20000 x 20000"),
        ("vae_latent", 100001, "key 'vae_latent' must be at most 100000, got 100001"),
        ("grid_resolution", 10**6, "key 'grid_resolution' must be at most 1000, got 1000000"),
        ("toy_n_train", 10**12, "key 'toy_n_train' must be at most 1000000, got 1000000000000"),
        ("mc_passes", 10**12, "key 'mc_passes' must be at most 10000, got 1000000000000"),
        ("vae_samples", 10**12, "key 'vae_samples' must be at most 500, got 1000000000000"),
        ("ensemble_size", 10**12,
         "key 'ensemble_size' must be at most 3000, got 1000000000000")])
    def test_huge_model_exits_1_naming_the_key_and_its_cap(self, tmp_path, capsys,
                                                           key, value, message):
        cfg = write_config(tmp_path, {**FAST, key: value, "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "Infinity", "NaN", "0"])
    def test_logistic_c_must_be_null_or_positive_and_finite(self, tmp_path, capsys, literal):
        # json reads 1e400 as inf, which results.json would echo as Infinity.
        cfg = write_config(tmp_path, {**FAST, "out_dir": str(tmp_path / "out")})
        cfg.write_text(cfg.read_text().replace('"logistic_c": 1.0', f'"logistic_c": {literal}'))
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err.startswith(
            "config error: key 'logistic_c' must be null or positive and finite, got ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_record_exits_2_writing_nothing(self, tmp_path, capsys):
        # A grid at +-1e300 sends the VAE's novelty to inf, and its std over
        # the two seeds to NaN; strict JSON holds neither.
        cfg = write_config(tmp_path, {
            "dataset": "toy-balanced", "experiment": "surfaces", "methods": ["vae"],
            "seeds": [0, 1], "grid_bounds": [[-1e300, 1e300], [-1e300, 1e300]],
            "grid_resolution": 3, "out_dir": str(tmp_path / "out")})
        with np.errstate(all="ignore"):
            assert run(cfg, quiet=True) == 2
        assert capsys.readouterr().err == (
            "data error: seed 0: method 'vae', context 'grid', metric 'novelty_mean' is inf, "
            "which JSON cannot hold\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_factor_exits_2_naming_it_before_scoring(self, tmp_path, capsys,
                                                                 monkeypatch):
        # A standardized 300-row column holds values beyond 1, so 1e308 times
        # it overflows: refused before any method scores a copy, factor 10's
        # included, and with no numpy warning on the way.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        data = tmp_path / "wide.csv"
        rows = ["a,b,c,d,label"] + [",".join([*map(repr, x.tolist()), str(int(x[0] > 0))])
                                    for x in X]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "dataset": f"csv:{data}", "experiment": "corrupt", "factors": [10, 1e308],
            "n_corrupt_features": 1, "seeds": [0], "hidden": [8], "max_epochs": 2,
            "vae_latent": 5, "vae_epochs": 2, "mc_passes": 5, "out_dir": str(tmp_path / "out")})
        scored, auc_roc = [], evaluation.auc_roc
        monkeypatch.setattr(evaluation, "auc_roc",
                            lambda *args: scored.append(args) or auc_roc(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, quiet=True) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: seed 0: key 'factors': factor 1e\+308 times feature "
                            r"'[abcd]' is not finite\n", err), err
        assert scored == []
        assert not (tmp_path / "out").exists()

    def test_novelty_overflowing_to_inf_exits_0_without_a_warning(self, tmp_path):
        # 1e300 times a standardized column stays finite, but the VAE's squared
        # residual on it overflows: its novelty is +inf, which ranks above
        # every clean row's, and numpy stays quiet.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        data = tmp_path / "wide.csv"
        rows = ["a,b,c,d,label"] + [",".join([*map(repr, x.tolist()), str(int(x[0] > 0))])
                                    for x in X]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "dataset": f"csv:{data}", "experiment": "corrupt", "factors": [1e300],
            "n_corrupt_features": 1, "seeds": [0], "hidden": [8], "max_epochs": 2,
            "vae_latent": 5, "vae_epochs": 2, "mc_passes": 5, "out_dir": str(tmp_path / "out")})
        env = {**os.environ, "PYTHONPATH": str(Path(numeric.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-m", "tabuq", "--config", str(cfg), "--quiet"],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        with open(tmp_path / "out" / "results.csv", newline="", encoding="utf-8") as fh:
            vae = {(r["context"], r["metric"]): r["value"] for r in csv.DictReader(fh)
                   if r["method"] == "vae" and r["seed"] == "0"}
        assert vae["factor=1e+300", "detection_auc_mean"] == "1.0"

    def test_ood_run_scores_every_method_on_a_held_group(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "groups.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "group:held", "label"])
            for i, (a, b) in enumerate(rng.normal(size=(120, 2))):
                writer.writerow([a, b, int(i % 6 == 0), int(a + b > 0)])
        methods = ["bootstrap-lr", "mc-dropout", "vae"]
        cfg = write_config(tmp_path, {
            "dataset": f"csv:{data}", "experiment": "ood:held", "methods": methods,
            "seeds": [0], "hidden": [4], "max_epochs": 2, "ensemble_size": 1,
            "mc_passes": 3, "vae_latent": 2, "vae_epochs": 2,
            "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 0
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["seed"] == "0"]
        assert [(r["method"], r["context"], r["metric"]) for r in rows] == [
            (m, "group=held", metric) for m in methods
            for metric in ("detection_auc", "subgroup_auc")]
        values = {(r["method"], r["metric"]): r["value"] for r in rows}
        assert values.pop(("vae", "subgroup_auc")) == "absent"
        assert all(0.0 <= float(v) <= 1.0 for v in values.values())

    def test_group_column_as_label_exits_2_naming_it(self, tmp_path, capsys):
        # The column used to be both the label and the group, so ood:x held
        # out every positive, fitted on one class and wrote detection AUC 0.5.
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "group:x"])
            writer.writerows([(i * 7) % 11, int(i % 5 == 0)] for i in range(300))
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}", "experiment": "ood:x",
                                      "label_column": "group:x",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2
        assert "d.csv: label column 'group:x' is a group column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header, name", [(["a", "label", "label"], "label"),
                                              (["a", "a", "label"], "a")],
                             ids=["label_twice", "feature_twice"])
    def test_column_named_twice_exits_2_naming_it(self, tmp_path, capsys, header, name):
        # With the label twice, the second copy used to become a feature, so
        # the model trained on the label and reached AUC 1.0.
        data = tmp_path / "d.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([(i * 7) % 11, i % 2, i % 2] for i in range(200))
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2
        assert f"d.csv: column {name!r} appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_out_dir_on_a_file_exits_1_before_running(self, tmp_path, capsys,
                                                      monkeypatch, out_dir):
        import tabuq.cli as cli

        (tmp_path / "afile").write_text("")
        monkeypatch.setattr(cli, "_execute", lambda cfg: pytest.fail("the run started"))
        out = str(tmp_path / out_dir)
        cfg = write_config(tmp_path, {**FAST, "out_dir": out})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == (
            f"config error: key 'out_dir': cannot write to {out!r}: "
            f"{str(tmp_path / 'afile')!r} is not a directory\n")

    def test_out_dir_name_too_long_exits_1_before_running(self, tmp_path, capsys, monkeypatch):
        import tabuq.cli as cli

        monkeypatch.setattr(cli, "_execute", lambda cfg: pytest.fail("the run started"))
        out = str(tmp_path / ("x" * 300))
        cfg = write_config(tmp_path, {**FAST, "out_dir": out})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == (
            f"config error: key 'out_dir': cannot write to {out!r}: File name too long\n")

    def test_out_dir_that_cannot_be_written_exits_1_naming_it(self, tmp_path, capsys,
                                                             monkeypatch):
        # Making the output directory is refused, which the check finds first.
        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(Path, "mkdir", refused)
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, {**FAST, "out_dir": out})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == (
            f"config error: key 'out_dir': cannot write to {out!r}: Permission denied\n")
        assert not (tmp_path / "out").exists()

    def test_out_dir_that_cannot_be_made_exits_1_before_running(self, tmp_path, capsys,
                                                               monkeypatch):
        # Like "/proc/tabuq_out": the nearest existing parent is a directory,
        # yet nothing can be made in it. Here the first level can be made, so
        # the check must also remove what it made.
        import tabuq.cli as cli
        import tabuq.evaluation as evaluation

        real_mkdir = Path.mkdir
        out = tmp_path / "made" / "refused" / "out"

        def mkdir(self, *args, **kwargs):
            if self.name == "refused":
                raise FileNotFoundError(errno.ENOENT, "No such file or directory", str(self))
            return real_mkdir(self, *args, **kwargs)

        def trained(*args, **kwargs):
            pytest.fail("the run started")

        monkeypatch.setattr(Path, "mkdir", mkdir)
        monkeypatch.setattr(cli, "train_methods", trained)
        monkeypatch.setattr(evaluation, "train_methods", trained)
        cfg = write_config(tmp_path, {**FAST, "out_dir": str(out)})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == (f"config error: key 'out_dir': cannot write to "
                                           f"{str(out)!r}: No such file or directory\n")
        assert not (tmp_path / "made").exists()

    def test_out_dir_whose_results_file_cannot_be_written_exits_1_after_running(
            self, tmp_path, capsys, monkeypatch):
        # The check only makes directories, so a results.csv that is a
        # directory is found when the outputs are written, once the run is done.
        import tabuq.cli as cli

        runs = []
        real = cli._execute
        monkeypatch.setattr(cli, "_execute", lambda cfg: runs.append(cfg) or real(cfg))
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, {**FAST, "out_dir": str(out)})
        assert run(cfg, quiet=True) == 1
        assert len(runs) == 1
        assert capsys.readouterr().err == (
            f"config error: key 'out_dir': cannot write to {str(out)!r}: Is a directory\n")

    def test_out_dir_check_leaves_no_directory_behind(self, tmp_path, capsys):
        # The check makes and removes the output directories; a run that then
        # fails on its data still leaves none.
        out = tmp_path / "a" / "b"
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{tmp_path / 'no.csv'}",
                                      "out_dir": str(out)})
        assert run(cfg, quiet=True) == 2
        assert not (tmp_path / "a").exists()

    def test_ood_on_toy_dataset_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "experiment": "ood:held",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == ("config error: key 'experiment': "
                                           "ood needs a csv dataset with group columns\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_names_every_known_key():
    # One row per key; each default cell holds the key's default as JSON.
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | meaning | toy default | CSV default |"):].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table.splitlines()[2:]]
    keys = [re.fullmatch(r"`([a-z_]+)`", row[0]).group(1) for row in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == KNOWN_KEYS
    for column, dataset in ((2, "toy-balanced"), (3, "csv:d.csv")):
        cfg = parse_config({"dataset": dataset, "experiment": "curve"})
        defaults = json.loads(json.dumps({**cfg.resolved, "out_dir": cfg.out_dir}))
        for key, row in zip(keys, rows):
            if key in ("dataset", "experiment"):
                assert row[column] == "required"
            else:
                assert json.loads(row[column].strip("`")) == defaults[key], (key, dataset)


def test_readme_synthetic_recipe_gives_the_experiments_records(tmp_path, monkeypatch):
    # The recipe's CSV holds seed 0's synthetic draw, its held-out group and
    # its shift to the bit, so each config writes the records the experiment
    # gives on SeededRng(0)'s streams, called on the draw itself with the
    # settings the configs carry. Narrowed to bootstrap-lr for speed.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Synthetic data\n"):text.index("## Layout\n")]
    recipe = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    monkeypatch.chdir(tmp_path)
    exec(recipe, {})
    written = {}
    for config in configs:
        if config["dataset"].startswith("csv:"):
            assert config["seeds"] == [0]
            path = write_config(tmp_path, {**config, "methods": ["bootstrap-lr"]})
            assert main(["--config", str(path), "--quiet"]) == 0
            doc = json.loads((tmp_path / config["out_dir"] / "results.json").read_text())
            written[config["experiment"]] = [(r["method"], r["context"], r["metric"], r["value"])
                                             for r in doc["per_seed"][0]["records"]]
    assert list(written) == ["curve", "corrupt", "ood:held"]

    rng, methods = SeededRng(0), ["bootstrap-lr"]
    settings = MethodSettings(class_weighting=True, vae=VaeConfig(latent_dim=5))
    data = generate_synthetic(rng.split("data"))
    train, val, test = split(data, (0.6, 0.2, 0.2), rng.split("split"))
    fractions = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    curve = evaluation.curve_experiment(train, val, test, methods, settings, rng.split("curve"),
                                        fractions, use_platt=True)
    scaler = fit_scaler(train)
    fitted = evaluation.train_methods(methods, apply_scaler(scaler, train),
                                      apply_scaler(scaler, val), settings, rng)
    corrupt = evaluation.corruption_experiment(fitted, apply_scaler(scaler, test),
                                               rng.split("corrupt"), (1, 10, 100, 1000))
    pick = rng.split("group").permutation(data.n)[:1500]
    X = data.features.copy()
    X[pick] += 3.0 * X.std(axis=0)
    held = np.isin(np.arange(data.n), pick)
    ood = evaluation.ood_experiment(Dataset(X, data.labels, data.feature_names, {"held": held}),
                                    "held", methods, settings, rng.split("ood"))
    for experiment, records in (("curve", curve), ("corrupt", corrupt), ("ood:held", ood)):
        assert written[experiment] == [(*key, value) for key, value in records.items()]

    curve_contexts = {context for _, context, _, _ in written["curve"]}
    assert curve_contexts == {"platt", *(f"f={f:.2f}" for f in fractions)}
    factor_one = {metric: value for _, context, metric, value in written["corrupt"]
                  if context == "factor=1"}
    assert factor_one == {"detection_auc_mean": 0.5, "detection_auc_std": 0.0}
    assert ("bootstrap-lr", "group=held", "detection_auc") in {
        record[:3] for record in written["ood:held"]}


# Cells a faulty fuzzed CSV may hold besides plain numbers.
ODD_CELLS = ["", "nan", "inf", "-inf", "1e400", "abc", " 1 ", "2"]
NAME = st.text(alphabet="ab,\" :", min_size=1, max_size=4)


@st.composite
def fuzzed_csv(draw):
    """Header and rows of a small CSV with odd names and maybe group
    columns. Half of the files are faulty: a column named twice, odd cells,
    short rows or labels other than 0/1, each of the kinds load_csv checks."""
    faulty = draw(st.booleans())
    names = draw(st.lists(NAME, min_size=1, max_size=3, unique_by=str.strip))
    if faulty and draw(st.booleans()):
        names.append(names[0])
    if draw(st.booleans()):
        names.append("group:g")
    header = draw(st.permutations(names + ["label"]))
    number = st.floats(-5, 5).map(repr) | st.integers(-3, 3).map(str)
    rows = []
    for _ in range(draw(st.integers(0, 60))):
        row = []
        for name in header:
            if faulty and draw(st.integers(0, 40)) == 0:
                row.append(draw(st.sampled_from(ODD_CELLS)))
            elif name in ("label", "group:g"):
                row.append(draw(st.sampled_from(["0", "1"])))
            else:
                row.append(draw(number))
        if faulty and draw(st.integers(0, 60)) == 0:
            row.pop()
        rows.append(row)
    return header, rows


def has_non_finite_feature(header, rows) -> bool:
    features = [i for i, name in enumerate(header)
                if name.strip() != "label" and not name.strip().startswith("group:")]
    for row in rows:
        for i in features:
            try:
                if i < len(row) and not math.isfinite(float(row[i])):
                    return True
            except ValueError:
                pass
    return False


@settings(max_examples=150, deadline=None)
@given(csv_data=fuzzed_csv(), experiment=st.sampled_from(["curve", "corrupt", "ood:g"]))
def test_fuzzed_csv_run_exits_with_a_known_code(csv_data, experiment):
    header, rows = csv_data
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "data.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        (tmp / "config.json").write_text(json.dumps({
            "dataset": f"csv:{tmp / 'data.csv'}", "experiment": experiment,
            "methods": ["bootstrap-lr"], "ensemble_size": 1, "seeds": [0],
            "fractions": [1.0, 0.5], "factors": [10], "n_corrupt_features": 1}))
        code = run(tmp / "config.json", out_override=tmp / "out", quiet=True)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert not has_non_finite_feature(header, rows)
            with open(tmp / "out" / "results.csv", newline="", encoding="utf-8") as fh:
                assert all(len(r) == 6 for r in csv.reader(fh))


class TestSurfaces:

    def test_classifier_surface_columns(self, surf_out):
        lines = (surf_out / "surfaces_bootstrap-lr_seed0.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,probability,entropy"
        assert len(lines) == 1 + 25

    def test_vae_surface_gets_novelty_and_paired_probability(self, surf_out):
        lines = (surf_out / "surfaces_vae_seed0.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,probability,entropy,novelty"

    def test_grid_coordinates_unstandardized(self, surf_out):
        lines = (surf_out / "surfaces_bootstrap-lr_seed0.csv").read_text().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [-1.0, -1.0]

    def test_summary_records_present(self, surf_out):
        text = (surf_out / "results.csv").read_text()
        assert "surfaces,bootstrap-lr,0,grid,n_points,25.0" in text
        assert "surfaces,vae,0,grid,novelty_mean," in text

    def test_grid_writer_writes_the_row_writers_bytes_in_half_its_memory(self, tmp_path):
        # A toy grid's 2,500 rows of three columns, with values of every
        # magnitude repr writes, in blocks and one row at a time.
        grid_text = [f"{x1!r},{x2!r}," for x1, x2 in grid_2d(((-3.0, 3.0), (-3.0, 3.0)),
                                                            50).tolist()]
        rng = SeededRng(0)
        table = rng.split("m").normal((2500, 3)) * 10.0 ** rng.split("e").uniform(-300, 300,
                                                                                  (2500, 3))
        columns = ["probability", "entropy", "novelty"]
        peaks = {}
        for name, write in (("blocks", _write_grid), ("rows", write_grid_reference)):
            tracemalloc.start()
            try:
                write(tmp_path / f"{name}.csv", columns, grid_text, table)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert peaks["blocks"] < peaks["rows"] / 2

    def test_three_feature_csv_exits_2_writing_nothing(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("a,b,c,label\n" + "".join(f"{i},{i % 3},{i % 5},{i % 2}\n"
                                                  for i in range(20)))
        cfg = write_config(tmp_path, {**FAST, "dataset": f"csv:{data}",
                                      "experiment": "surfaces",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 2
        assert capsys.readouterr().err == (
            "data error: seed 0: surfaces need a 2-D dataset, got 3 features\n")
        assert not (tmp_path / "out").exists()


class TestMain:

    def test_seed_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "cli-out"
        assert main(["--config", str(cfg), "--seed-override", "7",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert {l.split(",")[2] for l in lines} == {"7", "mean", "std"}

    def test_bad_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        assert main(["--config", str(cfg), "--seed-override", "seven"]) == 1
        assert "seed-override" in capsys.readouterr().err

    # Exit code 2 is a data error's, so argparse's own exit 2 becomes 1.
    @pytest.mark.parametrize("argv", [["--bogus"], []], ids=["unknown-flag", "no-config"])
    def test_bad_command_line_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: tabuq")

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: tabuq")

    @pytest.mark.parametrize("override", ["-1", str(2**64), "0,18446744073709551616"])
    def test_seed_override_outside_64_bits_exits_1(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "cli-out"
        assert main(["--config", str(cfg), f"--seed-override={override}",
                     "--out", str(out), "--quiet"]) == 1
        assert "key 'seeds'" in capsys.readouterr().err
        assert not out.exists()

    # results.json echoes the config, so a value a flag overrides must still be
    # one strict JSON can hold: the config's own seeds and out_dir are checked.
    @pytest.mark.parametrize("extra, flags, key", [
        ({"seeds": [math.nan]}, ["--seed-override", "0"], "seeds"),
        ({"out_dir": math.inf}, [], "out_dir")], ids=["seeds", "out_dir"])
    def test_overridden_config_value_still_checked(self, tmp_path, capsys, extra, flags, key):
        cfg = write_config(tmp_path, {**FAST, **extra})
        out = tmp_path / "cli-out"
        assert main(["--config", str(cfg), *flags, "--out", str(out), "--quiet"]) == 1
        assert f"config error: key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_progress_line_unless_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "out_dir": str(tmp_path / "o")})
        assert main(["--config", str(cfg)]) == 0
        assert "wrote" in capsys.readouterr().out

    # A threaded BLAS product sums in another order, so before the CLI pinned
    # BLAS itself these children wrote three results.csv files of two kinds.
    def test_run_writes_the_one_thread_bytes_at_any_blas_setting(self, tmp_path):
        if numeric.pin_blas_threads()[0] is None:
            pytest.skip("numpy bundles no scipy-openblas library to pin")
        data = generate_synthetic(SeededRng(20), n=600, d=4, informative=2)
        with open(tmp_path / "data.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([*data.feature_names, "label"])
            writer.writerows([*map(repr, x), y]
                             for x, y in zip(data.features.tolist(), data.labels.tolist()))
        cfg = write_config(tmp_path, {"dataset": "csv:data.csv", "seeds": [0], "platt": True,
                                      "hidden": [100, 100], "max_epochs": 2})
        unpinned = {k: v for k, v in os.environ.items()
                    if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        unpinned["PYTHONPATH"] = str(Path(numeric.__file__).resolve().parents[1])
        written = {}
        for threads in ("1", None, "2"):
            env = unpinned if threads is None else {**unpinned, "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"threads-{threads}"
            subprocess.run([sys.executable, "-m", "tabuq", "--config", str(cfg), "--out", str(out),
                            "--quiet"], env=env, cwd=tmp_path, check=True)
            written[threads] = (out / "results.csv").read_bytes()
        assert written[None] == written["1"]
        assert written["2"] == written["1"]
