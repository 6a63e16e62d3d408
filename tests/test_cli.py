import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabuq import __version__
from tabuq.cli import CSV_HEADER, KNOWN_KEYS, format_value, main, parse_config, run
from tabuq.errors import ConfigError

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
            parse_config({**BASE, key: value})
        except ConfigError:
            pass


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

    def test_ood_on_toy_dataset_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "experiment": "ood:held",
                                      "out_dir": str(tmp_path / "out")})
        assert run(cfg, quiet=True) == 1
        assert capsys.readouterr().err == ("config error: key 'experiment': "
                                           "ood needs a csv dataset with group columns\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_names_every_known_key():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | meaning | default |"):].split("\n\n")[0]
    first_cells = [line.split("|")[1] for line in table.splitlines()[2:]]
    keys = [k for cell in first_cells for k in re.findall(r"`([a-z_]+)`", cell)]
    assert len(keys) == len(set(keys))
    assert set(keys) == KNOWN_KEYS


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

    @pytest.mark.parametrize("override", ["-1", str(2**64), "0,18446744073709551616"])
    def test_seed_override_outside_64_bits_exits_1(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "cli-out"
        assert main(["--config", str(cfg), f"--seed-override={override}",
                     "--out", str(out), "--quiet"]) == 1
        assert "key 'seeds'" in capsys.readouterr().err
        assert not out.exists()

    def test_progress_line_unless_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FAST, "out_dir": str(tmp_path / "o")})
        assert main(["--config", str(cfg)]) == 0
        assert "wrote" in capsys.readouterr().out
