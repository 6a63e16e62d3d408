import math

import numpy as np
import pytest

from tabuq import (Dataset, SeededRng, ToyConfig, apply_scaler, bootstrap_sample, corrupt_feature,
                   exclude_group, fit_scaler, generate_synthetic,
                   generate_toy, grid_2d, load_csv, split)
from tabuq.errors import DataError, ParameterError, ShapeError

from conftest import make_dataset


class TestDataset:
    def test_basic_construction(self):
        d = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert d.n == 2 and d.d == 2
        assert d.feature_names == ("x1", "x2")
        assert d.groups == {}

    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError, match="2"):
            make_dataset([[1.0], [2.0]], [0, 2])

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            make_dataset([[1.0], [2.0]], [0, 1, 1])

    def test_rejects_1d_features(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), ("a",))

    def test_rejects_duplicate_feature_names(self):
        with pytest.raises(DataError, match="unique"):
            Dataset(np.zeros((1, 2)), np.zeros(1, dtype=np.int64),
                    ("a", "a"))

    def test_rejects_wrong_tag_count(self):
        with pytest.raises(ShapeError, match="'held'"):
            make_dataset([[1.0], [2.0]], [0, 1], groups={"held": [True]})
        with pytest.raises(ShapeError, match="'held'"):
            make_dataset([[1.0], [2.0]], [0, 1], groups={"held": [[True], [False]]})

    def test_take_reorders_and_resamples(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0],
                         groups={"a": [1, 0, 0], "c": [0, 0, 1]})
        sub = d.take([2, 0, 2])
        np.testing.assert_array_equal(sub.features[:, 0], [3.0, 1.0, 3.0])
        np.testing.assert_array_equal(sub.labels, [0, 0, 0])
        assert list(sub.groups) == ["a", "c"]
        np.testing.assert_array_equal(sub.groups["a"], [False, True, False])
        np.testing.assert_array_equal(sub.groups["c"], [True, False, True])

    def test_with_features_keeps_metadata(self):
        d = make_dataset([[1.0], [2.0]], [0, 1], groups={"a": [True, False]})
        r = d.with_features(np.array([[10.0], [20.0]]))
        np.testing.assert_array_equal(r.features[:, 0], [10.0, 20.0])
        assert list(r.groups) == ["a"]
        np.testing.assert_array_equal(r.groups["a"], [True, False])


class TestGenerateToy:
    def test_balanced_counts(self):
        d = generate_toy(ToyConfig(mode="balanced"), SeededRng(0))
        assert d.n == 200
        assert d.labels.sum() == 100

    def test_unbalanced_counts(self):
        cfg = ToyConfig(mode="unbalanced", n_train=196)
        d = generate_toy(cfg, SeededRng(0))
        assert d.n == 196
        assert d.labels.sum() == 28
        assert (d.labels == 0).sum() == 168

    def test_positive_sample_mean(self):
        cfg = ToyConfig(mode="balanced", n_train=200_000)
        d = generate_toy(cfg, SeededRng(3))
        pos_mean = d.features[d.labels == 1].mean(axis=0)
        np.testing.assert_allclose(pos_mean, (2.0, 2.0), atol=0.05)
        neg_mean = d.features[d.labels == 0].mean(axis=0)
        np.testing.assert_allclose(neg_mean, (-1.0, -1.0), atol=0.05)

    def test_unbalanced_positive_variance_halved(self):
        cfg = ToyConfig(mode="unbalanced", n_train=70_000)
        d = generate_toy(cfg, SeededRng(4))
        pos_var = d.features[d.labels == 1].var(axis=0)
        neg_var = d.features[d.labels == 0].var(axis=0)
        np.testing.assert_allclose(pos_var, 2.0, atol=0.1)
        np.testing.assert_allclose(neg_var, 4.0, atol=0.1)

    def test_deterministic(self):
        cfg = ToyConfig(mode="unbalanced")
        a = generate_toy(cfg, SeededRng(9))
        b = generate_toy(cfg, SeededRng(9))
        np.testing.assert_array_equal(a.features, b.features)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            generate_toy(ToyConfig(mode="lopsided"), SeededRng(0))


class TestGenerateSynthetic:
    def test_shape_and_class_fraction(self):
        d = generate_synthetic(SeededRng(0))
        assert (d.n, d.d) == (10_000, 10)
        assert abs(d.labels.mean() - 0.15) < 1e-9

    def test_informative_features_carry_signal(self):
        d = generate_synthetic(SeededRng(1), n=4000, d=6, informative=3)
        gap = np.abs(d.features[d.labels == 1].mean(axis=0)
                     - d.features[d.labels == 0].mean(axis=0))
        assert gap[:3].min() > 0.5
        assert gap[3:].max() < 0.2

    def test_labels_shuffled_not_blocked(self):
        d = generate_synthetic(SeededRng(2), n=1000, d=4, informative=2)
        # A contiguous positive block would put every positive in the head.
        assert d.labels[: d.n // 2].sum() > 0
        assert d.labels[d.n // 2:].sum() > 0

    def test_informative_bounds(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SeededRng(0), n=100, d=4, informative=5)


class TestLoadCsv(object):
    def _write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_happy_path(self, tmp_path):
        p = self._write(tmp_path, "a,b,label\n1.0,2.0,0\n3.5,4.5,1\n-1,0,0\n")
        d = load_csv(p, "label")
        assert (d.n, d.d) == (3, 2)
        assert d.feature_names == ("a", "b")
        np.testing.assert_array_equal(d.labels, [0, 1, 0])
        np.testing.assert_array_equal(d.features[1], [3.5, 4.5])

    def test_group_columns_become_tags(self, tmp_path):
        p = self._write(tmp_path,
                        "a,group:elective,label\n1.0,1,0\n2.0,0,1\n")
        d = load_csv(p, "label")
        assert d.feature_names == ("a",)
        assert list(d.groups) == ["elective"]
        assert d.groups["elective"].dtype == bool
        np.testing.assert_array_equal(d.groups["elective"], [True, False])

    @pytest.mark.parametrize("header, name", [("a,label,label", "label"),
                                              ("a,a,label", "a"),
                                              ("group:g, group:g,a,label", "group:g")])
    def test_column_named_twice_rejected(self, tmp_path, header, name):
        cells = ",".join("0" for _ in header.split(","))
        p = self._write(tmp_path, f"{header}\n{cells}\n")
        with pytest.raises(DataError, match=f"data.csv: column '{name}' appears more than once"):
            load_csv(p, "label")

    def test_missing_label_column(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(p, "label")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = self._write(tmp_path, "a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DataError, match=r"row 2.*'b'|'b'.*row 2"):
            load_csv(p, "label")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = self._write(tmp_path, f"a,b,label\n1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(DataError, match=rf"row 2, column 'b': non-finite value '{cell}'"):
            load_csv(p, "label")

    def test_bad_label_value_names_row(self, tmp_path):
        p = self._write(tmp_path, "a,label\n1.0,0\n2.0,2\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, "label")

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(DataError):
            load_csv(p, "label")

    @pytest.mark.parametrize("header", ["label,a", "a,label"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        p = tmp_path / "bom.csv"
        p.write_text(header + "\n0,1\n1,0\n", encoding="utf-8-sig")
        d = load_csv(p, "label")
        assert d.feature_names == ("a",)

    def test_non_utf8_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"\xef\xbb\xbf" + "a,label\n1.0,0\n\u00e9,1\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: line 3: not UTF-8 text"):
            load_csv(p, "label")


class TestScaler:
    def test_two_point_column(self):
        d = make_dataset([[0.0], [2.0]], [0, 1])
        s = fit_scaler(d)
        out = apply_scaler(s, d)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])

    def test_constant_column_floored(self):
        d = make_dataset([[5.0, 1.0], [5.0, 3.0]], [0, 1])
        out = apply_scaler(fit_scaler(d), d)
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0])

    def test_fit_requires_two_rows(self):
        with pytest.raises(DataError):
            fit_scaler(make_dataset([[1.0]], [0]))

    def test_self_application_standardizes(self):
        rng = SeededRng(0)
        d = make_dataset(rng.normal((500, 3), mean=7.0, std=3.0),
                         rng.integers(0, 2, size=500))
        out = apply_scaler(fit_scaler(d), d)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_no_leakage_on_fresh_data(self):
        rng = SeededRng(1)
        train = make_dataset(rng.normal((100, 1)), rng.integers(0, 2, size=100))
        test = make_dataset(rng.normal((100, 1), mean=5.0),
                            rng.integers(0, 2, size=100))
        out = apply_scaler(fit_scaler(train), test)
        assert abs(out.features.mean()) > 1.0


class TestSplit:
    def test_churn_sizes(self):
        d = generate_synthetic(SeededRng(0), n=10_000, d=3, informative=2)
        tr, va, te = split(d, (0.6, 0.2, 0.2), SeededRng(1))
        assert (tr.n, va.n, te.n) == (6000, 2000, 2000)

    def test_partition_property(self):
        d = make_dataset(np.arange(20, dtype=np.float64).reshape(20, 1),
                         np.zeros(20, dtype=np.int64) + (np.arange(20) % 2))
        tr, va, te = split(d, (0.5, 0.25, 0.25), SeededRng(2))
        merged = np.concatenate([p.features[:, 0] for p in (tr, va, te)])
        assert sorted(merged.tolist()) == list(range(20))

    def test_deterministic(self):
        d = generate_synthetic(SeededRng(0), n=100, d=3, informative=2)
        a = split(d, (0.6, 0.2, 0.2), SeededRng(5))
        b = split(d, (0.6, 0.2, 0.2), SeededRng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_empty_part_rejected(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        with pytest.raises(DataError):
            split(d, (0.9, 0.05, 0.05), SeededRng(0))

    def test_bad_fractions(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ParameterError):
            split(d, (0.5, 0.2, 0.2), SeededRng(0))


class TestBootstrap:
    def test_size_preserved(self):
        d = generate_synthetic(SeededRng(0), n=500, d=3, informative=2)
        assert bootstrap_sample(d, SeededRng(1)).n == 500

    def test_unique_fraction(self):
        d = generate_synthetic(SeededRng(0), n=10_000, d=3, informative=2)
        b = bootstrap_sample(d, SeededRng(2))
        unique = len(np.unique(b.features[:, 0]))
        assert abs(unique / d.n - (1 - 1 / np.e)) < 0.02

    def test_single_row(self):
        d = make_dataset([[7.0]], [1])
        b = bootstrap_sample(d, SeededRng(0))
        np.testing.assert_array_equal(b.features, [[7.0]])

    def test_deterministic(self):
        d = generate_synthetic(SeededRng(0), n=50, d=3, informative=2)
        a = bootstrap_sample(d, SeededRng(4))
        b = bootstrap_sample(d, SeededRng(4))
        np.testing.assert_array_equal(a.features, b.features)


class TestExcludeGroup:
    def _tagged(self):
        return make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1],
                            groups={"held": [False, True, False, True]})

    def test_partition_and_order(self):
        in_domain, ood = exclude_group(self._tagged(), "held")
        np.testing.assert_array_equal(in_domain.features[:, 0], [1.0, 3.0])
        np.testing.assert_array_equal(ood.features[:, 0], [2.0, 4.0])
        assert in_domain.n + ood.n == 4

    def test_unknown_tag(self):
        with pytest.raises(DataError, match="nope"):
            exclude_group(self._tagged(), "nope")

    def test_multi_tag_rows(self):
        d = make_dataset([[1.0], [2.0]], [0, 1],
                         groups={"a": [True, False], "b": [True, True]})
        in_domain, ood = exclude_group(d, "a")
        assert (in_domain.n, ood.n) == (1, 1)
        assert ood.groups["a"].tolist() == ood.groups["b"].tolist() == [True]


class TestCorruptFeature:
    def test_factor_one_is_identity(self):
        d = generate_synthetic(SeededRng(0), n=20, d=4, informative=2)
        out = corrupt_feature(d, 1, 1.0)
        np.testing.assert_array_equal(out.features, d.features)
        assert out.features is not d.features

    def test_single_column_scaled(self):
        d = generate_synthetic(SeededRng(0), n=20, d=4, informative=2)
        out = corrupt_feature(d, 2, 1000.0)
        np.testing.assert_array_equal(out.features[:, 2],
                                      d.features[:, 2] * 1000.0)
        keep = [0, 1, 3]
        np.testing.assert_array_equal(out.features[:, keep],
                                      d.features[:, keep])

    def test_disjoint_corruptions_commute(self):
        d = generate_synthetic(SeededRng(0), n=10, d=4, informative=2)
        a = corrupt_feature(corrupt_feature(d, 0, 10.0), 3, 1000.0)
        b = corrupt_feature(corrupt_feature(d, 3, 1000.0), 0, 10.0)
        np.testing.assert_array_equal(a.features, b.features)

    def test_index_out_of_range(self):
        d = make_dataset([[1.0, 2.0]], [0])
        for index in (2, -1):
            with pytest.raises(ParameterError, match="out of range"):
                corrupt_feature(d, index, 10.0)

    def test_factor_must_be_positive(self):
        d = make_dataset([[1.0, 2.0]], [0])
        for factor in (0.0, -10.0):
            with pytest.raises(ParameterError, match="positive"):
                corrupt_feature(d, 0, factor)


class TestGrid2d:
    def test_resolution_two_gives_corners(self):
        g = grid_2d(((0.0, 1.0), (0.0, 1.0)), 2)
        np.testing.assert_array_equal(
            g, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_resolution_three_includes_center(self):
        g = grid_2d(((0.0, 1.0), (0.0, 1.0)), 3)
        assert g.shape == (9, 2)
        assert any((row == [0.5, 0.5]).all() for row in g)

    def test_point_count(self):
        assert grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 50).shape == (2500, 2)

    def test_bad_bounds(self):
        for bounds in (((1.0, 0.0), (0.0, 1.0)), ((math.nan, 1.0), (0.0, 1.0)),
                       ((0.0, 1.0), (-math.inf, 1.0))):
            with pytest.raises(ParameterError):
                grid_2d(bounds, 3)

    def test_min_resolution(self):
        with pytest.raises(ParameterError):
            grid_2d(((0.0, 1.0), (0.0, 1.0)), 1)
