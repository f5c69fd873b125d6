"""Synthetic prototype datasets and the CSV interchange format."""

import csv

import numpy as np
import pytest

from moelab.dataset import (
    Dataset,
    DatasetSpec,
    load_csv_split,
    make_dataset,
    make_synthetic_dataset,
)
from moelab.errors import ConfigError


def save_csv_split(path, images, labels):
    """Write a split in the CSV format: label, then row-major pixels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        for y, px in zip(labels, images.reshape(len(labels), -1)):
            w.writerow([int(y)] + [repr(float(v)) for v in px])


class TestDatasetSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            DatasetSpec(kind="imagenet")

    def test_rejects_empty_split(self):
        with pytest.raises(ConfigError):
            DatasetSpec(n_val=0)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            DatasetSpec(classes=1)

    def test_dict_round_trip(self):
        spec = DatasetSpec(classes=5, noise_std=1.5, seed=17)
        assert DatasetSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        d = DatasetSpec().to_dict()
        d["augment"] = True
        with pytest.raises(ConfigError):
            DatasetSpec.from_dict(d)


class TestSynthetic:
    def test_shapes_and_labels(self):
        spec = DatasetSpec(classes=4, image_size=8, channels=3,
                           n_train=32, n_val=8, n_test=16, seed=3)
        ds = make_synthetic_dataset(spec)
        assert ds.train_x.shape == (32, 8, 8, 3)
        assert ds.val_x.shape == (8, 8, 8, 3)
        assert ds.test_x.shape == (16, 8, 8, 3)
        assert ds.shift_x.shape == (16, 8, 8, 3)
        assert ds.ood_x.shape == (16, 8, 8, 3)
        for y in (ds.train_y, ds.val_y, ds.test_y, ds.shift_y):
            assert y.min() >= 0 and y.max() < 4

    def test_deterministic_by_seed(self):
        spec = DatasetSpec(n_train=16, n_val=4, n_test=8, seed=9)
        a = make_synthetic_dataset(spec)
        b = make_synthetic_dataset(spec)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)
        np.testing.assert_array_equal(a.shift_x, b.shift_x)
        np.testing.assert_array_equal(a.ood_x, b.ood_x)

    def test_seed_changes_data(self):
        a = make_synthetic_dataset(DatasetSpec(n_train=16, n_val=4,
                                               n_test=8, seed=1))
        b = make_synthetic_dataset(DatasetSpec(n_train=16, n_val=4,
                                               n_test=8, seed=2))
        assert np.abs(a.train_x - b.train_x).max() > 0

    def test_zero_noise_returns_prototypes(self):
        spec = DatasetSpec(noise_std=0.0, shift_severity=0,
                           n_train=32, n_val=4, n_test=8, seed=5)
        ds = make_synthetic_dataset(spec)
        # every same-label example is the identical prototype image
        for c in range(4):
            rows = ds.train_x[ds.train_y == c]
            if len(rows) > 1:
                np.testing.assert_array_equal(rows[0], rows[1])

    def test_shift_blurs(self):
        spec = DatasetSpec(n_train=4, n_val=4, n_test=64, seed=7,
                           shift_severity=3)
        ds = make_synthetic_dataset(spec)
        # blur shrinks high-frequency content: neighbor deltas get smaller
        def roughness(x):
            return np.abs(np.diff(x, axis=1)).mean()
        assert roughness(ds.shift_x) < roughness(ds.test_x)

    def test_wrong_kind_rejected(self):
        spec = DatasetSpec(kind="csv", paths={"train": "x", "val": "y",
                                              "test": "z"})
        with pytest.raises(ConfigError):
            make_synthetic_dataset(spec)


class TestCsv:
    def roundtrip(self, tmp_path, n=6, size=4, channels=2):
        gen = np.random.default_rng(0)
        x = gen.normal(size=(n, size, size, channels))
        y = gen.integers(0, 3, size=n)
        path = tmp_path / "split.csv"
        save_csv_split(path, x, y)
        return x, y, path

    def test_split_round_trip_exact(self, tmp_path):
        x, y, path = self.roundtrip(tmp_path)
        bx, by = load_csv_split(path, 4, 2)
        np.testing.assert_array_equal(bx, x)
        np.testing.assert_array_equal(by, y)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(ConfigError):
            load_csv_split(path, 4, 2)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_csv_split(path, 2, 1)

    def test_full_csv_dataset(self, tmp_path):
        gen = np.random.default_rng(1)
        paths = {}
        for name in ("train", "val", "test"):
            x = gen.normal(size=(5, 4, 4, 1))
            y = gen.integers(0, 2, size=5)
            p = tmp_path / f"{name}.csv"
            save_csv_split(p, x, y)
            paths[name] = str(p)
        spec = DatasetSpec(kind="csv", classes=2, image_size=4, channels=1,
                           n_train=5, n_val=5, n_test=5, paths=paths)
        ds = make_dataset(spec)
        assert isinstance(ds, Dataset)
        assert ds.train_x.shape == (5, 4, 4, 1)
        assert ds.shift_x is None and ds.ood_x is None

    def test_missing_split_rejected(self, tmp_path):
        spec = DatasetSpec(kind="csv", image_size=4, channels=1,
                           paths={"train": str(tmp_path / "t.csv")})
        with pytest.raises(ConfigError):
            make_dataset(spec)

    def test_label_out_of_range_rejected(self, tmp_path):
        gen = np.random.default_rng(2)
        paths = {}
        for name in ("train", "val", "test"):
            x = gen.normal(size=(4, 4, 4, 1))
            y = np.array([0, 1, 2, 5])  # 5 is outside classes=3
            p = tmp_path / f"{name}.csv"
            save_csv_split(p, x, y)
            paths[name] = str(p)
        spec = DatasetSpec(kind="csv", classes=3, image_size=4, channels=1,
                           paths=paths)
        with pytest.raises(ConfigError):
            make_dataset(spec)
