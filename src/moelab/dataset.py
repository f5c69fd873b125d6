"""Desk-scale datasets: synthetic Gaussian-prototype images or CSV files.

The synthetic task draws one prototype image per class and renders examples
as prototype + pixel noise.  It also carries a distribution-shift split
(blur + extra noise at a severity knob), and an OOD split built from a
disjoint set of prototypes, so calibration and OOD metrics have something to
measure.  CSV datasets use one row per example: integer label first, then
row-major float pixels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .config import Record
from .errors import ConfigError
from .rng import Rng


@dataclass
class DatasetSpec(Record):
    kind: str = "synthetic_gaussian"
    classes: int = 4
    image_size: int = 8
    channels: int = 3
    n_train: int = 512
    n_val: int = 128
    n_test: int = 256
    noise_std: float = 0.5
    shift_severity: int = 2
    seed: int = 0
    paths: dict[str, str] = field(default_factory=dict)  # csv kind: split -> path

    def __post_init__(self):
        if self.kind not in ("synthetic_gaussian", "csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("split sizes must be >= 1")
        if min(self.image_size, self.channels) < 1:
            raise ConfigError("image_size and channels must be >= 1")
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.noise_std < 0 or self.shift_severity < 0:
            raise ConfigError("noise_std and shift_severity must be >= 0")


@dataclass
class Dataset:
    spec: DatasetSpec
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    shift_x: np.ndarray | None = None
    shift_y: np.ndarray | None = None
    ood_x: np.ndarray | None = None


def _render(protos: np.ndarray, labels: np.ndarray, noise_std: float,
            gen) -> np.ndarray:
    imgs = protos[labels]
    if noise_std > 0:
        imgs = imgs + noise_std * gen.standard_normal(imgs.shape)
    return imgs


def _box_blur(imgs: np.ndarray, passes: int) -> np.ndarray:
    """Repeated 3x3 box blur with edge clamping."""
    out = imgs
    for _ in range(passes):
        padded = np.pad(out, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")
        acc = np.zeros_like(out)
        for dy in range(3):
            for dx in range(3):
                acc += padded[:, dy:dy + out.shape[1],
                              dx:dx + out.shape[2], :]
        out = acc / 9.0
    return out


def make_synthetic_dataset(spec: DatasetSpec) -> Dataset:
    """Prototype-plus-noise classification with shift and OOD splits."""
    if spec.kind != "synthetic_gaussian":
        raise ConfigError("make_synthetic_dataset needs a synthetic spec")
    rng = Rng(spec.seed)
    shape = (spec.classes, spec.image_size, spec.image_size, spec.channels)
    protos = rng.stream("proto").standard_normal(shape)

    def split(name, n):
        gen = rng.stream("labels", name)
        labels = gen.integers(0, spec.classes, size=n)
        imgs = _render(protos, labels, spec.noise_std,
                       rng.stream("pixels", name))
        return imgs, labels

    train_x, train_y = split("train", spec.n_train)
    val_x, val_y = split("val", spec.n_val)
    test_x, test_y = split("test", spec.n_test)

    shift_x, shift_y = split("shift", spec.n_test)
    s = spec.shift_severity
    if s > 0:
        shift_x = _box_blur(shift_x, s)
        shift_x = shift_x + (0.5 * s * spec.noise_std) * \
            rng.stream("pixels", "shift_extra").standard_normal(shift_x.shape)

    ood_protos = rng.stream("ood_proto").standard_normal(shape)
    ood_labels = rng.stream("labels", "ood").integers(0, spec.classes,
                                                      size=spec.n_test)
    ood_x = _render(ood_protos, ood_labels, spec.noise_std,
                    rng.stream("pixels", "ood"))
    return Dataset(spec, train_x, train_y, val_x, val_y, test_x, test_y,
                   shift_x, shift_y, ood_x)


def load_csv_split(path, image_size: int, channels: int):
    """One row per example: integer label, then row-major float pixels,
    all finite."""
    want = image_size * image_size * channels
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [(i, row) for i, row in enumerate(csv.reader(fh)) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read csv split {path}: {exc}") from None
    labels, pixels = [], []
    for i, row in rows:
        if len(row) != want + 1:
            raise ConfigError(f"{path}: row {i} has {len(row)} columns, "
                              f"expected {want + 1}")
        try:
            labels.append(int(row[0]))
            pixels.append([float(v) for v in row[1:]])
        except ValueError:
            raise ConfigError(f"{path}: row {i} is not an integer label "
                              "followed by numeric pixels") from None
    if not labels:
        raise ConfigError(f"{path}: no rows")
    x = np.asarray(pixels)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: row {rows[bad[0]][0]} has a non-finite "
                          "pixel")
    x = x.reshape(len(labels), image_size, image_size, channels)
    return x, np.asarray(labels)


def load_csv_dataset(spec: DatasetSpec) -> Dataset:
    if spec.kind != "csv":
        raise ConfigError("load_csv_dataset needs a csv spec")
    need = {"train", "val", "test"}
    if not need <= set(spec.paths):
        raise ConfigError(f"csv dataset needs paths for {sorted(need)}")

    def load(name):
        return load_csv_split(spec.paths[name], spec.image_size,
                              spec.channels)

    train_x, train_y = load("train")
    val_x, val_y = load("val")
    test_x, test_y = load("test")
    for name, y in (("train", train_y), ("val", val_y), ("test", test_y)):
        if y.min() < 0 or y.max() >= spec.classes:
            raise ConfigError(f"{spec.paths[name]}: label outside "
                              f"[0, {spec.classes})")
    shift_x = shift_y = ood_x = None
    if "shift" in spec.paths:
        shift_x, shift_y = load("shift")
    if "ood" in spec.paths:
        ood_x, _ = load("ood")
    return Dataset(spec, train_x, train_y, val_x, val_y, test_x, test_y,
                   shift_x, shift_y, ood_x)


def make_dataset(spec: DatasetSpec) -> Dataset:
    if spec.kind == "synthetic_gaussian":
        return make_synthetic_dataset(spec)
    return load_csv_dataset(spec)
