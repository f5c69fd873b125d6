"""The typed JSON boundary of the config dataclasses (moelab.config)."""

import math

import pytest

from moelab.cli import ExperimentConfig
from moelab.dataset import DatasetSpec
from moelab.errors import ConfigError
from moelab.losses import LossConfig
from moelab.model import ModelSpec
from moelab.trainer import TrainConfig


def test_int_in_float_field_is_kept_as_int():
    cfg = TrainConfig.from_dict({"base_lr": 1, "momentum": 0.5})
    assert type(cfg.base_lr) is int
    assert cfg.to_dict()["base_lr"] == 1 and cfg.to_dict()["momentum"] == 0.5


@pytest.mark.parametrize("cls,key,value", [
    (TrainConfig, "steps", True),
    (TrainConfig, "steps", 3.0),
    (TrainConfig, "base_lr", math.inf),
    (TrainConfig, "base_lr", False),
    (TrainConfig, "lr_schedule", 1),
    (ModelSpec, "contiguous_moe", 0),
    (ModelSpec, "noise_scale", "0.1"),
    (DatasetSpec, "paths", {"train": 5}),
    (LossConfig, "aux_weight", None),
])
def test_wrong_type_names_the_field(cls, key, value):
    with pytest.raises(ConfigError, match=rf"{cls.__name__}\.{key}"):
        cls.from_dict({key: value})


def test_optional_field_takes_null():
    assert ModelSpec.from_dict({"noise_scale": None}).noise_scale is None
    assert ModelSpec.from_dict({"noise_scale": 0.5}).noise_scale == 0.5


def test_nested_records_and_paths():
    d = {"model": {}, "train": {"loss": {"aux_weight": 0}}, "dataset": {}}
    cfg = ExperimentConfig.from_dict(d)
    assert isinstance(cfg.train.loss, LossConfig)
    assert "grid" not in cfg.to_dict()
    d["train"]["loss"] = {"loss_mode": 3}
    with pytest.raises(ConfigError,
                       match=r"ExperimentConfig\.train\.loss\.loss_mode"):
        ExperimentConfig.from_dict(d)
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ExperimentConfig.from_dict([d])
    with pytest.raises(ConfigError, match=r"missing required keys \['model'\]"):
        ExperimentConfig.from_dict({"train": {}, "dataset": {}})


def test_grid_values_checked_without_from_dict():
    # sweep cells never pass through from_dict, so the constructor checks
    with pytest.raises(ConfigError, match=r"grid\.k\[1\]"):
        ExperimentConfig(ModelSpec(), TrainConfig(), DatasetSpec(),
                         grid={"k": [1, 1.5]})
