"""End-to-end checks of the command line: config parsing, the run and
sweep drivers, analyze outputs, the flops report, and exit codes.

Everything goes through main(argv) in-process so stdout/stderr and return
codes can be asserted directly.
"""

import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import moelab.cli
import moelab.dataset
from moelab.cli import ExperimentConfig, load_config, main
from moelab.errors import ConfigError, DivergenceError, EvaluationError
from moelab.model import preset
from moelab.trainer import HISTORY_COLUMNS


def tiny_config_dict(out_dir, **kw):
    """A complete experiment config that trains in well under a second."""
    model = dict(image_size=8, patch_size=4, hidden=16, mlp_dim=32,
                 layers=2, heads=2, classes=4, e=4, k=1, m=1, last_n=1,
                 variant="vmoe")
    model.update(kw.pop("model", {}))
    train = dict(steps=5, batch_size=8, base_lr=0.05, seed=3)
    train.update(kw.pop("train", {}))
    dataset = dict(classes=4, image_size=8, channels=3, n_train=32,
                   n_val=16, n_test=32, noise_std=0.5, seed=11)
    dataset.update(kw.pop("dataset", {}))
    cfg = {
        "model": model,
        "train": train,
        "dataset": dataset,
        "repetitions": 1,
        "output_dir": str(out_dir),
    }
    cfg.update(kw)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_summary(out_dir):
    """summary.csv as {metric: (mean_str, stderr_str)}."""
    lines = (Path(out_dir) / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "metric,mean,stderr"
    out = {}
    for line in lines[1:]:
        metric, mean, stderr = line.split(",")
        out[metric] = (mean, stderr)
    return out


def read_sweep(out_dir):
    """sweep.csv as (header list, list of row dicts)."""
    lines = (Path(out_dir) / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config_dict(tmp_path))
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_grid_survives_round_trip(self, tmp_path):
        d = tiny_config_dict(tmp_path, grid={"k": [1, 2]})
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.to_dict()["grid"] == {"k": [1, 2]}

    def test_rejects_unknown_top_level_key(self, tmp_path):
        d = tiny_config_dict(tmp_path)
        d["optimiser"] = "sgd"
        with pytest.raises(ConfigError, match="optimiser"):
            ExperimentConfig.from_dict(d)

    def test_rejects_missing_section(self, tmp_path):
        d = tiny_config_dict(tmp_path)
        del d["dataset"]
        with pytest.raises(ConfigError, match="dataset"):
            ExperimentConfig.from_dict(d)

    def test_rejects_zero_repetitions(self, tmp_path):
        d = tiny_config_dict(tmp_path)
        d["repetitions"] = 0
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_rejects_unknown_grid_key(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig.from_dict(
                tiny_config_dict(tmp_path, grid={"learning_rate": [0.1]})
            )

    def test_rejects_empty_grid_list(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config_dict(tmp_path,
                                                        grid={"k": []}))

    def test_load_config_reads_file(self, tmp_path):
        path = write_config(tmp_path, tiny_config_dict(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.model.variant == "vmoe"
        assert cfg.train.steps == 5

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        d = tiny_config_dict(tmp_path / "out")
        d["model"]["variant"] = "transformer_xl"
        path = write_config(tmp_path, d)
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


# (command, key path, bad value, text the one-line error must contain)
MALFORMED = [
    ("run", ("repetitions",), "2", "repetitions"),
    ("run", ("model", "e"), "4", "model.e"),
    ("run", ("model", "k"), 1.5, "model.k"),
    ("run", ("train", "steps"), "3", "train.steps"),
    ("run", ("train", "momentum"), "0.9", "train.momentum"),
    ("run", ("train",), [], "train"),
    ("run", ("dataset", "paths"), "x", "dataset.paths"),
    ("sweep", ("grid",), {"e": ["4"]}, "grid.e"),
    ("run", ("train", "loss"), {"bogus": 1}, "bogus"),
    ("run", ("train", "loss"), {"aux_weight": -0.5}, "aux_weight"),
    ("run", ("train", "base_lr"), math.nan, "train.base_lr"),
    ("run", ("model",), [1], "model"),
    ("run", ("model", "noise_scale"), -1.0, "noise_scale"),
    ("run", ("model", "noise_multiplier"), -0.25, "noise_multiplier"),
    ("run", ("model", "mimo_input_repetition_prob"), 1.5,
     "mimo_input_repetition_prob"),
    ("run", ("train", "eval_every"), -2, "eval_every"),
    ("run", ("train", "base_lr"), -0.05, "base_lr"),
    ("run", ("train", "momentum"), 1.0, "momentum"),
    # the model and the dataset disagree
    ("run", ("dataset", "image_size"), 16, "dataset.image_size"),
    ("run", ("dataset", "channels"), 1, "dataset.channels"),
    ("run", ("dataset", "classes"), 3, "dataset.classes"),
    # the pbe cell has e=4 and m=3; the cells before it are valid
    ("sweep", ("grid",), {"variant": ["vit", "deep_ensemble", "pbe"],
                          "m": [3]}, "divisible"),
    # a protocol cell needs at least one member
    ("sweep", ("grid",), {"variant": ["mc_dropout"], "m": [0]}, "mc_dropout"),
    ("sweep", ("grid",), {"variant": ["mc_dropout"], "m": [-1]}, "mc_dropout"),
    ("sweep", ("grid",), {"variant": ["deep_ensemble"], "m": [0]},
     "deep_ensemble"),
    # bytes go into the file raw: the config is not UTF-8
    ("run", ("output_dir",), b"\xff", "utf-8"),
    ("sweep", ("output_dir",), b"\xff", "utf-8"),
    # a batch larger than the 32 training rows; train's own check, run
    # before the first write
    ("run", ("train", "batch_size"), 64, "batch_size"),
    ("sweep", ("train", "batch_size"), 64, "batch_size"),
]


@pytest.mark.parametrize(
    "command,where,value,named", MALFORMED,
    ids=[f"{c[0]}-{'.'.join(c[1])}={c[2]!r}".replace(" ", "")
         for c in MALFORMED])
def test_malformed_config_exits_2(tmp_path, capsys, command, where, value,
                                  named):
    # a sweep gets a one-cell grid unless its case sets the grid
    d = tiny_config_dict(tmp_path / "out",
                         **{"grid": {"k": [1]}} if command == "sweep" else {})
    section = d
    for key in where[:-1]:
        section = section[key]
    raw = isinstance(value, bytes)
    section[where[-1]] = "@RAW@" if raw else value
    path = write_config(tmp_path, d)
    if raw:  # json.dumps escapes non-ASCII text
        path.write_bytes(path.read_bytes().replace(b"@RAW@", value))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "config.json").exists()


@pytest.mark.parametrize("command,grid", [
    ("run", None),
    ("sweep", {"m": [2]}),  # the base resolves every cell to mimo
    ("sweep", {"variant": ["vit", "mimo"], "m": [2]}),
], ids=["run", "sweep-base", "sweep-grid"])
def test_mimo_ensemble_ce_exits_2(tmp_path, capsys, command, grid):
    # MIMO's members carry different labels: no one label per row to score
    # the member mean against
    d = tiny_config_dict(tmp_path / "out",
                         train={"loss": {"loss_mode": "ensemble_ce"}})
    if grid is None or "variant" not in grid:
        d["model"].update(variant="mimo", m=2)
    if grid is not None:
        d["grid"] = grid
    path = write_config(tmp_path, d)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "ensemble_ce" in err and "mimo" in err
    assert not (tmp_path / "out" / "config.json").exists()


def _csv_row(label, pixels=192):
    return ",".join([label] + ["0.5"] * pixels) + "\n"


# a broken train split of a csv dataset: (case, file bytes or None for a
# missing file)
BAD_CSV = [
    ("missing_file", None),
    ("not_utf8", _csv_row("1").encode() + b"\xff,\xfe\n"),
    ("fractional_label", _csv_row("1.5").encode()),
    ("non_numeric_pixel", _csv_row("1", 191).replace("\n", ",dark\n")
     .encode()),
    ("nan_pixel", (_csv_row("1") + _csv_row("0", 191).replace("\n", ",nan\n"))
     .encode()),
    ("inf_pixel", _csv_row("1", 191).replace("\n", ",-inf\n").encode()),
    ("label_out_of_range", _csv_row("4").encode()),  # classes is 4
]


@pytest.mark.parametrize(
    "command,data", [(cmd, c[1]) for cmd in ("run", "sweep") for c in BAD_CSV],
    ids=[c[0] + ("" if cmd == "run" else "-sweep")
         for cmd in ("run", "sweep") for c in BAD_CSV])
def test_bad_csv_dataset_exits_2(tmp_path, capsys, command, data):
    paths = {}
    for name in ("train", "val", "test"):
        paths[name] = str(tmp_path / f"{name}.csv")
        if name != "train" or data is not None:
            Path(paths[name]).write_bytes(
                data if name == "train" else _csv_row("0").encode() * 4)
    d = tiny_config_dict(tmp_path / "out",
                         dataset={"kind": "csv", "paths": paths})
    if command == "sweep":
        d["grid"] = {"k": [1]}
    path = write_config(tmp_path, d)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "train.csv" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "config.json").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_csv_dataset_read_once(tmp_path, monkeypatch, command):
    # csv data depends on no seed: three repetitions read each split once
    paths = {}
    for name in ("train", "val", "test"):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(_csv_row("0") * 4 + _csv_row("1") * 4)
    loads = []
    real = moelab.dataset.load_csv_split

    def counted(path, *args):
        loads.append(Path(path).name)
        return real(path, *args)

    monkeypatch.setattr(moelab.dataset, "load_csv_split", counted)
    d = tiny_config_dict(tmp_path / "out", repetitions=3, dataset={
        "kind": "csv", "paths": {k: str(v) for k, v in paths.items()}})
    if command == "sweep":
        d["grid"] = {"k": [1]}
    path = write_config(tmp_path, d)
    assert main([command, "--config", str(path)]) == 0
    assert loads == ["train.csv", "val.csv", "test.csv"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["run", "sweep", "analyze"])
def test_output_dir_on_a_file_exits_2(tmp_path, capsys, command, under):
    # the output directory names an existing file, or a path under one
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    out = taken / "sub" if under else taken
    if command == "analyze":
        argv = ["analyze", "--mode", "normalized_improvement",
                "--out", str(out)]
    else:
        d = tiny_config_dict(tmp_path / "unused",
                             **{"grid": {"k": [1]}} if command == "sweep"
                             else {})
        argv = [command, "--config", str(write_config(tmp_path, d)),
                "--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(out) in err and "Traceback" not in err
    assert taken.read_bytes() == b"not a directory\n"


# What config.to_dict serializes to; checkpoint headers and config.json
# files written by earlier versions must keep matching these bytes.
PINNED_PBE_SPEC = (
    '{"batch_repetitions": 1, "capacity_ratio": null,'
    ' "channels": 3, "classes": 4, "contiguous_moe": false,'
    ' "dropout_rate": 0.1, "e": 4, "eval_noise_enabled": null,'
    ' "heads": 2, "hidden": 32, "image_size": 8, "k": 1,'
    ' "last_n": 2, "layers": 4, "m": 2,'
    ' "mimo_input_repetition_prob": 0.5, "mlp_dim": 64,'
    ' "noise_multiplier": 1.0, "noise_scale": null,'
    ' "patch_size": 4, "variant": "pbe"}'
)

PINNED_RUN_CONFIG = """\
{
  "dataset": {
    "channels": 3,
    "classes": 4,
    "image_size": 8,
    "kind": "synthetic_gaussian",
    "n_test": 32,
    "n_train": 32,
    "n_val": 16,
    "noise_std": 0.5,
    "paths": {},
    "seed": 11,
    "shift_severity": 2
  },
  "model": {
    "batch_repetitions": 1,
    "capacity_ratio": null,
    "channels": 3,
    "classes": 4,
    "contiguous_moe": false,
    "dropout_rate": 0.1,
    "e": 4,
    "eval_noise_enabled": null,
    "heads": 2,
    "hidden": 16,
    "image_size": 8,
    "k": 1,
    "last_n": 1,
    "layers": 2,
    "m": 1,
    "mimo_input_repetition_prob": 0.5,
    "mlp_dim": 32,
    "noise_multiplier": 1.0,
    "noise_scale": null,
    "patch_size": 4,
    "variant": "vmoe"
  },
  "output_dir": "out",
  "repetitions": 1,
  "train": {
    "base_lr": 0.05,
    "batch_size": 8,
    "clip_norm": 10.0,
    "eval_every": 0,
    "loss": {
      "aux_weight": 0.1,
      "loss_mode": "member_avg"
    },
    "lr_schedule": "constant",
    "momentum": 0.9,
    "seed": 3,
    "steps": 1,
    "warmup_frac": 0.1
  }
}
"""

PINNED_GRID_BLOCK = """\
  "grid": {
    "m": [
      1,
      2
    ],
    "variant": [
      "vmoe",
      "pbe"
    ]
  },
"""


def test_config_bytes_pinned(tmp_path, capsys):
    spec = preset("tiny", variant="pbe", m=2).to_dict()
    assert json.dumps(spec, sort_keys=True) == PINNED_PBE_SPEC
    cfg = tiny_config_dict("out", train={"steps": 1})
    grid = {"variant": ["vmoe", "pbe"], "m": [1, 2]}
    with_grid = PINNED_RUN_CONFIG.replace(
        '  "model": {', PINNED_GRID_BLOCK + '  "model": {', 1)
    for name, d, expected in (("plain", cfg, PINNED_RUN_CONFIG),
                              ("grid", dict(cfg, grid=grid), with_grid)):
        path = write_config(tmp_path, d, name=f"{name}.json")
        out = tmp_path / name
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out)]) == 0
        assert (out / "config.json").read_text(encoding="utf-8") == expected


class TestRun:
    def test_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        d = tiny_config_dict(out)
        d["repetitions"] = 2
        path = write_config(tmp_path, d)
        assert main(["run", "--config", str(path)]) == 0
        assert "wrote 2 seed reports" in capsys.readouterr().out
        assert (out / "config.json").is_file()
        assert (out / "summary.csv").is_file()
        for i in range(2):
            seed_dir = out / f"seed_{i:03d}"
            assert (seed_dir / "report.json").is_file()
            assert (seed_dir / "history.csv").is_file()
            assert (seed_dir / "checkpoint.bin").is_file()

    def test_history_has_one_row_per_step(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config_dict(out))
        assert main(["run", "--config", str(path)]) == 0
        lines = (out / "seed_000" / "history.csv").read_text().strip()
        rows = lines.split("\n")
        assert rows[0] == ",".join(HISTORY_COLUMNS)
        assert len(rows) == 1 + 5

    def test_single_repetition_zero_stderr(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config_dict(out))
        assert main(["run", "--config", str(path)]) == 0
        summary = read_summary(out)
        assert summary
        for mean, stderr in summary.values():
            assert stderr == "0"
            assert mean != ""

    def test_rerun_is_byte_identical(self, tmp_path):
        # same config, two fresh output trees: every artifact must agree
        d = tiny_config_dict(tmp_path / "unused")
        d["repetitions"] = 2
        path = write_config(tmp_path, d)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out1)]) == 0
        assert main(["run", "--config", str(path),
                     "--output-dir", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() \
            == (out2 / "summary.csv").read_bytes()
        for i in range(2):
            a, b = out1 / f"seed_{i:03d}", out2 / f"seed_{i:03d}"
            assert (a / "checkpoint.bin").read_bytes() \
                == (b / "checkpoint.bin").read_bytes()
            assert (a / "report.json").read_bytes() \
                == (b / "report.json").read_bytes()
            assert (a / "history.csv").read_bytes() \
                == (b / "history.csv").read_bytes()

    def test_summary_recomputable_from_seed_reports(self, tmp_path):
        out = tmp_path / "out"
        d = tiny_config_dict(out)
        d["repetitions"] = 3
        path = write_config(tmp_path, d)
        assert main(["run", "--config", str(path)]) == 0
        reports = [
            json.loads((out / f"seed_{i:03d}" / "report.json").read_text())
            for i in range(3)
        ]
        summary = read_summary(out)
        for metric in ("nll", "error_pct", "ece"):
            values = [r[metric] for r in reports]
            mean = math.fsum(values) / 3
            var = math.fsum((v - mean) ** 2 for v in values) / 2
            stderr = math.sqrt(var / 3)
            assert summary[metric][0] == f"{mean:.10g}"
            assert summary[metric][1] == f"{stderr:.10g}"

    def test_seeds_produce_different_reports(self, tmp_path):
        out = tmp_path / "out"
        d = tiny_config_dict(out)
        d["repetitions"] = 2
        path = write_config(tmp_path, d)
        assert main(["run", "--config", str(path)]) == 0
        r0 = json.loads((out / "seed_000" / "report.json").read_text())
        r1 = json.loads((out / "seed_001" / "report.json").read_text())
        assert r0["nll"] != r1["nll"]

    def test_output_dir_flag_wins(self, tmp_path):
        ignored = tmp_path / "ignored"
        chosen = tmp_path / "chosen"
        path = write_config(tmp_path, tiny_config_dict(ignored))
        assert main(["run", "--config", str(path),
                     "--output-dir", str(chosen)]) == 0
        assert (chosen / "summary.csv").is_file()
        assert not ignored.exists()

    def test_ood_metrics_in_summary(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config_dict(out))
        assert main(["run", "--config", str(path)]) == 0
        summary = read_summary(out)
        assert "ood.test/ood.auc_roc" in summary
        assert "ood.test/shift.auc_roc" in summary
        assert "ood.test/ood.fpr95" in summary

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def exploding(model, dataset, config):
            raise DivergenceError(4, float("nan"))

        monkeypatch.setattr(moelab.cli, "train", exploding)
        path = write_config(tmp_path, tiny_config_dict(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "training diverged" in err
        assert "step 4" in err

    def test_evaluation_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(model, dataset, rng, **kw):
            raise EvaluationError("non-finite probabilities in forward pass")

        monkeypatch.setattr(moelab.cli, "evaluate", failing)
        path = write_config(tmp_path, tiny_config_dict(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "evaluation failed: non-finite probabilities" in err
        assert "training diverged" not in err


class TestSweep:
    def test_requires_grid(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config_dict(tmp_path / "out"))
        assert main(["sweep", "--config", str(path)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_rows_and_flops_monotone(self, tmp_path):
        out = tmp_path / "out"
        d = tiny_config_dict(out, grid={"variant": ["pbe"],
                                        "k": [1, 2], "m": [1, 2]})
        path = write_config(tmp_path, d)
        assert main(["sweep", "--config", str(path)]) == 0
        header, rows = read_sweep(out)
        assert header[:4] == ["variant", "e", "k", "m"]
        assert header[-1] == "train_gflops"
        assert len(rows) == 4
        cost = {(r["k"], r["m"]): float(r["train_gflops"]) for r in rows}
        assert cost[("2", "1")] > cost[("1", "1")]
        assert cost[("2", "2")] > cost[("1", "2")]
        assert cost[("1", "2")] > cost[("1", "1")]
        assert cost[("2", "2")] > cost[("2", "1")]
        for r in rows:
            assert r["nll_mean"] != ""
            assert r["error_pct_mean"] != ""

    def test_deep_ensemble_cost_is_member_multiple(self, tmp_path):
        out = tmp_path / "out"
        d = tiny_config_dict(out, grid={"variant": ["deep_ensemble"],
                                        "m": [1, 2]})
        path = write_config(tmp_path, d)
        assert main(["sweep", "--config", str(path)]) == 0
        _, rows = read_sweep(out)
        cost = {r["m"]: float(r["train_gflops"]) for r in rows}
        # cells carry 10 significant digits
        assert cost["2"] == pytest.approx(2.0 * cost["1"], rel=1e-8)
        kl = {r["m"]: r["kl_diversity_mean"] for r in rows}
        assert kl["1"] == ""
        assert float(kl["2"]) > 0.0

    def test_one_by_one_grid_matches_run(self, tmp_path):
        base = tiny_config_dict(tmp_path / "unused",
                                model=dict(variant="pbe", m=2))
        base["repetitions"] = 2
        run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
        run_cfg = dict(base)
        sweep_cfg = dict(base)
        sweep_cfg["grid"] = {"k": [1]}
        p_run = write_config(tmp_path, run_cfg, "run.json")
        p_sweep = write_config(tmp_path, sweep_cfg, "sweep.json")
        assert main(["run", "--config", str(p_run),
                     "--output-dir", str(run_dir)]) == 0
        assert main(["sweep", "--config", str(p_sweep),
                     "--output-dir", str(sweep_dir)]) == 0
        summary = read_summary(run_dir)
        _, rows = read_sweep(sweep_dir)
        assert len(rows) == 1
        row = rows[0]
        for metric in ("nll", "error_pct", "ece", "kl_diversity"):
            assert row[f"{metric}_mean"] == summary[metric][0]
            assert row[f"{metric}_stderr"] == summary[metric][1]

    def test_mc_dropout_protocol(self, tmp_path):
        out = tmp_path / "out"
        d = tiny_config_dict(out, grid={"variant": ["mc_dropout"],
                                        "m": [2]})
        path = write_config(tmp_path, d)
        assert main(["sweep", "--config", str(path)]) == 0
        _, rows = read_sweep(out)
        assert rows[0]["variant"] == "mc_dropout"
        assert float(rows[0]["kl_diversity_mean"]) > 0.0

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        d = tiny_config_dict(tmp_path / "out",
                             grid={"variant": ["transformer_xl"]})
        path = write_config(tmp_path, d)
        assert main(["sweep", "--config", str(path)]) == 2
        assert "transformer_xl" in capsys.readouterr().err

    def test_builds_each_dataset_once(self, tmp_path, monkeypatch):
        # every cell shares the repetition datasets, so they are frozen
        # here: a write by train or evaluate would raise
        built = []
        real = moelab.cli.make_dataset

        def frozen(spec):
            ds = real(spec)
            for value in vars(ds).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            built.append(spec.seed)
            return ds

        monkeypatch.setattr(moelab.cli, "make_dataset", frozen)
        d = tiny_config_dict(tmp_path / "out", repetitions=2, grid={
            "variant": ["pbe", "deep_ensemble", "mc_dropout"], "m": [2]})
        path = write_config(tmp_path, d)
        assert main(["sweep", "--config", str(path)]) == 0
        assert built == [11, 12]
        _, rows = read_sweep(tmp_path / "out")
        assert [r["variant"] for r in rows] == ["pbe", "deep_ensemble",
                                                "mc_dropout"]

    def test_rerun_is_byte_identical(self, tmp_path):
        d = tiny_config_dict(tmp_path / "unused", grid={"m": [1, 2]},
                             model=dict(variant="pbe"))
        path = write_config(tmp_path, d)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(path),
                     "--output-dir", str(out1)]) == 0
        assert main(["sweep", "--config", str(path),
                     "--output-dir", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() \
            == (out2 / "sweep.csv").read_bytes()


PAPER_POINTS = resources.files("moelab").joinpath(
    "data/paper_points.csv").read_text(encoding="utf-8")


def _paper_points_with(families=None, first_gflops=None) -> bytes:
    """The packaged points as file bytes: only the rows of the given
    families, if any are given, and first_gflops, if given, in the first
    row's gflops cell."""
    header, *rows = PAPER_POINTS.splitlines()
    if families is not None:
        rows = [row for row in rows if row.split(",")[0] in families]
    if first_gflops is not None:
        rows[0] = rows[0].rsplit(",", 1)[0] + "," + first_gflops
    return ("\n".join([header, *rows]) + "\n").encode()


# case: (analyze mode, input file bytes, or None for a missing file, and
# optionally the text the one-line error must contain)
BAD_INPUTS = {
    "non_numeric_gflops": ("normalized_improvement",
                           _paper_points_with(first_gflops="lots")),
    # phi is a cubic: 3 vit rows cannot fit it
    "three_families": ("normalized_improvement",
                       _paper_points_with(("S/32", "B/32", "L/32"))),
    "missing_file": ("normalized_improvement", None),
    "pareto_nan_metric": ("pareto", b"label,metric,gflops\nA,nan,2.0\n"),
    "pareto_inf_gflops": ("pareto", b"label,metric,gflops\nA,1.0,inf\n"),
    "pareto_not_utf8": ("pareto", b"label,metric,gflops\n\xff,1.0,2.0\n"),
    # the plot's y range overflows to inf
    "pareto_metric_span_overflows": (
        "pareto", b"label,metric,gflops\nA,-1.5e308,1.0\nB,1.5e308,2.0\n",
        "metric"),
    "gain_map_nan_k": ("gain_map",
                       b"k,m,metric,gflops\n1,1,1.0,1.0\nnan,2,0.5,2.0\n"),
    "gain_map_fractional_k": (
        "gain_map", b"k,m,metric,gflops\n1,1,1.0,1.0\n1.7,2,0.5,2.0\n"),
    "gain_map_bad_baseline": ("gain_map --baseline 1",
                              b"k,m,metric,gflops\n1,1,1.0,1.0\n",
                              "--baseline"),
    "pareto_missing_file": ("pareto", None),
    # the raw improvement divides by the vit NLL
    "vit_nll_zero": ("normalized_improvement", PAPER_POINTS.replace(
        "S/32,vit,0.907,22.32", "S/32,vit,0,22.32").encode(), "S/32"),
    "repeated_family_variant": (
        "normalized_improvement",
        (PAPER_POINTS + "S/32,vit,0.5,22.32\n").encode(),
        "family=S/32, variant=vit"),
}

EXPECTED_RAW = {"S/32": 9.82, "B/32": 9.53, "L/32": 3.76, "L/16": 5.38,
                "H/14": 4.27}


class TestAnalyze:
    def test_normalized_improvement_default_input(self, tmp_path, capsys):
        out = tmp_path / "an"
        assert main(["analyze", "--mode", "normalized_improvement",
                     "--out", str(out)]) == 0
        assert "wrote analysis" in capsys.readouterr().out
        lines = (out / "improvement.csv").read_text().strip().split("\n")
        assert lines[0] == "family,raw_improvement_pct,normalized_improvement_pct"
        got = {}
        for line in lines[1:]:
            family, raw, norm = line.split(",")
            got[family] = (float(raw), float(norm))
        assert set(got) == set(EXPECTED_RAW)
        for family, expected in EXPECTED_RAW.items():
            assert abs(got[family][0] - expected) < 0.2
        svg = (out / "improvement.svg").read_text()
        assert svg.startswith("<svg")
        assert "training GFLOPs" in svg

    def test_analyze_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["analyze", "--mode", "normalized_improvement",
                         "--out", str(out)]) == 0
        assert (out1 / "improvement.csv").read_bytes() \
            == (out2 / "improvement.csv").read_bytes()
        assert (out1 / "improvement.svg").read_bytes() \
            == (out2 / "improvement.svg").read_bytes()

    def test_packaged_points_as_input_match_default(self, tmp_path):
        csv = tmp_path / "points.csv"
        csv.write_text(PAPER_POINTS, encoding="utf-8")
        default, given = tmp_path / "default", tmp_path / "given"
        assert main(["analyze", "--mode", "normalized_improvement",
                     "--out", str(default)]) == 0
        assert main(["analyze", "--mode", "normalized_improvement",
                     "--input", str(csv), "--out", str(given)]) == 0
        for name in ("improvement.csv", "improvement.svg"):
            assert (given / name).read_bytes() == (default / name).read_bytes()

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        # mode is the --mode value, with any further flags after it
        mode, data, *named = BAD_INPUTS[case]
        csv = tmp_path / "points.csv"
        if data is not None:
            csv.write_bytes(data)
        assert main(["analyze", "--mode", *mode.split(), "--input", str(csv),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert all(text in err for text in named)
        assert not (tmp_path / "o").exists()

    def test_custom_input_missing_column_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text("family,variant,nll\nS/32,vit,0.9\n", encoding="utf-8")
        assert main(["analyze", "--mode", "normalized_improvement",
                     "--input", str(csv), "--out", str(tmp_path / "o")]) == 2
        assert "gflops" in capsys.readouterr().err

    def test_pareto_single_point(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text("label,metric,gflops\nA,1.5,2.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "pareto", "--input", str(csv),
                     "--out", str(out)]) == 0
        lines = (out / "frontier.csv").read_text().strip().split("\n")
        assert lines == ["label,metric,gflops", "A,1.5,2"]
        assert (out / "pareto.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("metrics", [("1e17",),
                                         ("1e17", "1.0000000000000002e17"),
                                         ("-3e20", "-3e20")],
                             ids=["one_point", "one_ulp_apart", "negative"])
    def test_pareto_huge_flat_metric(self, tmp_path, metrics):
        # widening the y range by 0.5 is lost on values this large
        csv = tmp_path / "in.csv"
        csv.write_text("label,gflops,metric\n" + "".join(
            f"p{i},{i + 1}.0,{m}\n" for i, m in enumerate(metrics)),
            encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "pareto", "--input", str(csv),
                     "--out", str(out)]) == 0
        svg = (out / "pareto.svg").read_text()
        y_ticks = re.findall(r'text-anchor="end">([^<]*)<', svg)
        assert len(y_ticks) >= 2 and len(set(y_ticks)) == len(y_ticks)

    def test_label_with_comma_is_quoted(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text('label,metric,gflops\n"big, wide",0.5,3\n',
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "pareto", "--input", str(src),
                     "--out", str(out)]) == 0
        assert (out / "frontier.csv").read_bytes() == \
            b'label,metric,gflops\n"big, wide",0.5,3\n'

    def test_pareto_drops_dominated_points(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text(
            "label,metric,gflops\n"
            "cheap,1.0,1.0\n"
            "bad,1.2,2.0\n"
            "good,0.8,3.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "pareto", "--input", str(csv),
                     "--out", str(out)]) == 0
        lines = (out / "frontier.csv").read_text().strip().split("\n")
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["cheap", "good"]

    def test_pareto_requires_input(self, tmp_path, capsys):
        assert main(["analyze", "--mode", "pareto",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--input" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_pareto_empty_metric_cell_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text("label,metric,gflops\nA,,2.0\n", encoding="utf-8")
        assert main(["analyze", "--mode", "pareto", "--input", str(csv),
                     "--out", str(tmp_path / "o")]) == 2
        assert "metric" in capsys.readouterr().err

    def test_gain_map_hand_grid(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text(
            "k,m,metric,gflops\n"
            "1,1,1.0,1.0\n"
            "1,2,0.5,2.0\n"
            "2,1,1.0,1.5\n"
            "2,2,1.2,3.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "gain_map", "--input", str(csv),
                     "--out", str(out)]) == 0
        lines = (out / "gain_map.csv").read_text().strip().split("\n")
        assert lines[0] == "k,m,log_gain_per_cost"
        cells = {}
        for line in lines[1:]:
            k, m, g = line.split(",")
            cells[(k, m)] = g
        assert cells[("1", "1")] == ""                 # baseline
        assert cells[("2", "1")] == "-inf"             # zero gain
        assert cells[("2", "2")] == ""                 # negative gain
        expected = math.log(0.5 / 1.0)
        assert float(cells[("1", "2")]) == pytest.approx(expected, abs=1e-9)
        assert (out / "gain_map.svg").read_text().startswith("<svg")

    def test_gain_map_custom_baseline(self, tmp_path):
        csv = tmp_path / "in.csv"
        csv.write_text(
            "k,m,metric,gflops\n"
            "1,2,0.5,2.0\n"
            "2,2,0.4,4.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["analyze", "--mode", "gain_map", "--input", str(csv),
                     "--baseline", "1,2", "--out", str(out)]) == 0
        lines = (out / "gain_map.csv").read_text().strip().split("\n")
        row = dict((tuple(l.split(",")[:2]), l.split(",")[2])
                   for l in lines[1:])
        assert row[("1", "2")] == ""
        expected = math.log((0.5 - 0.4) / (4.0 - 2.0))
        assert float(row[("2", "2")]) == pytest.approx(expected, abs=1e-9)

    def test_gain_map_bad_baseline_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text("k,m,metric,gflops\n1,1,1.0,1.0\n", encoding="utf-8")
        assert main(["analyze", "--mode", "gain_map", "--input", str(csv),
                     "--baseline", "one,one",
                     "--out", str(tmp_path / "o")]) == 2
        assert "baseline" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gain_map_repeated_cell_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text(
            "k,m,metric,gflops\n"
            "1,1,1.0,1.0\n"
            "1,2,0.5,2.0\n"
            "1,2,0.4,2.5\n",
            encoding="utf-8",
        )
        assert main(["analyze", "--mode", "gain_map", "--input", str(csv),
                     "--out", str(tmp_path / "o")]) == 2
        assert "k=1, m=2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gain_map_requires_input(self, tmp_path):
        assert main(["analyze", "--mode", "gain_map",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text("", encoding="utf-8")
        assert main(["analyze", "--mode", "pareto", "--input", str(csv),
                     "--out", str(tmp_path / "o")]) == 2
        assert "header" in capsys.readouterr().err


def flops_lines(capsys):
    out = capsys.readouterr().out.strip().split("\n")
    kv = {}
    for line in out:
        if "=" in line:
            key, _, value = line.partition("=")
            kv[key] = value
    return kv


class TestFlops:
    def test_deep_ensemble_ratio_exactly_two(self, capsys):
        assert main(["flops", "--preset", "S/32", "--ensemble", "2"]) == 0
        kv = flops_lines(capsys)
        assert kv["deep_ensemble_ratio"] == "2.000"
        # printed cells carry 10 significant digits
        train = float(kv["train_gflops"])
        de = float(kv["deep_ensemble_train_gflops"])
        assert de == pytest.approx(2.0 * train, rel=1e-8)

    def test_tiling_saving_window(self, capsys):
        assert main(["flops", "--preset", "L/16", "--variant", "pbe",
                     "--k", "2", "--m", "2"]) == 0
        kv = flops_lines(capsys)
        saving = float(kv["tiling_saving_pct"])
        assert 42.0 <= saving <= 52.0

    def test_router_overhead_nonnegative(self, capsys):
        assert main(["flops", "--preset", "S/32", "--variant", "vit"]) == 0
        vit = float(flops_lines(capsys)["train_gflops"])
        assert main(["flops", "--preset", "S/32", "--variant", "vmoe",
                     "--k", "1"]) == 0
        vmoe = float(flops_lines(capsys)["train_gflops"])
        assert vmoe > vit

    def test_naive_flag_prices_input_tiling(self, capsys):
        assert main(["flops", "--preset", "S/32", "--variant", "pbe",
                     "--m", "2", "--naive"]) == 0
        kv = flops_lines(capsys)
        assert kv["tiling"] == "naive"
        assert kv["forward_mflops"] == kv["forward_mflops_naive"]
        naive = float(kv["forward_mflops_naive"])
        deferred = float(kv["forward_mflops_deferred"])
        assert naive > deferred

    def test_parts_sum_matches_total(self, capsys):
        assert main(["flops", "--preset", "B/32"]) == 0
        kv = flops_lines(capsys)
        # the report prints 6 significant digits per line
        total = float(kv["forward_mflops"])
        parts = [float(v) for k, v in kv.items()
                 if k.startswith("forward_mflops.")]
        assert sum(parts) == pytest.approx(total, rel=1e-4)

    @pytest.mark.parametrize("flag", ["--steps", "--batch-size",
                                      "--ensemble"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_count_below_one_exits_2(self, capsys, flag, value):
        assert main(["flops", "--preset", "tiny", flag, value]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("config error:") and flag in err

    def test_bad_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["flops", "--preset", "Z/99"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
