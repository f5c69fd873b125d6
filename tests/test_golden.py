"""Golden digests: the bytes a toy run of every variant and protocol writes.

The 8 model variants and the deep-ensemble and MC-dropout protocols train
at toy size for 3 steps with clip_norm 1.0, below every step's gradient
norm (1.3 to 3.2 here), so the order in which the clip norm sums the
parameters reaches the trained numbers.  Each entry hashes every trained
model's checkpoint and history.csv bytes, its Model.params name
sequence and the report.json bytes; the "analyze" entry hashes what the
three ``moelab analyze`` modes write, and the "cli_run" and "cli_sweep"
entries hash every file a toy ``moelab run`` (2 repetitions) and ``moelab
sweep`` (pbe, deep_ensemble and mc_dropout at M 1 and 2, 2 repetitions)
write.  The digests must equal GOLDEN,
which was made by the code before a refactor, so a change that claims no
numeric change is judged against the bytes of its parent and not only
against a second run of itself.

GOLDEN also records the environment it was made in: the numpy version,
its BLAS and the CPU features numpy dispatches on.  A different BLAS or
SIMD kernel may round differently, so on another environment every test
here skips, naming each field that differs; none passes there.

A change that moves these bytes on purpose regenerates the table with
``PYTHONPATH=src python tests/test_golden.py`` and names each moved entry.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moelab.checkpoint import checkpoint_from_model, save_checkpoint
from moelab.cli import EVAL_SEED_OFFSET, MEMBER_SEED_STRIDE, main
from moelab.dataset import DatasetSpec, make_dataset
from moelab.flops import deep_ensemble_flops, flops_estimate
from moelab.model import ModelSpec, build_model
from moelab.rng import Rng
from moelab.trainer import TrainConfig, evaluate, history_to_csv, train

GOLDEN = Path(__file__).with_name("golden.json")

SEED = 7
DATA = DatasetSpec(classes=4, image_size=8, channels=3, n_train=64, n_val=16,
                   n_test=32, noise_std=2.5, shift_severity=2, seed=SEED)
TRAIN = TrainConfig(steps=3, batch_size=16, base_lr=0.05, clip_norm=1.0,
                    seed=SEED)

# entry: (variant, ModelSpec overrides, protocol, members); the tiny
# default spec has 4 blocks, E=4 and MoE/BE MLPs in blocks 1 and 3
ENTRIES = {
    "vit": ("vit", {}, "single", 1),
    "vmoe": ("vmoe", {"k": 2, "capacity_ratio": 1.0}, "single", 1),
    "pbe": ("pbe", {"m": 2}, "single", 1),
    "only_tiling": ("only_tiling", {"m": 2}, "single", 1),
    "only_partitioning": ("only_partitioning", {"m": 2}, "single", 1),
    "multihead": ("multihead", {"k": 2, "contiguous_moe": True}, "single", 1),
    "be": ("be", {"m": 2}, "single", 1),
    "mimo": ("mimo", {"m": 2}, "single", 1),
    "deep_ensemble": ("vmoe", {}, "deep_ensemble", 2),
    "mc_dropout": ("vit", {}, "mc_dropout", 1),
}

# entry: (command, config overrides) of a CLI call on the pbe spec
CLI_TREES = {
    "cli_run": ("run", {"repetitions": 2}),
    "cli_sweep": ("sweep", {"repetitions": 2, "grid": {
        "variant": ["pbe", "deep_ensemble", "mc_dropout"], "m": [1, 2]}}),
}

GAIN_MAP_CSV = b"k,m,metric,gflops\n1,1,0.8,1.0\n1,2,0.7,2.0\n" \
    b"2,1,0.75,1.9\n2,2,0.6,3.8\n"


def environment() -> dict:
    """What the golden bytes depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints it
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "blas": blas,
            "cpu": sorted(k for k, on in __cpu_features__.items() if on)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _entry_digests(name, dataset, work: Path):
    variant, overrides, protocol, members = ENTRIES[name]
    spec = ModelSpec(variant=variant, **overrides)
    out, models = {}, []
    for j in range(members):
        seed = SEED + MEMBER_SEED_STRIDE * j
        model, history = train(build_model(spec, Rng(seed)), dataset,
                               replace(TRAIN, seed=seed))
        save_checkpoint(checkpoint_from_model(model), work / "ckpt.bin")
        history_to_csv(history, work / "history.csv")
        out[f"checkpoint.{j}"] = _digest((work / "ckpt.bin").read_bytes())
        out[f"history.{j}"] = _digest((work / "history.csv").read_bytes())
        models.append(model)
    out["names"] = _digest("\n".join(models[0].params).encode())
    rng = Rng(SEED + EVAL_SEED_OFFSET)
    if protocol == "deep_ensemble":
        report = evaluate(None, dataset, rng, models=models, flops_giga=(
            deep_ensemble_flops(spec, members, TRAIN.steps,
                                TRAIN.batch_size)))
    else:
        report = evaluate(models[0], dataset, rng,
                          mc_samples=2 if protocol == "mc_dropout" else 0,
                          flops_giga=flops_estimate(spec, TRAIN.steps,
                                                    TRAIN.batch_size))
    out["report"] = _digest(report.to_json().encode())
    return out, report


def _analyze_digests(reports: dict, work: Path) -> dict:
    """Every file the three analyze modes write; pareto reads the entries'
    test NLL and training GFLOPs."""
    pareto = work / "pareto.csv"
    pareto.write_text("label,metric,gflops\n" + "".join(
        f"{name},{r.nll!r},{r.flops_train_giga!r}\n"
        for name, r in reports.items()), encoding="utf-8")
    gain_map = work / "gain_map.csv"
    gain_map.write_bytes(GAIN_MAP_CSV)
    out = work / "analyze"
    for argv in (["--mode", "normalized_improvement"],
                 ["--mode", "pareto", "--input", str(pareto)],
                 ["--mode", "gain_map", "--input", str(gain_map)]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *argv, "--out", str(out)]) == 0
    return {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())}


def _cli_tree_digests(name, work: Path) -> dict:
    """Every file one CLI call writes, by path under its output dir."""
    command, overrides = CLI_TREES[name]
    config = work / f"{name}.json"
    config.write_text(json.dumps({
        "model": ModelSpec(variant="pbe", m=2).to_dict(),
        "train": TRAIN.to_dict(), "dataset": DATA.to_dict(), **overrides}),
        encoding="utf-8")
    out = work / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(config),
                     "--output-dir", str(out)]) == 0
    return {p.relative_to(out).as_posix(): _digest(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def compute(work: Path) -> dict:
    dataset = make_dataset(DATA)
    digests, reports = {}, {}
    for name in ENTRIES:
        digests[name], reports[name] = _entry_digests(name, dataset, work)
    digests["analyze"] = _analyze_digests(reports, work)
    for name in CLI_TREES:
        digests[name] = _cli_tree_digests(name, work)
    return digests


def _load_table() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _environment_mismatch(recorded: dict) -> str:
    here, parts = environment(), []
    for key in sorted(set(recorded) | set(here)):
        want, have = recorded.get(key), here.get(key)
        if want == have:
            continue
        if key == "cpu":
            missing = sorted(set(want or ()) - set(have or ()))
            extra = sorted(set(have or ()) - set(want or ()))
            parts.append(f"cpu (lacks {missing}, adds {extra})")
        else:
            parts.append(f"{key} ({want!r} in the table, {have!r} here)")
    return "; ".join(parts)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    mismatch = _environment_mismatch(_load_table()["environment"])
    if mismatch:
        pytest.skip("golden table was made on another environment: "
                    + mismatch)
    return compute(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("entry", [*ENTRIES, "analyze", *CLI_TREES])
def test_bytes_match_golden_table(digests, entry):
    want = _load_table()["digests"][entry]
    moved = sorted(k for k in set(want) | set(digests[entry])
                   if want.get(k) != digests[entry].get(k))
    assert not moved, f"{entry}: bytes moved in {moved}"


def test_table_covers_every_entry():
    assert sorted(_load_table()["digests"]) == sorted(
        [*ENTRIES, "analyze", *CLI_TREES])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {"environment": environment(), "digests": compute(Path(tmp))}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
