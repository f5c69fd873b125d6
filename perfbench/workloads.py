"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload has a ``setup`` (dataset and model build, after the imports)
and a list of operations.  An operation calls only public moelab API inside
the ``measure`` context it is given, then checks what came out and hashes
it.  Models are rebuilt between operations outside ``measure``, so every
repeat of an operation starts from the same state and must produce the same
digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import moelab.checkpoint as checkpoint
import moelab.cli as cli
import moelab.dataset as dataset
import moelab.model as model
import moelab.trainer as trainer
from moelab.rng import Rng

# Seed offset of the eval-time generator, as the CLI uses it.
EVAL_SEED_OFFSET = cli.EVAL_SEED_OFFSET

# The C5 trend check's data: noisy prototypes with a shift split.
C5_DATA = dict(classes=4, image_size=8, channels=3, n_train=256, n_val=128,
               n_test=512, noise_std=2.5, shift_severity=2)
TOY_DATA = dict(C5_DATA, n_train=64, n_val=16, n_test=32)

# The C5 model shape: tiny preset, mlp_dim 128, E=16.  capacity_ratio 1.0
# on vmoe drops assignments, so the capacity path runs.
ROUTED = (("vmoe", {"k": 2, "capacity_ratio": 1.0}),
          ("pbe", {"k": 1, "m": 2}),
          ("only_tiling", {"k": 1, "m": 2}),
          ("only_partitioning", {"k": 1, "m": 2}),
          ("multihead", {"k": 2}))
DENSE = (("vit", {}), ("be", {"m": 2}), ("mimo", {"m": 2}))


def check_probs(mdl, images, rng) -> list:
    """Probabilities of a forward pass are finite and rows sum to 1."""
    bundle = model.forward(mdl, images, rng)
    problems = []
    for name, p in (("member", bundle.member_probs.data),
                    ("ensemble", bundle.ensemble_probs.data)):
        if not np.isfinite(p).all():
            problems.append(f"{name} probabilities are not finite")
        elif np.abs(p.sum(axis=-1) - 1.0).max() > 1e-9:
            problems.append(f"{name} probability rows do not sum to 1")
    return problems


def _finite(name, values) -> list:
    bad = [v for v in values if v is None or not math.isfinite(v)]
    return [f"{name} is not finite: {bad[:3]}"] if bad else []


class TrainEval:
    """train() then evaluate() on each model of a family (routed_train,
    dense_train)."""

    def __init__(self, variants, steps: int, seed: int, toy: bool,
                 work: Path):
        self.variants = variants
        self.steps = steps
        self.seed = seed
        self.toy = toy
        self.work = work

    def setup(self):
        data = TOY_DATA if self.toy else C5_DATA
        self.data = dataset.make_dataset(
            dataset.DatasetSpec(seed=self.seed, **data))
        self.config = trainer.TrainConfig(
            steps=3 if self.toy else self.steps,
            batch_size=16 if self.toy else 32, base_lr=0.05, seed=self.seed)
        self.specs = {v: model.preset("tiny", variant=v, mlp_dim=128, e=16,
                                      **kw) for v, kw in self.variants}
        self.fresh = {v: self._build(v) for v in self.specs}
        self.work.mkdir(parents=True, exist_ok=True)

    def _build(self, variant):
        return model.build_model(self.specs[variant], Rng(self.seed))

    def ops(self):
        return [(v, lambda measure, v=v: self._op(v, measure))
                for v in self.specs]

    def _op(self, variant, measure):
        mdl = self.fresh.pop(variant, None) or self._build(variant)
        eval_rng = Rng(self.seed + EVAL_SEED_OFFSET)
        with measure:
            mdl, history = trainer.train(mdl, self.data, self.config)
            report = trainer.evaluate(mdl, self.data, eval_rng)
        problems = _finite("training loss", [r["loss"] for r in history])
        problems += _finite("test NLL", [report.nll])
        problems += check_probs(mdl, self.data.test_x[:64], eval_rng)

        ckpt, hist = self.work / "checkpoint.bin", self.work / "history.csv"
        checkpoint.save_checkpoint(checkpoint.checkpoint_from_model(mdl),
                                   ckpt)
        trainer.history_to_csv(history, hist)
        digest = hashlib.sha256()
        for part in (ckpt.read_bytes(), hist.read_bytes(),
                     repr(history[-1]["loss"]).encode(),
                     report.to_json().encode()):
            digest.update(hashlib.sha256(part).digest())
        return digest.hexdigest(), problems


class CliSweep:
    """In-process ``moelab run`` (2 repetitions of pbe) and ``moelab sweep``
    over pbe, deep_ensemble and mc_dropout."""

    REPETITIONS = 2
    SWEEP = ("pbe", "deep_ensemble", "mc_dropout")

    def __init__(self, seed: int, toy: bool, work: Path):
        self.seed = seed
        self.toy = toy
        self.work = work

    def setup(self):
        data = dict(classes=4, image_size=8, channels=3, n_train=256,
                    n_val=128, n_test=1024, noise_std=2.5, seed=self.seed)
        steps, batch = 8, 32
        if self.toy:
            data.update(n_train=64, n_val=16, n_test=32)
            steps, batch = 3, 16
        spec = dict(model.preset("tiny", variant="pbe", e=4, k=1,
                                 m=2).to_dict())
        base = {"model": spec,
                "train": {"steps": steps, "batch_size": batch,
                          "base_lr": 0.05, "seed": self.seed},
                "dataset": data, "output_dir": "out"}
        self.work.mkdir(parents=True, exist_ok=True)
        self.run_cfg = self.work / "run.json"
        self.run_cfg.write_text(json.dumps(
            dict(base, repetitions=self.REPETITIONS)), encoding="utf-8")
        self.sweep_cfg = self.work / "sweep.json"
        self.sweep_cfg.write_text(json.dumps(
            dict(base, repetitions=1,
                 grid={"variant": list(self.SWEEP), "m": [2]})),
            encoding="utf-8")
        # what the CLI itself builds first: the data and a model
        self.data = dataset.make_dataset(dataset.DatasetSpec(**data))
        model.build_model(model.ModelSpec.from_dict(spec), Rng(self.seed))

    def ops(self):
        return [("run", self._run), ("sweep", self._sweep)]

    def _main(self, command, config, measure):
        out = self.work / command
        shutil.rmtree(out, ignore_errors=True)
        with measure, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(config),
                           "--output-dir", str(out)])
        problems = [] if rc == 0 else [f"moelab {command} exited {rc}"]
        return out, problems

    def _run(self, measure):
        out, problems = self._main("run", self.run_cfg, measure)
        expected = ["config.json", "summary.csv"] + [
            f"seed_{i:03d}/{name}" for i in range(self.REPETITIONS)
            for name in ("report.json", "history.csv", "checkpoint.bin")]
        problems += [f"run did not write {p}" for p in expected
                     if not (out / p).is_file()]
        if problems:
            return None, problems
        for i in range(self.REPETITIONS):
            seed_dir = out / f"seed_{i:03d}"
            report = json.loads((seed_dir / "report.json").read_text())
            problems += _finite(f"{seed_dir.name} test NLL", [report["nll"]])
            with open(seed_dir / "history.csv", newline="") as fh:
                losses = [float(r["loss"]) for r in csv.DictReader(fh)]
            problems += _finite(f"{seed_dir.name} training loss", losses)
            mdl = checkpoint.model_from_checkpoint(
                checkpoint.load_checkpoint(seed_dir / "checkpoint.bin"))
            problems += check_probs(mdl, self.data.test_x[:64],
                                    Rng(self.seed + EVAL_SEED_OFFSET))
        return _tree_digest(out), problems

    def _sweep(self, measure):
        out, problems = self._main("sweep", self.sweep_cfg, measure)
        path = out / "sweep.csv"
        if not path.is_file():
            return None, problems + ["sweep did not write sweep.csv"]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [r["variant"] for r in rows] != list(self.SWEEP):
            problems.append(f"sweep.csv rows {[r['variant'] for r in rows]}")
        problems += _finite("sweep nll_mean",
                            [float(r["nll_mean"] or "nan") for r in rows])
        return _tree_digest(out), problems


def _tree_digest(root: Path) -> str:
    """Hash of every file's relative path and bytes under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def make(name: str, seed: int, toy: bool, work: Path):
    if name == "routed_train":
        return TrainEval(ROUTED, 16, seed, toy, work)
    if name == "dense_train":
        return TrainEval(DENSE, 35, seed, toy, work)
    if name == "cli_sweep":
        return CliSweep(seed, toy, work)
    raise ValueError(f"unknown workload {name!r}")
