"""Optimizer mechanics, schedule shapes, the training loop's determinism and
convergence, and the evaluation driver."""

import dataclasses
import gc
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import moelab.model
import moelab.trainer
from moelab.checkpoint import (Checkpoint, apply_checkpoint,
                               checkpoint_from_model, save_checkpoint)
from moelab.dataset import DatasetSpec, make_synthetic_dataset
from moelab.errors import ConfigError, DivergenceError, EvaluationError
from moelab.losses import LossConfig, member_avg_cross_entropy
from moelab.metrics import EvalReport, fewshot_probe
from moelab.model import VARIANTS, ModelSpec, build_model, forward
from moelab.rng import Rng
from moelab.tensor import Tensor
from moelab.trainer import (
    HISTORY_COLUMNS,
    FlatBuffers,
    TrainConfig,
    evaluate,
    history_to_csv,
    lr_at,
    sgd_step,
    train,
)
from oracles import evaluate_reference, sgd_step_loop


def tiny_model_spec(**kw):
    base = dict(image_size=8, patch_size=4, hidden=32, mlp_dim=64, layers=4,
                heads=2, classes=4, e=4, k=1, m=1, last_n=2, variant="vit")
    base.update(kw)
    return ModelSpec(**base)


def small_dataset(seed=0, noise=0.5, n_train=64):
    spec = DatasetSpec(classes=4, image_size=8, channels=3, n_train=n_train,
                       n_val=16, n_test=32, noise_std=noise, seed=seed)
    return make_synthetic_dataset(spec)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.momentum == 0.9
        assert cfg.clip_norm == 10.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_schedule="step_decay")
        with pytest.raises(ConfigError):
            TrainConfig(warmup_frac=1.0)

    def test_dict_round_trip(self):
        cfg = TrainConfig(steps=50, base_lr=0.2,
                          loss=LossConfig(aux_weight=0.05))
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_from_dict_rejects_unknown(self):
        d = TrainConfig().to_dict()
        d["weight_decay"] = 0.01
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(d)


class TestSchedules:
    def test_constant_with_warmup(self):
        cfg = TrainConfig(steps=100, base_lr=1.0, lr_schedule="constant",
                          warmup_frac=0.1)
        # 10 warmup steps ramp linearly, then flat
        np.testing.assert_allclose(lr_at(cfg, 0), 0.1, atol=1e-12)
        np.testing.assert_allclose(lr_at(cfg, 4), 0.5, atol=1e-12)
        np.testing.assert_allclose(lr_at(cfg, 9), 1.0, atol=1e-12)
        assert lr_at(cfg, 10) == 1.0
        assert lr_at(cfg, 99) == 1.0

    def test_cosine_decay(self):
        cfg = TrainConfig(steps=100, base_lr=1.0, lr_schedule="cosine")
        assert lr_at(cfg, 0) == 1.0
        np.testing.assert_allclose(lr_at(cfg, 50), 0.5, atol=1e-12)
        assert lr_at(cfg, 99) < 0.01

    def test_warmup_cosine(self):
        cfg = TrainConfig(steps=100, base_lr=1.0, lr_schedule="warmup_cosine",
                          warmup_frac=0.1)
        np.testing.assert_allclose(lr_at(cfg, 0), 0.1, atol=1e-12)
        np.testing.assert_allclose(lr_at(cfg, 9), 1.0, atol=1e-12)
        np.testing.assert_allclose(lr_at(cfg, 10), 1.0, atol=1e-12)
        assert lr_at(cfg, 99) < lr_at(cfg, 50) < lr_at(cfg, 10)

    def test_lr_nonnegative_everywhere(self):
        for sched in ("constant", "cosine", "warmup_cosine"):
            cfg = TrainConfig(steps=37, base_lr=0.3, lr_schedule=sched)
            assert all(lr_at(cfg, s) >= 0.0 for s in range(37))


class TestSgdStep:
    def bind(self, values):
        """Parameters of the given values, bound to new flat buffers."""
        tensors = [Tensor(np.array(v, dtype=np.float64), requires_grad=True)
                   for v in values]
        return tensors, FlatBuffers.bind(tensors)

    def test_plain_gradient_step(self):
        (p,), flat = self.bind([[1.0, 2.0]])
        p.grad[...] = [0.5, -0.5]
        cfg = TrainConfig(momentum=0.0, base_lr=1.0, clip_norm=10.0)
        sgd_step(flat, cfg, cfg.base_lr)
        np.testing.assert_array_equal(p.data, [0.5, 2.5])

    def test_clip_scales_exactly_half(self):
        (p,), flat = self.bind([[0.0] * 4])
        p.grad[...] = 10.0  # norm 20
        cfg = TrainConfig(momentum=0.0, base_lr=1.0, clip_norm=10.0)
        sgd_step(flat, cfg, cfg.base_lr)
        np.testing.assert_array_equal(p.data, -5.0 * np.ones(4))

    def test_zero_grads_decay_velocity(self):
        (p,), flat = self.bind([[1.0]])
        flat.velocity[...] = 2.0
        cfg = TrainConfig(momentum=0.9, base_lr=0.0, clip_norm=10.0)
        sgd_step(flat, cfg, cfg.base_lr)
        np.testing.assert_allclose(flat.velocity, [1.8], atol=1e-15)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_post_clip_norm_bounded(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            tensors, flat = self.bind([gen.normal(size=6).tolist(),
                                       gen.normal(size=3).tolist()])
            for t in tensors:
                t.grad[...] = gen.normal(size=t.data.shape) * 10
            cfg = TrainConfig(momentum=0.0, base_lr=1.0, clip_norm=5.0)
            before = flat.grads.copy()
            sq = sum(float(np.sum(g * g)) for g in (before[:6], before[6:]))
            scale = min(1.0, 5.0 / math.sqrt(sq))
            sgd_step(flat, cfg, cfg.base_lr)
            eff = math.sqrt(float(np.sum(flat.velocity * flat.velocity)))
            assert eff <= 5.0 + 1e-9
            np.testing.assert_allclose(flat.velocity, before * scale,
                                       atol=1e-12)

    def test_momentum_accumulates(self):
        (p,), flat = self.bind([[0.0]])
        cfg = TrainConfig(momentum=0.5, base_lr=1.0, clip_norm=100.0)
        for _ in range(2):
            p.grad[...] = 1.0
            sgd_step(flat, cfg, cfg.base_lr)
        # v1 = 1, v2 = 0.5 + 1 = 1.5; p = -(1 + 1.5)
        np.testing.assert_allclose(p.data, [-2.5], atol=1e-15)

    def test_in_place_update_matches_out_of_place_formula(self):
        gen = np.random.default_rng(3)
        tensors, flat = self.bind([gen.normal(size=7).tolist(),
                                   gen.normal(size=(2, 3)).tolist()])
        want = [t.data.copy() for t in tensors]
        vel = [np.zeros_like(t.data) for t in tensors]
        cfg = TrainConfig(momentum=0.9, base_lr=0.1, clip_norm=1.0)
        for step in range(5):
            grads = [gen.normal(size=t.data.shape) * 3 for t in tensors]
            for t, g in zip(tensors, grads):
                t.grad[...] = g
            arrays = [t.data for t in tensors]
            sgd_step(flat, cfg, 0.1 / (step + 1))
            assert all(t.data is a for t, a in zip(tensors, arrays))
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
            scale = min(1.0, 1.0 / gnorm)
            for i, g in enumerate(grads):
                vel[i] = 0.9 * vel[i] + g * scale
                want[i] = want[i] - 0.1 / (step + 1) * vel[i]
        for i, t in enumerate(tensors):
            np.testing.assert_array_equal(t.data, want[i])
        np.testing.assert_array_equal(
            flat.velocity, np.concatenate([v.reshape(-1) for v in vel]))

    def test_flat_step_equals_per_parameter_loop(self):
        # the same model's gradients, stepped by the flat buffers and by
        # the per-parameter loop; some experts get no gradient, and the
        # small clip norm clips some steps and not others
        ds = small_dataset(seed=2)
        spec = tiny_model_spec(variant="vmoe", e=8, k=1)
        flat_model, loop_model = (build_model(spec, Rng(4)) for _ in "ab")
        flat = FlatBuffers.bind(flat_model.params.values())
        state = {}
        cfg = TrainConfig(momentum=0.9, base_lr=0.1, clip_norm=3.0)
        clipped, ungraded = set(), 0
        for step in range(6):
            images = ds.train_x[4 * step:4 * step + 3]
            labels = ds.train_y[4 * step:4 * step + 3]
            flat.grads.fill(0.0)
            for mdl in (flat_model, loop_model):
                out = forward(mdl, images, Rng(1), train=True, step=step)
                member_avg_cross_entropy(out.member_probs, labels).backward()
            named = list(loop_model.params.items())
            ungraded += sum(p.grad is None for _, p in named)
            grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad
                     for n, p in named}
            gnorm = math.sqrt(sum(float(np.sum(g * g))
                                  for g in grads.values()))
            clipped.add(gnorm > cfg.clip_norm)
            sgd_step(flat, cfg, 0.1)
            sgd_step_loop(named, grads, state, cfg, 0.1)
            for name, p in named:
                p.grad = None
                got = flat_model.params[name].data
                assert got.tobytes() == p.data.tobytes(), (step, name)
        assert ungraded and clipped == {False, True}
        np.testing.assert_array_equal(
            flat.velocity,
            np.concatenate([state[n].reshape(-1) for n in flat_model.params]))

    def test_flat_step_equals_loop_on_large_arrays(self):
        # arrays long enough that the order of the norm's sums shows in
        # its bits, every step clipped
        gen = np.random.default_rng(9)
        shapes = [(300, 200), (7,), (64, 3, 5), (1,), (1000, 37)]
        tensors, flat = self.bind([gen.normal(size=s) for s in shapes])
        named = [(f"p{i}", Tensor(t.data.copy())) for i, t in
                 enumerate(tensors)]
        state = {}
        cfg = TrainConfig(momentum=0.9, base_lr=0.1, clip_norm=1.0)
        for step in range(4):
            grads = {n: gen.normal(size=p.data.shape) for n, p in named}
            for t, (n, _) in zip(tensors, named):
                t.grad[...] = grads[n]
            sgd_step(flat, cfg, 0.1)
            sgd_step_loop(named, grads, state, cfg, 0.1)
            for t, (n, p) in zip(tensors, named):
                assert t.data.tobytes() == p.data.tobytes(), (step, n)


class TestTrainLoop:
    def test_caller_arrays_untouched(self):
        ds = small_dataset(seed=4)
        spec = tiny_model_spec(variant="pbe", m=2)
        params = {n: t.data.copy()
                  for n, t in build_model(spec, Rng(2)).params.items()}
        kept = {n: a.copy() for n, a in params.items()}
        model = apply_checkpoint(build_model(spec, Rng(3)),
                                 Checkpoint(spec, params))
        assert all(t.data is params[n] for n, t in model.params.items())
        model, _ = train(model, ds, TrainConfig(steps=3, batch_size=16))
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, kept[name])
        assert any(not np.array_equal(t.data, kept[n])
                   for n, t in model.params.items())

    def test_one_step_tape_alive_at_a_time(self, monkeypatch):
        # weak references to the arrays of every tensor of step s's tape
        # (the parameters aside) must all be dead when step s+1's training
        # forward starts: nothing holds the last tape, and no cycle waits
        # for the collector, which is off in the loop
        ds = small_dataset(seed=4)
        model = build_model(tiny_model_spec(variant="pbe", m=2), Rng(2))
        params = {id(t) for t in model.params.values()}
        real = moelab.trainer.forward
        previous, alive = [], []

        def watched(mdl, images, rng, train=False, **kwargs):
            if not train:
                return real(mdl, images, rng, train=train, **kwargs)
            alive.append(sum(ref() is not None for ref in previous))
            previous.clear()
            out = real(mdl, images, rng, train=train, **kwargs)
            seen, stack = set(), [out.member_probs]
            while stack:
                t = stack.pop()
                if id(t) in seen or id(t) in params:
                    continue
                seen.add(id(t))
                previous.append(weakref.ref(t.data))
                stack.extend(t._parents)
            return out

        monkeypatch.setattr(moelab.trainer, "forward", watched)
        train(model, ds, TrainConfig(steps=4, batch_size=8, eval_every=1))
        # the walk saw the whole forward tape: pbe's row of TestTapeSize
        assert len(previous) >= TestTapeSize.NODES["pbe"][1]
        assert alive == [0] * 4
        assert all(p.grad is None for p in model.params.values())

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the bound rests on glibc malloc's dynamic "
                               "mmap and trim thresholds")
    @pytest.mark.parametrize("variant", ["be", "pbe"])
    def test_repeat_training_barely_faults(self, variant):
        # freed step memory stays mapped, so a second training of the same
        # shape faults in almost no pages: at the benchmark's model shape,
        # over a thousand without the raised malloc thresholds
        ds = small_dataset(seed=4)
        spec = moelab.model.preset("tiny", variant=variant, mlp_dim=128,
                                   e=16, m=2)
        cfg = TrainConfig(steps=12, batch_size=32, seed=1)
        train(build_model(spec, Rng(1)), ds, cfg)
        model = build_model(spec, Rng(1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, ds, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 200, faults

    def test_deterministic_checkpoints(self, tmp_path):
        ds = small_dataset(seed=4)
        cfg = TrainConfig(steps=6, batch_size=16, base_lr=0.05, seed=11)
        paths = []
        for run in range(2):
            model = build_model(tiny_model_spec(variant="vmoe"), Rng(11))
            model, _ = train(model, ds, cfg)
            p = tmp_path / f"run{run}.bin"
            save_checkpoint(checkpoint_from_model(model), p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_history_shape_and_eval_rows(self):
        ds = small_dataset(seed=5)
        cfg = TrainConfig(steps=6, batch_size=16, seed=3, eval_every=3)
        model = build_model(tiny_model_spec(), Rng(3))
        model, history = train(model, ds, cfg)
        assert len(history) == 6
        assert set(HISTORY_COLUMNS) <= set(history[0])
        assert all(math.isfinite(row["loss"]) for row in history)
        evald = [row for row in history if row["nll"] is not None]
        assert [row["step"] for row in evald] == [2, 5]

    def test_aux_loss_reduces_imbalance(self):
        ds = small_dataset(seed=6)
        outs = {}
        for w in (0.0, 0.1):
            model = build_model(tiny_model_spec(variant="vmoe", e=4, k=1),
                                Rng(8))
            cfg = TrainConfig(steps=40, batch_size=16, base_lr=0.05, seed=8,
                              loss=LossConfig(aux_weight=w))
            model, history = train(model, ds, cfg)
            assert all(math.isfinite(r["loss"]) for r in history)
            outs[w] = np.mean([r["aux"] for r in history[-5:]])
        # weighted runs keep the regularizer small; this also documents
        # that aux is reported as total - data (0 when unweighted)
        assert outs[0.0] == 0.0
        assert outs[0.1] >= 0.0

    def test_converges_on_easy_data(self):
        ds = small_dataset(seed=7, noise=0.25, n_train=128)
        model = build_model(tiny_model_spec(), Rng(5))
        cfg = TrainConfig(steps=120, batch_size=32, base_lr=0.05, seed=5)
        model, history = train(model, ds, cfg)
        out = forward(model, ds.train_x, Rng(99))
        pred = out.ensemble_probs.data.argmax(axis=1)
        train_err = 100.0 * np.mean(pred != ds.train_y)
        assert train_err < 5.0, train_err
        assert history[-1]["loss"] < history[0]["loss"]

    def test_divergence_guard_reports_step(self, monkeypatch):
        # probability clamping keeps the data loss bounded, so the guard is
        # exercised by injecting a non-finite loss at a known step
        ds = small_dataset(seed=8)
        model = build_model(tiny_model_spec(), Rng(6))
        cfg = TrainConfig(steps=30, batch_size=16, base_lr=0.1, seed=6)
        real = moelab.trainer.total_loss
        calls = {"n": 0}

        def poisoned(data, aux_states, aux_weight):
            s = calls["n"]
            calls["n"] += 1
            if s == 3:
                return Tensor(np.array(math.inf))
            return real(data, aux_states, aux_weight)

        monkeypatch.setattr(moelab.trainer, "total_loss", poisoned)
        with pytest.raises(DivergenceError) as info:
            train(model, ds, cfg)
        assert info.value.step == 3
        assert math.isinf(info.value.value)
        assert "step 3" in str(info.value)

    @pytest.mark.parametrize("diverge", [False, True])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_paused_in_loop_and_restored(self, enabled, diverge,
                                            monkeypatch):
        ds = small_dataset(seed=8)
        model = build_model(tiny_model_spec(), Rng(6))
        real = moelab.trainer.total_loss
        during = []

        def spy(data, aux_states, aux_weight):
            during.append(gc.isenabled())
            if diverge and len(during) == 2:
                return Tensor(np.array(math.nan))
            return real(data, aux_states, aux_weight)

        monkeypatch.setattr(moelab.trainer, "total_loss", spy)
        (gc.enable if enabled else gc.disable)()
        try:
            if diverge:
                with pytest.raises(DivergenceError):
                    train(model, ds, TrainConfig(steps=3, batch_size=8))
            else:
                train(model, ds, TrainConfig(steps=3, batch_size=8))
            after = gc.isenabled()
        finally:
            gc.enable()
        assert during == [False] * (2 if diverge else 3)
        assert after == enabled

    def test_nonfinite_activations_abort(self):
        # a genuinely blown-up model fails inside the forward pass, before
        # the loss is ever formed; the gate picks experts for its NaN rows
        # and the forward still aborts, in training and in evaluate
        ds = small_dataset(seed=8)
        cfg = TrainConfig(steps=5, batch_size=16, base_lr=0.1, seed=6)
        for variant in VARIANTS:
            model = build_model(tiny_model_spec(variant=variant, m=2), Rng(6))
            for p in model.params.values():
                p.data[:] = np.inf
            with pytest.raises(EvaluationError):
                train(model, ds, cfg)
            with pytest.raises(EvaluationError):
                evaluate(model, ds, Rng(6))

    def test_class_count_mismatch(self):
        ds = small_dataset(seed=9)
        model = build_model(tiny_model_spec(classes=7), Rng(0))
        with pytest.raises(ConfigError):
            train(model, ds, TrainConfig(steps=1, batch_size=4))

    def test_batch_larger_than_dataset(self):
        ds = small_dataset(seed=10, n_train=8)
        model = build_model(tiny_model_spec(), Rng(0))
        with pytest.raises(ConfigError):
            train(model, ds, TrainConfig(steps=1, batch_size=64))

    def test_mimo_ensemble_ce_rejected_before_any_step(self, monkeypatch):
        # MIMO's members carry different labels, so ensemble_ce is undefined
        def no_forward(*args, **kw):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(moelab.trainer, "forward", no_forward)
        model = build_model(tiny_model_spec(variant="mimo", m=2), Rng(0))
        cfg = TrainConfig(steps=1, batch_size=4,
                          loss=LossConfig(loss_mode="ensemble_ce"))
        with pytest.raises(ConfigError, match="ensemble_ce"):
            train(model, small_dataset(seed=11), cfg)

    def test_mimo_batch_repetitions_run(self):
        ds = small_dataset(seed=11)
        spec = tiny_model_spec(variant="mimo", m=2, batch_repetitions=2,
                               mimo_input_repetition_prob=0.5)
        model = build_model(spec, Rng(4))
        cfg = TrainConfig(steps=3, batch_size=8, seed=4)
        model, history = train(model, ds, cfg)
        assert len(history) == 3

    def test_history_csv(self, tmp_path):
        ds = small_dataset(seed=12)
        model = build_model(tiny_model_spec(), Rng(2))
        cfg = TrainConfig(steps=3, batch_size=8, seed=2)
        _, history = train(model, ds, cfg)
        path = tmp_path / "history.csv"
        history_to_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,aux,nll,error,ece,kl"
        assert len(lines) == 4
        # mid-training rows leave eval columns empty
        assert lines[1].split(",")[3] == ""


class TestTapeSize:
    """The tape nodes of one training step, split into the forward's (those
    the member probabilities reach) and the losses' (the rest of what the
    loss reaches), at the benchmark's model shape: tiny preset, mlp_dim 128,
    E = 16, batch 32.  The cross-entropy is one node, each MoE layer's Omega
    one more, and total_loss adds three: a change that regrows the losses,
    or adds forward nodes, must update this table on purpose."""

    NODES = {  # variant: (preset overrides, forward nodes, loss nodes)
        "vmoe": ({"k": 2, "capacity_ratio": 1.0}, 38, 6),
        "pbe": ({"k": 1, "m": 2}, 41, 6),
        "only_tiling": ({"k": 1, "m": 2}, 39, 6),
        "only_partitioning": ({"k": 1, "m": 2}, 40, 6),
        "multihead": ({"k": 2}, 40, 6),
        "vit": ({}, 34, 1),
        "be": ({"m": 2}, 35, 1),
        "mimo": ({"m": 2}, 35, 1),
    }

    @staticmethod
    def _nodes(root) -> int:
        seen, stack, count = set(), [root], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
        return count

    @pytest.mark.parametrize("variant", list(NODES))
    def test_nodes_per_training_step(self, variant):
        kw, forward_nodes, loss_nodes = self.NODES[variant]
        spec = moelab.model.preset("tiny", variant=variant, mlp_dim=128,
                                   e=16, **kw)
        kept = {}
        ce, total = moelab.trainer.member_avg_cross_entropy, \
            moelab.trainer.total_loss

        def keep_ce(member_probs, labels, **kwargs):
            kept["probs"] = member_probs
            return ce(member_probs, labels, **kwargs)

        def keep_total(*args):
            kept["loss"] = total(*args)
            return kept["loss"]

        with mock.patch.object(moelab.trainer, "member_avg_cross_entropy",
                               keep_ce), \
                mock.patch.object(moelab.trainer, "total_loss", keep_total):
            train(build_model(spec, Rng(0)), small_dataset(),
                  TrainConfig(steps=1, batch_size=32))
        forward_count = self._nodes(kept["probs"])
        assert (forward_count, self._nodes(kept["loss"]) - forward_count) \
            == (forward_nodes, loss_nodes)


class TestEvaluate:
    def test_report_fields(self):
        ds = small_dataset(seed=13)
        model = build_model(tiny_model_spec(variant="pbe", m=2, e=4, k=2),
                            Rng(7))
        rep = evaluate(model, ds, Rng(1000), flops_giga=1.25)
        assert isinstance(rep, EvalReport)
        assert rep.nll > 0
        assert 0 <= rep.error_pct <= 100
        assert rep.kl_diversity is not None
        assert rep.flops_train_giga == 1.25
        assert set(rep.ood) == {"test/ood", "test/shift"}
        for d in rep.ood.values():
            assert set(d) == {"auc_roc", "auc_pr", "fpr95"}

    def test_single_model_has_no_diversity(self):
        ds = small_dataset(seed=14)
        model = build_model(tiny_model_spec(), Rng(8))
        rep = evaluate(model, ds, Rng(1000))
        assert rep.kl_diversity is None

    def test_batching_invariant(self):
        ds = small_dataset(seed=15)
        model = build_model(tiny_model_spec(), Rng(9))
        a = evaluate(model, ds, Rng(1000), batch_size=7)
        b = evaluate(model, ds, Rng(1000), batch_size=32)
        assert a.nll == b.nll
        assert a.ece == b.ece
        assert a.ood == b.ood

    def test_deep_ensemble_dispatch(self):
        ds = small_dataset(seed=16)
        models = [build_model(tiny_model_spec(), Rng(20 + j))
                  for j in range(2)]
        rep = evaluate(None, ds, Rng(1000), models=models)
        assert rep.kl_diversity is not None
        singles = [evaluate(mm, ds, Rng(1000)).nll for mm in models]
        assert rep.nll <= np.mean(singles) + 1e-9

    def test_mc_dropout_dispatch(self):
        ds = small_dataset(seed=17)
        model = build_model(tiny_model_spec(dropout_rate=0.2), Rng(10))
        rep = evaluate(model, ds, Rng(1000), mc_samples=3)
        assert rep.kl_diversity is not None and rep.kl_diversity > 0

    def test_fewshot_probe_reported(self):
        ds = small_dataset(seed=18)
        model = build_model(tiny_model_spec(), Rng(11))
        rep = evaluate(model, ds, Rng(1000), fewshot_shots=(2,))
        assert set(rep.fewshot) == {2}
        assert 0 <= rep.fewshot[2] <= 100

    @pytest.mark.parametrize("protocol", ["single", "ensemble", "mc"])
    def test_fewshot_features_from_the_metrics_pass(self, protocol,
                                                    monkeypatch, tmp_path):
        ds = small_dataset(seed=20)
        spec = tiny_model_spec(variant="pbe", e=4, k=1, m=2,
                               dropout_rate=0.2)
        models = [build_model(spec, Rng(30 + j)) for j in range(2)]
        args = {"single": ((models[0],), {}),
                "ensemble": ((None,), {"models": models}),
                "mc": ((models[0],), {"mc_samples": 2})}[protocol]
        probed = models if protocol == "ensemble" else models[:1]
        # the probe's features from a deterministic pass of their own
        feats = [np.concatenate([forward(mm, ds.test_x[lo:lo + 16], Rng(1000),
                                         want_features=True).member_features
                                 for mm in probed], axis=0)
                 for lo in range(0, len(ds.test_y), 16)]
        features = np.concatenate(feats, axis=1)
        plain = evaluate(*args[0], ds, Rng(1000), batch_size=16, **args[1])
        want = dataclasses.replace(plain, fewshot={
            s: fewshot_probe(features, ds.test_y, s) for s in (1, 2)})

        # every worker appends its forwards' image counts to one file, so
        # the counts of forked helpers reach the test too
        images = tmp_path / "images"
        real = moelab.model.forward

        def counting(model, x, *a, **kw):
            with open(images, "a") as fh:
                fh.write(f"{len(x)}\n")
            return real(model, x, *a, **kw)

        monkeypatch.setattr(moelab.model, "forward", counting)
        monkeypatch.setattr(moelab.trainer, "forward", counting)
        got = evaluate(*args[0], ds, Rng(1000), batch_size=16,
                       fewshot_shots=(1, 2), **args[1])
        assert got.to_json() == want.to_json()
        n_eval = len(ds.test_y) + len(ds.ood_x) + len(ds.shift_x)
        # one metrics pass per member model or MC sample; MC dropout alone
        # adds a deterministic feature pass over the test split
        want_images = {"single": n_eval, "ensemble": 2 * n_eval,
                       "mc": 2 * n_eval + len(ds.test_y)}[protocol]
        assert sum(map(int, images.read_text().split())) == want_images

    def test_requires_exactly_one_model_argument(self):
        ds = small_dataset(seed=19)
        model = build_model(tiny_model_spec(), Rng(12))
        with pytest.raises(ConfigError):
            evaluate(None, ds, Rng(0))
        with pytest.raises(ConfigError):
            evaluate(model, ds, Rng(0), models=[model])

    @pytest.mark.parametrize("ensemble,kw,match", [
        (False, {"mc_samples": -2}, "mc_samples"),
        (True, {"mc_samples": 2}, "single model"),
        (True, {"mc_samples": 2, "fewshot_shots": (1,)}, "single model"),
        (False, {"fewshot_shots": (2, 0)}, "fewshot_shots"),
    ], ids=["negative_mc_samples", "mc_samples_with_models",
            "mc_samples_with_models_and_fewshot", "nonpositive_shots"])
    def test_rejects_bad_arguments_before_any_forward(self, ensemble, kw,
                                                      match, monkeypatch):
        ds = small_dataset(seed=19)
        model = build_model(tiny_model_spec(), Rng(12))
        first, extra = ((None,), {"models": [model, model]}) if ensemble \
            else ((model,), {})
        calls = []
        for owner in (moelab.trainer, moelab.model):
            monkeypatch.setattr(owner, "forward",
                                lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=match):
            evaluate(*first, ds, Rng(0), **extra, **kw)
        assert calls == []

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_nonpositive_batch_size(self, batch_size, monkeypatch):
        ds = small_dataset(seed=19)
        model = build_model(tiny_model_spec(), Rng(12))
        calls = []
        monkeypatch.setattr(moelab.trainer, "forward",
                            lambda *a, **kw: calls.append(a))
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(model, ds, Rng(0), batch_size=batch_size)
        assert calls == []


def eval_dataset():
    """150 rows per eval split: batches of 64 and 128 leave a ragged last
    batch."""
    spec = DatasetSpec(classes=4, image_size=8, channels=3, n_train=16,
                       n_val=8, n_test=150, noise_std=0.5, seed=21)
    return make_synthetic_dataset(spec)


EVAL_CASES = VARIANTS + ("deep_ensemble", "mc_dropout", "single+fewshot",
                         "deep_ensemble+fewshot", "mc_dropout+fewshot")


def eval_case(case):
    """(positional model argument, evaluate keywords) of an EVAL_CASES
    entry: a variant alone, or a protocol on pbe with dropout."""
    if case in VARIANTS:
        return build_model(tiny_model_spec(variant=case, m=2), Rng(40)), {}
    spec = tiny_model_spec(variant="pbe", m=2, dropout_rate=0.2)
    models = [build_model(spec, Rng(41 + j)) for j in range(2)]
    protocol, _, probe = case.partition("+")
    first, kw = {"deep_ensemble": (None, {"models": models}),
                 "mc_dropout": (models[0], {"mc_samples": 3}),
                 "single": (models[0], {})}[protocol]
    if probe:
        kw["fewshot_shots"] = (1, 2)
    return first, kw


def force_workers(monkeypatch, n):
    monkeypatch.setattr(moelab.trainer, "_eval_workers",
                        lambda jobs: min(n, jobs))


def assert_no_child():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_helpers(monkeypatch, act):
    """Patch trainer.forward so that act() runs first in a forked helper,
    never in the calling process."""
    caller, real = os.getpid(), moelab.trainer.forward

    def forward(*args, **kw):
        if os.getpid() != caller:
            act()
        return real(*args, **kw)

    monkeypatch.setattr(moelab.trainer, "forward", forward)


class TestParallelEvaluate:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", EVAL_CASES)
    def test_report_equals_the_one_thread_loop(self, case, workers,
                                               monkeypatch):
        ds = eval_dataset()
        first, kw = eval_case(case)
        force_workers(monkeypatch, workers)
        for batch_size in (64, 128):
            want = evaluate_reference(first, ds, Rng(1000),
                                      batch_size=batch_size, **kw)
            got = evaluate(first, ds, Rng(1000), batch_size=batch_size, **kw)
            assert got.to_json() == want.to_json()

    def test_each_rng_draws_on_one_thread(self, monkeypatch, tmp_path):
        # an Rng re-keys one owned Philox, so each process must draw on one
        # thread; the log crosses the fork as a file every worker appends to
        log = tmp_path / "draws"
        real = Rng._keyed

        def keyed(self, tags):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {threading.get_ident()}\n")
            return real(self, tags)

        monkeypatch.setattr(Rng, "_keyed", keyed)
        model = build_model(tiny_model_spec(dropout_rate=0.2), Rng(12))
        draws = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            log.write_text("")
            evaluate(model, eval_dataset(), Rng(1000), mc_samples=2,
                     batch_size=8)
            draws[workers] = [tuple(line.split())
                              for line in log.read_text().splitlines()]
        threads = {}
        for pid, ident in draws[2]:
            threads.setdefault(pid, set()).add(ident)
        assert len(threads) == 2 and str(os.getpid()) in threads
        assert all(len(idents) == 1 for idents in threads.values())
        # each job is scored once: as many draws as on one worker
        assert len(draws[2]) == len(draws[1])

    def test_helper_failure_is_raised_and_no_child_outlives_it(
            self, monkeypatch):
        ds = eval_dataset()
        model = build_model(tiny_model_spec(), Rng(12))
        force_workers(monkeypatch, 2)
        evaluate(model, ds, Rng(1000), batch_size=8)
        assert_no_child()

        def fail():
            raise EvaluationError("non-finite probabilities in a helper")

        in_helpers(monkeypatch, fail)
        with pytest.raises(EvaluationError,
                           match="^non-finite probabilities in a helper$"):
            evaluate(model, ds, Rng(1000), batch_size=8)
        assert_no_child()

    def test_helper_that_dies_unreported_is_named_and_reaped(
            self, monkeypatch):
        in_helpers(monkeypatch, lambda: os._exit(3))
        force_workers(monkeypatch, 2)
        model = build_model(tiny_model_spec(), Rng(12))
        with pytest.raises(RuntimeError, match="exited with status 3"):
            evaluate(model, eval_dataset(), Rng(1000), batch_size=8)
        assert_no_child()

    def test_unpicklable_helper_exception_arrives_as_runtime_error(
            self, monkeypatch):
        # DivergenceError(step, value) pickles, but its args are the message
        # alone, so unpickling calls DivergenceError(message) and fails
        def diverge():
            raise DivergenceError(3, float("nan"))

        in_helpers(monkeypatch, diverge)
        force_workers(monkeypatch, 2)
        model = build_model(tiny_model_spec(), Rng(12))
        with pytest.raises(RuntimeError) as err:
            evaluate(model, eval_dataset(), Rng(1000), batch_size=8)
        assert type(err.value) is RuntimeError
        assert "DivergenceError: non-finite loss nan at step 3" in \
            str(err.value)
        assert_no_child()

    def test_one_worker_forks_no_helper(self, monkeypatch):
        def no_fork():
            raise AssertionError("a helper was forked")

        force_workers(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        model = build_model(tiny_model_spec(), Rng(12))
        evaluate(model, eval_dataset(), Rng(1000))

    def test_two_workers_beside_a_live_blas_pool(self):
        # OpenBLAS's thread pool must survive the fork: a helper that
        # deadlocks on it hangs here until the timeout
        code = textwrap.dedent("""
            import numpy as np
            import moelab.trainer as trainer
            from moelab.dataset import DatasetSpec, make_synthetic_dataset
            from moelab.model import build_model, preset
            from moelab.rng import Rng
            a = np.ones((512, 512))
            a @ a  # starts the pool before the first fork
            ds = make_synthetic_dataset(DatasetSpec(
                classes=4, image_size=8, channels=3, n_train=16, n_val=8,
                n_test=300, noise_std=0.5, seed=21))
            model = build_model(preset("tiny", variant="vmoe", e=4, k=2),
                                Rng(12))
            reports = []
            for n in (2, 1):
                trainer._eval_workers = lambda jobs, n=n: min(n, jobs)
                reports.append(trainer.evaluate(model, ds, Rng(1000)))
            print(reports[0].to_json() == reports[1].to_json())
        """)
        src = str(Path(moelab.trainer.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # its helpers too
            proc.communicate()
            pytest.fail("a 2-worker evaluate beside a live BLAS pool hung")
        assert proc.returncode == 0, err
        assert out.split() == ["True"]

    def test_one_worker_without_fork_or_beside_a_thread(self, monkeypatch):
        workers = moelab.trainer._eval_workers
        cpus = len(os.sched_getaffinity(0))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert workers(10**6) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert workers(10**6) == cpus
        monkeypatch.delattr(os, "fork")
        assert workers(10**6) == 1

    def test_worker_count_is_usable_cpus_capped_by_jobs(self, monkeypatch):
        workers = moelab.trainer._eval_workers
        assert workers(1) == 1
        assert workers(10**6) == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers(10**6) == 1
