"""Model assembly: spec validation, block placement, the forward pass of
every variant, prediction wrappers, and checkpoints."""

import gc
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from moelab.checkpoint import (
    Checkpoint,
    apply_checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from moelab.dataset import DatasetSpec, make_synthetic_dataset
from moelab.errors import ConfigError
from moelab.layers import ExpertMLP, MoELayer
from moelab.losses import AuxLossState, member_avg_cross_entropy, total_loss
from moelab.metrics import MetricAccumulator
from moelab.model import (
    ModelSpec,
    build_model,
    ensemble_predict,
    forward,
    moe_block_positions,
    patchify,
    preset,
    PRESET_NAMES,
    VARIANTS,
)
from moelab.rng import Rng
from moelab.tensor import Tensor
from moelab.trainer import TrainConfig, train

from oracles import (assert_bitwise, attention_reference,
                     finite_difference_check, gate_reference)


def tiny_spec(**kw):
    base = dict(image_size=8, patch_size=4, hidden=32, mlp_dim=64, layers=4,
                heads=2, classes=4, e=4, k=1, m=1, last_n=2, variant="vit")
    base.update(kw)
    return ModelSpec(**base)


def images(gen, n=3, size=8, channels=3):
    return gen.uniform(-1.0, 1.0, size=(n, size, size, channels))


def metrics_of(member_probs, labels):
    acc = MetricAccumulator()
    acc.add_batch(member_probs, labels)
    return acc.result()


class TestModelSpec:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigError):
            tiny_spec(variant="resnet")

    def test_rejects_indivisible_patch(self):
        with pytest.raises(ConfigError):
            tiny_spec(image_size=10)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            tiny_spec(hidden=30, heads=4)

    def test_rejects_partition_mismatch(self):
        with pytest.raises(ConfigError):
            tiny_spec(variant="pbe", e=4, m=3)

    def test_rejects_k_over_block_size(self):
        with pytest.raises(ConfigError):
            tiny_spec(variant="pbe", e=4, m=2, k=3)

    def test_rejects_oversized_last_n(self):
        with pytest.raises(ConfigError):
            tiny_spec(variant="vmoe", layers=4, last_n=3)

    def test_contiguous_relaxes_last_n(self):
        spec = tiny_spec(variant="vmoe", layers=4, last_n=3,
                         contiguous_moe=True)
        assert spec.last_n == 3

    def test_be_last_n_must_fit_the_placement(self):
        # alternating placement from the top of 4 blocks has room for 2;
        # a third BE block would sit at index -1
        with pytest.raises(ConfigError, match="last_n"):
            tiny_spec(variant="be", m=2, last_n=3)
        spec = tiny_spec(variant="be", m=2, last_n=3, contiguous_moe=True)
        assert spec.mlp_kinds == ("dense", "be", "be", "be")

    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            tiny_spec(dropout_rate=1.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            tiny_spec(capacity_ratio=0.0)

    def test_rejects_bad_batch_repetitions(self):
        with pytest.raises(ConfigError):
            tiny_spec(batch_repetitions=0)

    def test_dict_round_trip(self):
        spec = tiny_spec(variant="pbe", m=2, k=2, e=4, noise_scale=0.3)
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_field(self):
        d = tiny_spec().to_dict()
        d["width"] = 7
        with pytest.raises(ConfigError):
            ModelSpec.from_dict(d)

    def test_default_noise_scale_is_inverse_e(self):
        assert tiny_spec(e=8).resolved_noise_scale() == 0.125
        assert tiny_spec(noise_scale=0.5).resolved_noise_scale() == 0.5

    def test_only_tiling_keeps_eval_noise(self):
        assert tiny_spec(variant="only_tiling", m=2).resolved_eval_noise()
        assert not tiny_spec(variant="vmoe").resolved_eval_noise()


class TestPresets:
    def test_size_table(self):
        for name, hidden, mlp, layers in (("S/32", 512, 2048, 8),
                                          ("B/32", 768, 3072, 12),
                                          ("L/16", 1024, 4096, 24),
                                          ("H/14", 1280, 5144, 32)):
            spec = preset(name)
            assert (spec.hidden, spec.mlp_dim, spec.layers) == \
                (hidden, mlp, layers)
        assert preset("H/14").last_n == 5
        assert preset("L/16").last_n == 2

    def test_tiny_defaults(self):
        spec = preset("tiny")
        assert (spec.classes, spec.e, spec.k) == (4, 4, 1)

    def test_heads_follow_hidden(self):
        for name in ("S/32", "B/32", "L/32", "H/14"):
            spec = preset(name)
            assert spec.heads == spec.hidden // 64

    def test_overrides(self):
        spec = preset("tiny", variant="pbe", m=2, k=2)
        assert (spec.variant, spec.m, spec.k) == ("pbe", 2, 2)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("XL/8")
        assert "tiny" in PRESET_NAMES


class TestBlockPlacement:
    def test_alternating_from_the_top(self):
        assert moe_block_positions(12, 2) == [9, 11]
        assert moe_block_positions(8, 2) == [5, 7]
        assert moe_block_positions(32, 5) == [23, 25, 27, 29, 31]
        assert moe_block_positions(4, 2) == [1, 3]

    def test_contiguous(self):
        assert moe_block_positions(12, 2, contiguous=True) == [10, 11]

    @pytest.mark.parametrize("variant,kw,kinds,tile_block", [
        ("vit", {}, ("dense",) * 4, None),
        ("mimo", {"m": 2}, ("dense",) * 4, None),
        ("vmoe", {}, ("dense", "moe", "dense", "moe"), None),
        ("only_tiling", {"m": 2}, ("dense", "moe", "dense", "moe"), 1),
        ("pbe", {"m": 2}, ("dense", "pbe", "dense", "pbe"), 1),
        ("pbe", {"m": 1}, ("dense", "pbe", "dense", "pbe"), None),
        ("only_partitioning", {"m": 2},
         ("dense", "only_partitioning", "dense", "only_partitioning"), None),
        ("multihead", {"k": 2}, ("dense", "moe", "dense", "multihead"), None),
        ("multihead", {"k": 2, "last_n": 1}, ("dense",) * 3 + ("multihead",),
         None),
        ("be", {"m": 2, "contiguous_moe": True},
         ("dense", "dense", "be", "be"), 2),
    ])
    def test_layout(self, variant, kw, kinds, tile_block):
        spec = tiny_spec(variant=variant, **kw)
        assert spec.mlp_kinds == kinds
        assert spec.tile_block == tile_block
        model = build_model(spec, Rng(0))
        modes = [getattr(b.mlp, "mode", None) for b in model.blocks]
        assert modes == [k if k not in ("dense", "be") else None
                         for k in kinds]
        # the MoELayer and RouterParams rules, which the records leave to
        # ModelSpec and build_model
        routers = spec.m if variant in ("pbe", "only_partitioning") else 1
        for layer in (b.mlp for b in model.blocks
                      if isinstance(b.mlp, MoELayer)):
            assert len(layer.experts) == spec.e
            assert [w.data.shape for w in layer.router.weights] == \
                [(spec.e // routers, spec.hidden)] * routers
            assert (layer.k, layer.dropout_rate) == (spec.k,
                                                     spec.dropout_rate)

    @staticmethod
    def params_table(mlps: dict) -> list:
        """Model.params names of a 4-block tiny model whose block i has the
        MLP names mlps.get(i), a dense MLP's by default."""
        attn = [f"attn.{w}{c}" for c in "qkvo" for w in "wb"]
        block = ["ln1.g", "ln1.b", *attn, "ln2.g", "ln2.b"]
        mlp = ["mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"]
        return ["embed.w", "embed.b", "cls", "pos"] + [
            f"blocks.{i}.{n}" for i in range(4)
            for n in block + mlps.get(i, mlp)] + \
            ["final_ln.g", "final_ln.b", "head.w", "head.b"]

    def test_params_table_order(self):
        model = build_model(tiny_spec(variant="pbe", m=2, last_n=1), Rng(0))
        moe = [f"mlp.experts.{e}.{w}" for e in range(4)
               for w in ("w1", "b1", "w2", "b2")] + \
            ["mlp.router.0.w", "mlp.router.1.w"]
        assert list(model.params) == self.params_table({3: moe})

    def test_be_params_table_order(self):
        # each BE dense layer makes its slow weight u, then every member's
        # r, then every member's s; the shared bias follows it
        model = build_model(tiny_spec(variant="be", m=3), Rng(0))
        be = [n for layer, bias in (("be1", "b1"), ("be2", "b2"))
              for n in [f"mlp.{layer}.u",
                        *(f"mlp.{layer}.r.{j}" for j in range(3)),
                        *(f"mlp.{layer}.s.{j}" for j in range(3)),
                        f"mlp.{bias}"]]
        assert list(model.params) == self.params_table({1: be, 3: be})

    def test_built_model_mlp_types(self):
        model = build_model(tiny_spec(variant="vmoe"), Rng(0))
        kinds = [type(b.mlp) for b in model.blocks]
        assert kinds == [ExpertMLP, MoELayer, ExpertMLP, MoELayer]

    def test_vit_has_no_moe(self):
        model = build_model(tiny_spec(variant="vit"), Rng(0))
        assert all(isinstance(b.mlp, ExpertMLP) for b in model.blocks)

    def test_be_blocks(self):
        model = build_model(tiny_spec(variant="be", m=2), Rng(0))
        assert all(isinstance(b.mlp, ExpertMLP) for b in model.blocks)
        # the BE blocks carry one (r1, s1, r2, s2) tuple per member
        p = model.params
        assert [b.mlp.members for b in model.blocks] == [
            None, [tuple(p[f"blocks.1.mlp.be{i}.{w}.{j}"]
                         for i in (1, 2) for w in "rs") for j in range(2)],
            None, [tuple(p[f"blocks.3.mlp.be{i}.{w}.{j}"]
                         for i in (1, 2) for w in "rs") for j in range(2)]]


class TestPatchify:
    def test_row_major_patch_order(self):
        img = np.arange(16.0).reshape(1, 4, 4, 1)
        out = patchify(img, 2)
        assert out.shape == (1, 4, 4)
        np.testing.assert_array_equal(out[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(out[0, 1], [2, 3, 6, 7])
        np.testing.assert_array_equal(out[0, 2], [8, 9, 12, 13])

    def test_channel_interleave(self):
        img = np.zeros((1, 2, 2, 2))
        img[0, 0, 0] = [7.0, 9.0]
        out = patchify(img, 2)
        np.testing.assert_array_equal(out[0, 0, :2], [7.0, 9.0])


class TestForwardContracts:
    @pytest.mark.parametrize("variant,kw", [
        ("vit", {}),
        ("vmoe", {}),
        ("pbe", {"m": 2, "k": 2}),
        ("only_tiling", {"m": 2}),
        ("only_partitioning", {"m": 2, "k": 2}),
        ("multihead", {"k": 2}),
        ("be", {"m": 2}),
        ("mimo", {"m": 2}),
    ])
    def test_probability_contract(self, variant, kw):
        gen = np.random.default_rng(0)
        spec = tiny_spec(variant=variant, **kw)
        model = build_model(spec, Rng(1))
        bundle = forward(model, images(gen), Rng(2))
        m, b, c = bundle.member_probs.data.shape
        assert m == spec.ensemble_size
        assert (b, c) == (3, 4)
        np.testing.assert_allclose(bundle.member_probs.data.sum(axis=-1),
                                   1.0, atol=1e-9)
        np.testing.assert_allclose(
            bundle.ensemble_probs.data,
            bundle.member_probs.data.mean(axis=0), atol=0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ensemble_mean_is_derived_off_the_tape(self, variant):
        # ensemble_probs is the member mean, computed where it is read: a
        # training forward records no node for it
        gen = np.random.default_rng(8)
        model = build_model(tiny_spec(variant=variant, e=4, m=2), Rng(6))
        x = images(gen, n=4)
        for train in (True, False):
            bundle = forward(model, x, Rng(7), train=train)
            ens = bundle.ensemble_probs
            assert ens._parents == () and not ens.requires_grad
            np.testing.assert_array_equal(
                ens.data, bundle.member_probs.data.mean(axis=0))

    @pytest.mark.parametrize("protocol", ["deep_ensemble", "mc_dropout"])
    def test_pooled_mean_is_derived(self, protocol):
        gen = np.random.default_rng(22)
        if protocol == "deep_ensemble":
            passes = [(build_model(tiny_spec(), Rng(23 + j)), None)
                      for j in range(3)]
        else:
            model = build_model(tiny_spec(dropout_rate=0.2), Rng(23))
            passes = [(model, s) for s in range(3)]
        bundle = ensemble_predict(passes, images(gen), Rng(0))
        np.testing.assert_array_equal(bundle.ensemble_probs.data,
                                      bundle.member_probs.data.mean(axis=0))

    def test_zero_head_gives_uniform(self):
        gen = np.random.default_rng(1)
        model = build_model(tiny_spec(), Rng(0))
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.0
        bundle = forward(model, images(gen), Rng(0))
        np.testing.assert_array_equal(bundle.ensemble_probs.data, 0.25)

    def test_eval_forward_deterministic(self):
        gen = np.random.default_rng(2)
        model = build_model(tiny_spec(variant="pbe", m=2), Rng(3))
        x = images(gen)
        a = forward(model, x, Rng(9)).member_probs.data
        b = forward(model, x, Rng(9)).member_probs.data
        np.testing.assert_array_equal(a, b)

    def test_channel_mismatch_rejected(self):
        model = build_model(tiny_spec(), Rng(0))
        with pytest.raises(ConfigError):
            forward(model, np.zeros((2, 8, 8, 4)), Rng(0))

    @pytest.mark.parametrize("shape", [(2, 16, 16, 3), (2, 8, 12, 3)])
    def test_image_size_mismatch_rejected(self, shape):
        model = build_model(tiny_spec(), Rng(0))
        with pytest.raises(ConfigError, match="8 pixels square"):
            forward(model, np.zeros(shape), Rng(0))

    @pytest.mark.parametrize("variant", ["vit", "vmoe"])
    def test_empty_batch_rejected(self, variant):
        model = build_model(tiny_spec(variant=variant), Rng(0))
        with pytest.raises(ConfigError, match="B >= 1"):
            forward(model, np.zeros((0, 8, 8, 3)), Rng(0))

    def test_want_features_shape(self):
        gen = np.random.default_rng(3)
        model = build_model(tiny_spec(variant="pbe", m=2), Rng(4))
        bundle = forward(model, images(gen), Rng(0), want_features=True)
        assert bundle.member_features.shape == (2, 3, 32)

    def test_decisions_cover_moe_blocks(self):
        gen = np.random.default_rng(4)
        model = build_model(tiny_spec(variant="vmoe", last_n=2), Rng(5))
        bundle = forward(model, images(gen), Rng(0))
        assert len(bundle.decisions) == 2

    def test_tape_freed_without_gc(self):
        # backward closures never hold their own output, so dropping the
        # loss and the bundle frees the tape by reference counting alone
        def live_tensors():
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        gen = np.random.default_rng(5)
        x, labels = images(gen, n=4), np.array([0, 1, 2, 3])
        gc.collect()
        before = live_tensors()
        gc.disable()
        try:
            model = build_model(tiny_spec(variant="pbe", e=4, m=2), Rng(6))
            bundle = forward(model, x, Rng(7), train=True, step=0)
            loss = member_avg_cross_entropy(bundle.member_probs, labels)
            loss.backward()
            del bundle, loss
            assert live_tensors() - before == len(model.params)
            # an eval forward builds no tape: nothing it returns has parents
            bundle = forward(model, x, Rng(7))
            assert not any(o._parents for o in gc.get_objects()
                           if isinstance(o, Tensor))
            del bundle
            assert live_tensors() - before == len(model.params)
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", ["vit", "pbe", "be", "mimo"])
    def test_eval_forward_has_no_tape(self, variant):
        gen = np.random.default_rng(5)
        x, labels = images(gen, n=4), np.array([0, 1, 2, 3])
        model = build_model(tiny_spec(variant=variant, e=4, m=2), Rng(6))
        bundle = forward(model, x, Rng(7))
        assert not bundle.member_probs.requires_grad
        loss = member_avg_cross_entropy(bundle.member_probs, labels)
        with pytest.raises(ValueError, match="no tape"):
            loss.backward()
        assert all(p.grad is None for p in model.params.values())
        taped = forward(model, x, Rng(7), train=True)
        assert taped.member_probs.requires_grad

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_mlp_is_one_tape_node(self, variant):
        # every MLP kind runs as one fused node: its first weight is a
        # parent of exactly one node of a training forward's tape
        model, nodes = self._train_tape(variant)
        first = {"dense": "w1", "be": "be1.u"}
        for i, kind in enumerate(model.spec.mlp_kinds):
            name = f"blocks.{i}.mlp.{first.get(kind, 'experts.0.w1')}"
            w = model.params[name]
            users = [n for n in nodes if any(p is w for p in n._parents)]
            assert len(users) == 1, (name, len(users))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stream_is_rows_by_hidden(self, variant):
        # the residual stream is one (rows, hidden) tensor from the stem to
        # the head: each layernorm, found as the one node whose parents
        # include its gain, reads a 2-D input
        model, nodes = self._train_tape(variant)
        names = [f"blocks.{i}.{ln}.g" for i in range(model.spec.layers)
                 for ln in ("ln1", "ln2")] + ["final_ln.g"]
        for name in names:
            g = model.params[name]
            [node] = [n for n in nodes if any(p is g for p in n._parents)]
            shape = node._parents[0].data.shape
            assert len(shape) == 2 and shape[1] == model.spec.hidden, \
                (name, shape)

    @staticmethod
    def _train_tape(variant):
        """A tiny model of variant and every node of one training forward's
        tape."""
        model = build_model(tiny_spec(variant=variant, e=4, m=2), Rng(6))
        bundle = forward(model, images(np.random.default_rng(5), n=4),
                         Rng(7), train=True)
        seen, stack, nodes = set(), [bundle.member_probs], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        return model, nodes


class TestStructuralEquivalences:
    def test_pbe_m1_checkpoint_matches_vmoe_bitwise(self):
        gen = np.random.default_rng(5)
        vmoe = build_model(tiny_spec(variant="vmoe", e=4, k=2), Rng(6))
        ckpt = checkpoint_from_model(vmoe)
        # at M=1, vmoe and pbe share every parameter name
        pbe = model_from_checkpoint(
            Checkpoint(replace(vmoe.spec, variant="pbe"), ckpt.params))
        vmoe_back = model_from_checkpoint(ckpt)
        x = images(gen)
        a = forward(vmoe_back, x, Rng(0)).member_probs.data
        b = forward(pbe, x, Rng(0)).member_probs.data
        np.testing.assert_array_equal(a, b)

    def test_symmetric_pbe_members_identical(self):
        spec = tiny_spec(variant="pbe", e=4, m=2, k=2, noise_scale=0.0)
        model = build_model(spec, Rng(7))
        # copy member 0's expert block and router into member 1
        for blk in model.blocks:
            if isinstance(blk.mlp, MoELayer):
                for e in range(2):
                    src, dst = blk.mlp.experts[e], blk.mlp.experts[e + 2]
                    for name in ("w1", "b1", "w2", "b2"):
                        getattr(dst, name).data = getattr(src, name).data.copy()
                blk.mlp.router.weights[1].data = \
                    blk.mlp.router.weights[0].data.copy()
        gen = np.random.default_rng(8)
        bundle = forward(model, images(gen), Rng(0))
        np.testing.assert_array_equal(bundle.member_probs.data[0],
                                      bundle.member_probs.data[1])
        np.testing.assert_array_equal(bundle.ensemble_probs.data,
                                      bundle.member_probs.data[0])

    def test_only_tiling_zero_noise_kl_is_zero(self):
        spec = tiny_spec(variant="only_tiling", m=2, noise_multiplier=0.0)
        model = build_model(spec, Rng(9))
        gen = np.random.default_rng(10)
        bundle = forward(model, images(gen), Rng(0))
        np.testing.assert_array_equal(bundle.member_probs.data[0],
                                      bundle.member_probs.data[1])
        kl = metrics_of(bundle.member_probs, np.zeros(3, int))["kl_diversity"]
        assert kl == 0.0

    def test_only_tiling_default_noise_breaks_symmetry(self):
        spec = tiny_spec(variant="only_tiling", m=2)
        model = build_model(spec, Rng(11))
        gen = np.random.default_rng(12)
        bundle = forward(model, images(gen), Rng(3))
        kl = metrics_of(bundle.member_probs, np.zeros(3, int))["kl_diversity"]
        assert kl > 0.0

    def test_single_expert_vmoe_equals_vit(self):
        spec_v = tiny_spec(variant="vit")
        spec_m = tiny_spec(variant="vmoe", e=1, k=1)
        vit = build_model(spec_v, Rng(13))
        vmoe = build_model(spec_m, Rng(13))
        for blk_v, blk_m in zip(vit.blocks, vmoe.blocks):
            if isinstance(blk_m.mlp, MoELayer):
                ex = blk_m.mlp.experts[0]
                for name in ("w1", "b1", "w2", "b2"):
                    getattr(ex, name).data = \
                        getattr(blk_v.mlp, name).data.copy()
        gen = np.random.default_rng(14)
        x = images(gen)
        a = forward(vit, x, Rng(0)).member_probs.data
        b = forward(vmoe, x, Rng(0)).member_probs.data
        np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("variant,kw", [
        ("pbe", {"m": 2, "k": 2}),
        ("only_tiling", {"m": 3}),
        ("be", {"m": 2}),
    ])
    def test_deferred_equals_naive(self, variant, kw, naive_forward):
        gen = np.random.default_rng(15)
        model = build_model(tiny_spec(variant=variant, **kw), Rng(16))
        x = images(gen, n=4)
        a = forward(model, x, Rng(1)).member_probs.data
        b = naive_forward(model, x, Rng(1)).member_probs.data
        np.testing.assert_array_equal(a, b)


class TestLayerNodesInTraining:
    """Six training steps with the attention and gate nodes equal, bit for
    bit, the same steps with the compositions of generic ops they replace
    patched in (oracles.attention_reference and gate_reference)."""

    CASES = {  # name: (variant, preset overrides)
        "vmoe": ("vmoe", {"k": 2, "capacity_ratio": 1.0}),
        "pbe": ("pbe", {"k": 1, "m": 2}),
        "pbe_m4": ("pbe", {"k": 2, "m": 4}),
        "only_tiling": ("only_tiling", {"k": 1, "m": 2}),
        "only_partitioning": ("only_partitioning", {"k": 1, "m": 2}),
        "only_partitioning_m4": ("only_partitioning", {"k": 1, "m": 4}),
        "multihead": ("multihead", {"k": 2}),
        "vit": ("vit", {}),
        "be": ("be", {"m": 2}),
        "mimo": ("mimo", {"m": 2}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_training_equals_composition(self, case):
        variant, kw = self.CASES[case]
        spec = preset("tiny", variant=variant, e=8, **kw)
        data = make_synthetic_dataset(DatasetSpec(
            classes=4, image_size=8, channels=3, n_train=64, n_val=16,
            n_test=16, noise_std=1.0, seed=3))
        config = TrainConfig(steps=6, batch_size=16, seed=5)
        got, got_hist = train(build_model(spec, Rng(1)), data, config)
        with mock.patch("moelab.model.attention", attention_reference), \
                mock.patch("moelab.layers.partitioned_gate", gate_reference):
            want, want_hist = train(build_model(spec, Rng(1)), data, config)
        assert [(r["loss"], r["aux"]) for r in got_hist] == \
            [(r["loss"], r["aux"]) for r in want_hist]
        for name, p in got.params.items():
            assert_bitwise(p.data, want.params[name].data)


class TestPrunedEvalForward:
    """An eval forward runs the last block's MLP on the class rows only.

    The full-row reference needs no copy of the old forward: with routing
    noise off, a train=True forward runs every row through every block,
    and an eval forward with mc_sample=-1 draws the dropout masks of the
    train forward at the same step.  only_tiling keeps its default noise,
    whose keyed draw train and eval share.  Batch 1 leaves a dense or BE
    GEMM with one row, and small batches leave (slot, expert) segments with
    one class row: both hold only if such a GEMM keeps its full-GEMM bits.
    """

    @pytest.mark.parametrize("variant,kw", [
        ("vit", {}),
        ("vmoe", {"k": 2, "capacity_ratio": 1.0}),
        ("vmoe", {"k": 3}),
        ("pbe", {"m": 2}),
        ("only_tiling", {"m": 2}),
        ("only_partitioning", {"e": 8, "k": 2, "m": 2}),
        ("multihead", {"k": 3}),
        ("be", {"m": 2}),
        ("be", {"m": 3}),
        ("mimo", {"m": 2}),
    ])
    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 64])
    def test_matches_full_row_reference(self, variant, kw, batch,
                                        naive_forward):
        gen = np.random.default_rng(batch)
        x = images(gen, n=batch)
        noise = {} if variant == "only_tiling" else {"noise_scale": 0.0}
        for rate in (0.0, 0.1):
            model = build_model(tiny_spec(variant=variant, dropout_rate=rate,
                                          **noise, **kw), Rng(batch))
            for p in model.params.values():  # leave the near-uniform init
                p.data += 0.3 * gen.standard_normal(p.data.shape)
            for tiling, run in (("deferred", forward),
                                ("naive", naive_forward)):
                ref = run(model, x, Rng(3), train=True, step=4,
                          want_features=True)
                got = run(model, x, Rng(3), step=4, mc_sample=-1,
                          want_features=True)
                for a, b in ((ref.member_probs.data, got.member_probs.data),
                             (ref.member_features, got.member_features)):
                    assert a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), (rate, tiling)
                assert len(ref.decisions) == len(got.decisions)
                for da, db in zip(ref.decisions, got.decisions):
                    np.testing.assert_array_equal(da.indices, db.indices)
                    np.testing.assert_array_equal(da.dropped_mask,
                                                  db.dropped_mask)


class TestMcDropout:
    def test_zero_rate_warns_and_members_match(self):
        gen = np.random.default_rng(16)
        model = build_model(tiny_spec(dropout_rate=0.0), Rng(17))
        with pytest.warns(UserWarning):
            bundle = ensemble_predict([(model, s) for s in range(3)],
                                      images(gen), Rng(0))
        np.testing.assert_array_equal(bundle.member_probs.data[0],
                                      bundle.member_probs.data[1])
        np.testing.assert_array_equal(bundle.member_probs.data[0],
                                      bundle.member_probs.data[2])

    def test_single_sample_equals_stochastic_forward(self):
        gen = np.random.default_rng(17)
        model = build_model(tiny_spec(dropout_rate=0.2), Rng(18))
        x = images(gen)
        bundle = ensemble_predict([(model, 0)], x, Rng(5))
        single = forward(model, x, Rng(5), mc_sample=0)
        np.testing.assert_array_equal(bundle.member_probs.data[0],
                                      single.ensemble_probs.data)

    def test_reproducible_and_diverse(self):
        gen = np.random.default_rng(18)
        model = build_model(tiny_spec(dropout_rate=0.3), Rng(19))
        x = images(gen)
        passes = [(model, s) for s in range(4)]
        a = ensemble_predict(passes, x, Rng(7)).member_probs.data
        b = ensemble_predict(passes, x, Rng(7)).member_probs.data
        np.testing.assert_array_equal(a, b)
        assert np.abs(a[0] - a[1]).max() > 0


class TestDeepEnsemble:
    def test_identical_models_collapse(self):
        gen = np.random.default_rng(19)
        model = build_model(tiny_spec(), Rng(20))
        x = images(gen)
        bundle = ensemble_predict([(model, None)] * 2, x, Rng(0))
        single = forward(model, x, Rng(0))
        np.testing.assert_array_equal(bundle.ensemble_probs.data,
                                      single.ensemble_probs.data)

    def test_mean_pooling(self):
        gen = np.random.default_rng(20)
        models = [build_model(tiny_spec(), Rng(21 + j)) for j in range(3)]
        x = images(gen)
        bundle = ensemble_predict([(mm, None) for mm in models], x,
                                  Rng(0))
        singles = [forward(mm, x, Rng(0)).ensemble_probs.data for mm in models]
        np.testing.assert_allclose(bundle.ensemble_probs.data,
                                   np.mean(singles, axis=0), atol=1e-15)

    def test_ensemble_nll_never_above_member_mean(self):
        gen = np.random.default_rng(21)
        models = [build_model(tiny_spec(), Rng(30 + j)) for j in range(3)]
        x = images(gen, n=16)
        labels = gen.integers(0, 4, size=16)
        bundle = ensemble_predict([(mm, None) for mm in models], x,
                                  Rng(0))
        out = metrics_of(bundle.member_probs, labels)
        assert out["nll"] <= out["member_nll"] + 1e-12

    def test_rejects_empty_list(self):
        # no models, and zero MC-dropout draws of a model, are both no passes
        with pytest.raises(ConfigError):
            ensemble_predict([], np.zeros((1, 8, 8, 3)), Rng(0))


class TestMimo:
    def test_auto_channel_tiling(self):
        gen = np.random.default_rng(22)
        model = build_model(tiny_spec(variant="mimo", m=2), Rng(23))
        x = images(gen)
        a = forward(model, x, Rng(0)).member_probs.data
        b = forward(model, np.tile(x, (1, 1, 1, 2)), Rng(0)).member_probs.data
        np.testing.assert_array_equal(a, b)

    def test_head_width(self):
        model = build_model(tiny_spec(variant="mimo", m=3), Rng(24))
        assert model.params["head.w"].data.shape == (32, 12)

    def test_rejects_wrong_channel_count(self):
        model = build_model(tiny_spec(variant="mimo", m=2), Rng(25))
        with pytest.raises(ConfigError):
            forward(model, np.zeros((1, 8, 8, 5)), Rng(0))


class TestCheckpoints:
    def test_file_round_trip_bit_exact(self, tmp_path):
        model = build_model(tiny_spec(variant="pbe", m=2, k=2), Rng(26))
        ckpt = checkpoint_from_model(model)
        path = tmp_path / "model.bin"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.spec == ckpt.spec
        assert set(back.params) == set(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(back.params[name],
                                          ckpt.params[name])

    def test_serialization_is_canonical(self, tmp_path):
        model = build_model(tiny_spec(), Rng(27))
        ckpt = checkpoint_from_model(model)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(tiny_spec(), Rng(28))
        path = tmp_path / "model.bin"
        save_checkpoint(checkpoint_from_model(model), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_failed_save_keeps_old_file(self, tmp_path):
        ckpt = checkpoint_from_model(build_model(tiny_spec(), Rng(31)))
        path = tmp_path / "model.bin"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()
        # sorted after every good entry, so the save fails partway through
        bad = Checkpoint(ckpt.spec, dict(ckpt.params, zz=np.array(["x"])))
        with pytest.raises(ValueError):
            save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        back = load_checkpoint(path)
        for name in ckpt.params:
            np.testing.assert_array_equal(back.params[name],
                                          ckpt.params[name])

    def test_corrupt_files_raise_config_error(self, tmp_path):
        spec = ModelSpec(image_size=4, patch_size=4, hidden=4, mlp_dim=4,
                         layers=1, heads=1, classes=2, e=2, k=1, m=2,
                         last_n=1, variant="pbe")
        path = tmp_path / "model.bin"
        save_checkpoint(checkpoint_from_model(build_model(spec, Rng(32))),
                        path)
        raw = path.read_bytes()
        body = 16 + struct.unpack_from("<Q", raw, 8)[0]
        corrupt = [raw[:n] for n in range(body)]
        corrupt += [raw[:n] for n in range(body, len(raw), 7)]
        corrupt += [raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
                    for i in range(body) for mask in (0x01, 0x04, 0x80)]
        rejected = 0
        for data in corrupt:
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except ConfigError:
                rejected += 1
        assert rejected > len(corrupt) // 2

    def test_header_version_must_match_prefix(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(checkpoint_from_model(
            build_model(tiny_spec(variant="vmoe"), Rng(33))), path)
        raw = path.read_bytes()
        assert raw.count(b'"format_version":1') == 1
        path.write_bytes(raw.replace(b'"format_version":1',
                                     b'"format_version":7'))
        with pytest.raises(ConfigError, match="format version 7"):
            load_checkpoint(path)

    def test_apply_rejects_mismatched_names(self):
        a = build_model(tiny_spec(variant="vit"), Rng(29))
        b = build_model(tiny_spec(variant="vmoe"), Rng(29))
        with pytest.raises(ConfigError):
            apply_checkpoint(a, checkpoint_from_model(b))


class TestFullModelGradient:
    def test_training_loss_gradcheck(self):
        spec = ModelSpec(image_size=2, patch_size=1, hidden=4, mlp_dim=4,
                         layers=1, heads=2, classes=2, e=2, k=1, m=1,
                         last_n=1, variant="vmoe", noise_scale=0.0,
                         dropout_rate=0.1)
        model = build_model(spec, Rng(49))
        gen = np.random.default_rng(50)
        x = gen.uniform(-1, 1, size=(2, 2, 2, 3))
        labels = np.array([0, 1])
        rng = Rng(51)

        def f():
            bundle = forward(model, x, rng, train=True, step=0)
            data = member_avg_cross_entropy(bundle.member_probs, labels)
            aux = [AuxLossState.from_decision(d) for d in bundle.decisions]
            return total_loss(data, aux, 0.1)

        err = finite_difference_check(f, list(model.params.values()))
        assert err < 1e-4, f"max rel err {err:.3e}"
