"""Objective terms: member-averaged cross-entropy, the two balance
regularizers, their per-block average, and the weighted total.

The cross-entropy and each layer's Omega are one tape node each; the
compositions of generic ops they replace (tests/oracles.py) pin down the
two balance terms' arithmetic, and the nodes must equal them bit for bit,
in value and in every gradient, also over whole training runs."""

import math
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest

import moelab.losses
import moelab.trainer
from moelab.dataset import DatasetSpec, make_synthetic_dataset
from moelab.losses import (
    AuxLossState,
    LossConfig,
    member_avg_cross_entropy,
    omega_partition,
    total_loss,
)
from moelab.model import build_model, preset
from moelab.rng import Rng
from moelab.tensor import Tensor, mul, reshape, softmax, take_rows, transpose
from moelab.trainer import TrainConfig, train

from oracles import (assert_bitwise, cross_entropy_reference,
                     finite_difference_check, importance_loss, load_loss,
                     matmul, omega_partition_reference)


class TestMemberAvgCrossEntropy:
    def test_single_member_is_plain_ce(self):
        probs = Tensor(np.array([[[0.9, 0.1], [0.2, 0.8]]]))
        loss = member_avg_cross_entropy(probs, np.array([0, 1]))
        expected = -(math.log(0.9) + math.log(0.8)) / 2
        np.testing.assert_allclose(loss.data, expected, atol=1e-12)

    def test_uniform_members_give_log_c(self):
        for c in (2, 5, 10):
            probs = Tensor(np.full((3, 4, c), 1.0 / c))
            loss = member_avg_cross_entropy(probs, np.zeros(4, dtype=int))
            np.testing.assert_allclose(loss.data, math.log(c), atol=1e-12)

    def test_two_member_hand_example(self):
        probs = Tensor(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
        labels = np.array([0])
        avg = member_avg_cross_entropy(probs, labels)
        ens = member_avg_cross_entropy(probs, labels, mode="ensemble_ce")
        np.testing.assert_allclose(avg.data, 0.8369, atol=1e-4)
        np.testing.assert_allclose(ens.data, 0.6931, atol=1e-4)
        np.testing.assert_allclose(avg.data, -(math.log(0.75) + math.log(0.25)) / 2,
                                   atol=1e-12)
        np.testing.assert_allclose(ens.data, math.log(2.0), atol=1e-12)

    def test_member_avg_dominates_ensemble_ce(self):
        # Jensen: -mean log p >= -log mean p
        gen = np.random.default_rng(0)
        for _ in range(50):
            m = int(gen.integers(1, 5))
            b = int(gen.integers(1, 6))
            c = int(gen.integers(2, 7))
            raw = gen.uniform(0.05, 1.0, size=(m, b, c))
            probs = Tensor(raw / raw.sum(axis=-1, keepdims=True))
            labels = gen.integers(0, c, size=b)
            avg = member_avg_cross_entropy(probs, labels).data
            ens = member_avg_cross_entropy(probs, labels,
                                           mode="ensemble_ce").data
            assert avg >= ens - 1e-12

    def test_zero_probability_clamped_with_warning(self):
        probs = Tensor(np.array([[[0.0, 1.0]]]))
        with pytest.warns(UserWarning):
            loss = member_avg_cross_entropy(probs, np.array([0]))
        np.testing.assert_allclose(loss.data, -math.log(1e-12))

    def test_per_member_labels(self):
        # (M, B) labels: each member scored against its own targets
        probs = Tensor(np.array([[[0.9, 0.1]], [[0.9, 0.1]]]))
        labels = np.array([[0], [1]])
        loss = member_avg_cross_entropy(probs, labels)
        expected = -(math.log(0.9) + math.log(0.1)) / 2
        np.testing.assert_allclose(loss.data, expected, atol=1e-12)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.aux_weight == 0.1
        assert cfg.loss_mode == "member_avg"

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            LossConfig(aux_weight=-0.1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            LossConfig(loss_mode="hinge")


class TestImportanceLoss:
    """The importance term of the reference composition, which Omega's node
    equals bitwise (TestFusedNodes)."""

    def test_balanced_is_zero(self):
        sm = Tensor(np.full((6, 4), 0.25))
        np.testing.assert_allclose(importance_loss(sm).data, 0.0, atol=1e-15)

    def test_hand_example(self):
        # importances [3, 1]: mean 2, population var 1, CV^2 = 1/4
        sm = Tensor(np.array([[0.75, 0.25]] * 4))
        np.testing.assert_allclose(importance_loss(sm).data, 0.25, atol=1e-12)

    def test_batch_duplication_invariant(self):
        gen = np.random.default_rng(1)
        raw = gen.uniform(size=(5, 3))
        sm = raw / raw.sum(axis=1, keepdims=True)
        a = importance_loss(Tensor(sm)).data
        b = importance_loss(Tensor(np.vstack([sm, sm]))).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nonnegative(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            raw = gen.uniform(size=(4, 5))
            sm = raw / raw.sum(axis=1, keepdims=True)
            assert importance_loss(Tensor(sm)).data >= 0.0


class TestLoadLoss:
    """The load term of the reference composition, which Omega's node
    equals bitwise (TestFusedNodes)."""

    def test_identical_logits_balanced(self):
        clean = Tensor(np.zeros((5, 3)))
        noisy = np.zeros((5, 3))
        loss = load_loss(clean, noisy, sigma=0.5, k=1)
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-15)

    def test_single_token_cdf_limit(self):
        # clean [delta, -delta] with delta >> sigma: loads -> [1, 0], CV^2 -> 1
        delta = 50.0
        clean = Tensor(np.array([[delta, -delta]]))
        noisy = np.array([[delta, -delta]])
        loss = load_loss(clean, noisy, sigma=1.0, k=1)
        np.testing.assert_allclose(loss.data, 1.0, atol=1e-9)

    def test_k_equals_e_is_zero(self):
        gen = np.random.default_rng(3)
        clean = Tensor(gen.normal(size=(4, 3)))
        loss = load_loss(clean, clean.data.copy(), sigma=0.5, k=3)
        assert loss.data == 0.0

    def test_sigma_zero_hard_counts(self):
        noisy = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss = load_loss(Tensor(noisy), noisy, sigma=0.0, k=1)
        # counts [2, 0]: mean 1, var 1, CV^2 = 1
        np.testing.assert_allclose(loss.data, 1.0, atol=1e-12)

    def test_batch_duplication_invariant(self):
        gen = np.random.default_rng(4)
        clean = gen.normal(size=(6, 4))
        noisy = clean + 0.3 * gen.normal(size=(6, 4))
        a = load_loss(Tensor(clean), noisy, sigma=0.3, k=2).data
        b = load_loss(Tensor(np.vstack([clean, clean])),
                      np.vstack([noisy, noisy]), sigma=0.3, k=2).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nonnegative(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            clean = gen.normal(size=(5, 4))
            noisy = clean + 0.25 * gen.normal(size=(5, 4))
            assert load_loss(Tensor(clean), noisy, 0.25, 2).data >= 0.0


def make_aux(gen, m, b, e, sigma, k):
    members = []
    for _ in range(m):
        clean = Tensor(gen.normal(size=(b, e)))
        noisy = clean.data + sigma * gen.normal(size=(b, e))
        members.append((clean, noisy))
    return AuxLossState(members=members, sigma=sigma, k=k)


class TestOmegaPartition:
    def test_single_block_equals_unsliced(self):
        gen = np.random.default_rng(6)
        aux = make_aux(gen, m=1, b=5, e=4, sigma=0.3, k=2)
        clean, noisy = aux.members[0]
        direct = 0.5 * (importance_loss(softmax(clean, axis=-1)).data
                        + load_loss(clean, noisy, 0.3, 2).data)
        np.testing.assert_array_equal(omega_partition(aux).data, direct)

    def test_mean_over_blocks(self):
        gen = np.random.default_rng(7)
        aux = make_aux(gen, m=3, b=4, e=3, sigma=0.25, k=1)
        per_block = []
        for clean, noisy in aux.members:
            om = 0.5 * (importance_loss(softmax(clean, axis=-1)).data
                        + load_loss(clean, noisy, 0.25, 1).data)
            per_block.append(om)
        np.testing.assert_allclose(omega_partition(aux).data,
                                   np.mean(per_block), atol=1e-15)

    def test_balanced_blocks_are_zero(self):
        clean = Tensor(np.zeros((4, 3)))
        aux = AuxLossState(members=[(clean, np.zeros((4, 3)))] * 2,
                           sigma=0.5, k=1)
        np.testing.assert_allclose(omega_partition(aux).data, 0.0, atol=1e-15)


class TestTotalLoss:
    def test_zero_weight_returns_data_loss(self):
        gen = np.random.default_rng(8)
        data = Tensor(0.612)
        aux = [make_aux(gen, 2, 3, 4, 0.3, 1)]
        assert total_loss(data, aux, 0.0) is data

    def test_no_aux_states_returns_data_loss(self):
        data = Tensor(0.7)
        assert total_loss(data, [], 0.1) is data

    def test_arithmetic(self):
        gen = np.random.default_rng(9)
        data = Tensor(0.612)
        states = [make_aux(gen, 1, 4, 3, 0.25, 1),
                  make_aux(gen, 2, 4, 4, 0.25, 2)]
        omegas = [omega_partition(s).data for s in states]
        total = total_loss(data, states, 0.1)
        np.testing.assert_allclose(total.data,
                                   0.612 + 0.1 * np.mean(omegas), atol=1e-12)

    def test_example_weighting(self):
        # data 0.612 with mean omega 0.05 at weight 0.1 gives 0.617
        data = 0.612
        assert abs(data + 0.1 * 0.05 - 0.617) < 1e-12


class TestGradients:
    def test_total_loss_gradcheck(self):
        gen = np.random.default_rng(10)
        b, d, e, c = 4, 3, 4, 3
        h = Tensor(gen.normal(size=(b, d)), requires_grad=True)
        w = Tensor(gen.normal(size=(e, d)), requires_grad=True)
        head = Tensor(gen.normal(size=(d, c)), requires_grad=True)
        labels = gen.integers(0, c, size=b)
        sigma = 0.3
        # the load estimator treats the realized noisy draw as a constant
        # threshold, so the frozen-noise check holds it fixed
        noisy = h.data @ w.data.T + sigma * gen.normal(size=(b, e))

        def f():
            clean = matmul(h, transpose(w, (1, 0)))
            aux = AuxLossState(members=[(clean, noisy)], sigma=sigma, k=2)
            probs = reshape(softmax(matmul(h, head), axis=-1), (1, b, c))
            data = member_avg_cross_entropy(probs, labels)
            return total_loss(data, [aux], 0.1)

        err = finite_difference_check(f, [h, w, head])
        assert err < 1e-4, f"max rel err {err:.3e}"

    def test_importance_gradcheck(self):
        # K = E: the load term is a constant 0, so Omega's node is half the
        # importance CV^2
        gen = np.random.default_rng(11)
        logits = Tensor(gen.normal(size=(5, 3)), requires_grad=True)

        def f():
            aux = AuxLossState(members=[(logits, logits.data.copy())],
                               sigma=0.3, k=3)
            return omega_partition(aux)

        err = finite_difference_check(f, [logits])
        assert err < 1e-5

    def test_load_gradcheck(self):
        gen = np.random.default_rng(12)
        clean = Tensor(gen.normal(size=(5, 4)), requires_grad=True)
        noisy = clean.data + 0.3 * gen.normal(size=(5, 4))

        def f():
            aux = AuxLossState(members=[(clean, noisy)], sigma=0.3, k=2)
            return omega_partition(aux)

        err = finite_difference_check(f, [clean])
        assert err < 1e-5


class TestFusedNodes:
    """member_avg_cross_entropy and omega_partition against the
    compositions they replace: values and every gradient bit for bit,
    with an upstream gradient other than 1 and the logits computed from
    shared parameters, so that gradients also meet upstream."""

    # (M router blocks, rows per block, experts per block, K, sigma,
    # logit scale, tiled rows)
    OMEGA = {
        "m1": (1, 6, 4, 2, 0.3, 1.0, True),
        "m2_tiled": (2, 5, 4, 1, 0.25, 1.0, True),
        "m2_untiled": (2, 5, 4, 1, 0.25, 1.0, False),
        "m4": (4, 3, 3, 2, 0.5, 1.0, True),
        "sigma0": (2, 6, 4, 2, 0.0, 1.0, True),
        "k_eq_e": (2, 4, 3, 3, 0.3, 1.0, True),
        "one_expert": (1, 4, 1, 1, 0.3, 1.0, True),
        "tiny_logits": (2, 6, 4, 1, 0.3, 1e-7, False),
        "large_logits": (2, 6, 4, 2, 0.3, 40.0, True),
        "one_row": (2, 1, 4, 1, 0.3, 1.0, True),
    }

    def _omega(self, fn, case, layers=1):
        m, b, eb, k, sigma, scale, tiled = self.OMEGA[case]
        gen = np.random.default_rng(zlib.crc32(case.encode()))
        n = m * b if tiled else b
        h = Tensor(scale * gen.normal(size=(n, 3)), requires_grad=True)
        params = [h]
        states = []
        for _ in range(layers):
            members = []
            for mm in range(m):
                w = Tensor(gen.normal(size=(eb, 3)), requires_grad=True)
                params.append(w)
                h_m = take_rows(h, np.arange(mm * b, (mm + 1) * b)) \
                    if tiled else h
                clean = matmul(h_m, transpose(w, (1, 0)))
                noisy = clean.data + sigma * gen.normal(size=(b, eb))
                members.append((clean, noisy))
            states.append(AuxLossState(members=members, sigma=sigma, k=k))
        if layers == 1:
            out = fn(states[0])
        else:  # total_loss calls its module's omega_partition
            with mock.patch.object(moelab.losses, "omega_partition", fn):
                out = total_loss(Tensor(0.25), states, 0.3)
        mul(out, Tensor(-1.7)).backward()
        return out, params

    @pytest.mark.parametrize("case", list(OMEGA))
    def test_omega_equals_composition(self, case):
        got, got_params = self._omega(omega_partition, case)
        want, want_params = self._omega(omega_partition_reference, case)
        assert_bitwise(got.data, want.data)
        for g, w in zip(got_params, want_params):
            assert_bitwise(g.grad, w.grad)
        assert len(got._parents) == self.OMEGA[case][0]

    @pytest.mark.parametrize("case", ["m2_tiled", "sigma0", "k_eq_e"])
    def test_total_loss_equals_composition(self, case):
        got, got_params = self._omega(omega_partition, case, layers=2)
        want, want_params = self._omega(omega_partition_reference, case,
                                        layers=2)
        assert_bitwise(got.data, want.data)
        for g, w in zip(got_params, want_params):
            assert_bitwise(g.grad, w.grad)

    # (M, rows, classes, mode, per-member labels, zeroed probabilities)
    CE = {
        "m1": (1, 5, 3, "member_avg", False, False),
        "m2": (2, 4, 3, "member_avg", False, False),
        "m4": (4, 3, 5, "member_avg", False, False),
        "m2_member_labels": (2, 4, 3, "member_avg", True, False),
        "m4_member_labels": (4, 3, 3, "member_avg", True, False),
        "ensemble_m2": (2, 4, 3, "ensemble_ce", False, False),
        "ensemble_m4": (4, 5, 4, "ensemble_ce", False, False),
        "sub_floor": (2, 4, 3, "member_avg", True, True),
        "sub_floor_ensemble": (2, 4, 3, "ensemble_ce", False, True),
    }

    def _ce(self, fn, case):
        m, b, c, mode, per_member, zeroed = self.CE[case]
        gen = np.random.default_rng(zlib.crc32(case.encode()))
        probs = softmax(Tensor(4.0 * gen.normal(size=(m, b, c)))).data
        labels = gen.integers(0, c, size=(m, b) if per_member else b)
        if zeroed:  # every member puts 0 on the first row's label
            for mm in range(m):
                probs[mm, 0, labels[mm, 0] if per_member else labels[0]] = 0.0
        probs = Tensor(probs, requires_grad=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(probs, labels, mode=mode)
        assert len(caught) == int(zeroed)
        mul(out, Tensor(0.6)).backward()
        return out, probs

    @pytest.mark.parametrize("case", list(CE))
    def test_cross_entropy_equals_composition(self, case):
        got, got_probs = self._ce(member_avg_cross_entropy, case)
        want, want_probs = self._ce(cross_entropy_reference, case)
        assert_bitwise(got.data, want.data)
        assert_bitwise(got_probs.grad, want_probs.grad)
        assert len(got._parents) == 1

    def test_inputs_untouched(self):
        gen = np.random.default_rng(40)
        clean = Tensor(gen.normal(size=(6, 4)), requires_grad=True)
        noisy = clean.data + 0.3 * gen.normal(size=(6, 4))
        probs = Tensor(np.full((2, 6, 4), 0.25), requires_grad=True)
        before = [clean.data.copy(), noisy.copy(), probs.data.copy()]
        aux = AuxLossState(members=[(clean, noisy)], sigma=0.3, k=2)
        labels = np.zeros(6, dtype=int)
        for mode in ("member_avg", "ensemble_ce"):
            total_loss(member_avg_cross_entropy(probs, labels, mode=mode),
                       [aux], 0.1).backward()
        for arr, want in zip((clean.data, noisy, probs.data), before):
            np.testing.assert_array_equal(arr, want)

    # (variant, preset overrides, loss mode): every routed mode, noise off,
    # K = E, both loss modes and the dense variants
    TRAIN = {
        "vmoe_capacity": ("vmoe", {"k": 2, "capacity_ratio": 1.0},
                          "member_avg"),
        "vmoe_sigma0": ("vmoe", {"k": 2, "noise_multiplier": 0.0},
                        "member_avg"),
        "vmoe_k_eq_e": ("vmoe", {"k": 8}, "member_avg"),
        "pbe": ("pbe", {"k": 1, "m": 2}, "member_avg"),
        "pbe_ensemble_ce": ("pbe", {"k": 1, "m": 2}, "ensemble_ce"),
        "pbe_k2_m4": ("pbe", {"k": 2, "m": 4}, "member_avg"),
        "only_tiling": ("only_tiling", {"k": 1, "m": 2}, "member_avg"),
        "only_partitioning": ("only_partitioning", {"k": 1, "m": 2},
                              "member_avg"),
        "multihead": ("multihead", {"k": 2}, "member_avg"),
        "vit": ("vit", {}, "member_avg"),
        "be": ("be", {"m": 2}, "member_avg"),
        "mimo": ("mimo", {"m": 2}, "member_avg"),
    }

    @pytest.mark.parametrize("case", list(TRAIN))
    def test_training_equals_composition(self, case):
        variant, kw, mode = self.TRAIN[case]
        spec = preset("tiny", variant=variant, e=8, **kw)
        data = make_synthetic_dataset(DatasetSpec(
            classes=4, image_size=8, channels=3, n_train=64, n_val=16,
            n_test=16, noise_std=1.0, seed=3))
        config = TrainConfig(steps=6, batch_size=16, seed=5,
                             loss=LossConfig(loss_mode=mode))
        got, got_hist = train(build_model(spec, Rng(1)), data, config)
        with mock.patch.object(moelab.losses, "omega_partition",
                               omega_partition_reference), \
                mock.patch.object(moelab.trainer, "member_avg_cross_entropy",
                                  cross_entropy_reference):
            want, want_hist = train(build_model(spec, Rng(1)), data, config)
        assert [(r["loss"], r["aux"]) for r in got_hist] == \
            [(r["loss"], r["aux"]) for r in want_hist]
        for name, p in got.params.items():
            assert_bitwise(p.data, want.params[name].data)
