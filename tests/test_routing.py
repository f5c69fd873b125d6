"""Gating against brute-force oracles: full softmax + stable sort is the
reference implementation for every routing decision."""

import itertools
import math
import time
import zlib
from unittest import mock

import numpy as np
import pytest

from moelab.errors import ConfigError
from moelab.layers import ExpertMLP, MoELayer, layer_forward
from moelab.losses import AuxLossState, omega_partition
from moelab.rng import Rng
from moelab.routing import (
    RouterParams,
    RoutingDecision,
    capacity_filter,
    partitioned_gate,
)
from moelab.tensor import Tensor, add, mul

from oracles import (assert_bitwise, capacity_dropped_loop, gate_reference,
                     tsum)


def brute_force_topk(logits, k):
    """Reference: softmax each row, stable-sort descending, keep first k."""
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    order = np.argsort(-p, axis=1, kind="stable")
    idx = order[:, :k]
    w = np.take_along_axis(p, idx, axis=1)
    return idx, w


def quiet_router(w, m=1):
    """Router with the noise draw disabled for oracle comparisons."""
    weights = [Tensor(np.asarray(b, dtype=np.float64)) for b in w] \
        if isinstance(w, list) else [Tensor(np.asarray(w, dtype=np.float64))]
    return RouterParams(weights=weights, noise_scale=0.0)


def test_gate_matches_hand_softmax():
    h = Tensor(np.array([[1.0]]))
    w = np.array([[2.0], [1.0], [0.0]])  # logits become [2, 1, 0]
    dec = partitioned_gate(h, quiet_router(w), 2, Rng(0))
    np.testing.assert_array_equal(dec.indices, [[0, 1]])
    np.testing.assert_allclose(dec.weights.data, [[0.66524, 0.24473]],
                               atol=1e-4)


def test_k_equals_e_keeps_full_softmax():
    gen = np.random.default_rng(5)
    h = Tensor(gen.normal(size=(6, 3)))
    w = gen.normal(size=(4, 3))
    dec = partitioned_gate(h, quiet_router(w), 4, Rng(0))
    idx, wts = brute_force_topk(h.data @ w.T, 4)
    np.testing.assert_array_equal(dec.indices, idx)
    np.testing.assert_allclose(dec.weights.data, wts, atol=1e-15)
    np.testing.assert_allclose(dec.weights.data.sum(axis=1), 1.0, atol=1e-12)


def test_single_expert_weight_is_one():
    h = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
    dec = partitioned_gate(h, quiet_router(np.ones((1, 2))), 1, Rng(0))
    np.testing.assert_array_equal(dec.weights.data, 1.0)


def test_gate_oracle_ten_thousand_instances():
    """Criterion: exact match with the oracle on 10^4 random instances."""
    gen = np.random.default_rng(2024)
    start = time.time()
    for trial in range(10000):
        e = int(gen.integers(1, 17))
        k = int(gen.integers(1, e + 1))
        d = int(gen.integers(1, 5))
        h = gen.normal(size=(1, d))
        w = gen.normal(size=(e, d))
        if trial % 7 == 0:
            # force ties: duplicate rows of W give equal logits
            w[: e // 2 + 1] = w[0]
        dec = partitioned_gate(Tensor(h), quiet_router(w), k, Rng(0))
        idx, wts = brute_force_topk(h @ w.T, k)
        np.testing.assert_array_equal(dec.indices, idx)
        np.testing.assert_array_equal(dec.weights.data, wts)
    assert time.time() - start < 5.0


def test_tie_break_prefers_lower_expert():
    h = Tensor(np.array([[1.0]]))
    w = np.array([[0.5], [0.5], [0.5]])
    dec = partitioned_gate(h, quiet_router(w), 2, Rng(0))
    np.testing.assert_array_equal(dec.indices, [[0, 1]])


def test_no_renormalization_after_topk():
    # surviving weights are raw softmax values, they do NOT sum to 1
    h = Tensor(np.array([[1.0, 0.0]]))
    w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    dec = partitioned_gate(h, quiet_router(w), 1, Rng(0))
    full = brute_force_topk(h.data @ w.T, 3)[1]
    assert dec.weights.data[0, 0] == pytest.approx(full[0, 0], abs=1e-15)
    assert dec.weights.data.sum() < 1.0


def test_noise_deterministic_per_key():
    gen = np.random.default_rng(3)
    h = Tensor(gen.normal(size=(4, 3)))
    router = RouterParams([Tensor(gen.normal(size=(5, 3)))],
                          noise_scale=1 / 5)
    a = partitioned_gate(h, router, 2, Rng(8), train=True,
                         noise_key=("route", 1, 7))
    b = partitioned_gate(h, router, 2, Rng(8), train=True,
                         noise_key=("route", 1, 7))
    np.testing.assert_array_equal(a.weights.data, b.weights.data)
    c = partitioned_gate(h, router, 2, Rng(8), train=True,
                         noise_key=("route", 1, 8))
    assert not np.array_equal(a.weights.data, c.weights.data)


def test_eval_noise_off_by_default():
    gen = np.random.default_rng(4)
    h = Tensor(gen.normal(size=(4, 3)))
    router = RouterParams([Tensor(gen.normal(size=(5, 3)))],
                          noise_scale=1 / 5)
    a = partitioned_gate(h, router, 2, Rng(0))
    idx, wts = brute_force_topk(h.data @ router.weights[0].data.T, 2)
    np.testing.assert_array_equal(a.indices, idx)
    np.testing.assert_allclose(a.weights.data, wts, atol=1e-15)


def test_permutation_equivariance():
    gen = np.random.default_rng(6)
    h = Tensor(gen.normal(size=(8, 4)))
    w = gen.normal(size=(6, 4))
    perm = gen.permutation(6)
    base = partitioned_gate(h, quiet_router(w), 3, Rng(0))
    swapped = partitioned_gate(h, quiet_router(w[perm]), 3, Rng(0))
    # expert e of the permuted router is expert perm[e] of the original;
    # weights agree up to summation order inside the softmax normalizer
    np.testing.assert_array_equal(perm[swapped.indices], base.indices)
    np.testing.assert_allclose(swapped.weights.data, base.weights.data,
                               atol=1e-15)


def test_bad_k_rejected():
    h = Tensor(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        partitioned_gate(h, quiet_router(np.zeros((4, 3))), 5, Rng(0))
    with pytest.raises(ConfigError):
        partitioned_gate(h, quiet_router(np.zeros((4, 3))), 0, Rng(0))


class TestPartitionedGate:
    def test_members_stay_in_their_blocks(self):
        gen = np.random.default_rng(7)
        blocks = [Tensor(gen.normal(size=(3, 4))) for _ in range(2)]
        router = RouterParams(weights=blocks, noise_scale=0.0)
        h = Tensor(gen.normal(size=(10, 4)))  # 5 rows per member
        dec = partitioned_gate(h, router, 2, Rng(0))
        assert np.all(dec.indices[:5] < 3)
        assert np.all(dec.indices[5:] >= 3)

    def test_partition_disjointness_randomized(self):
        gen = np.random.default_rng(8)
        for _ in range(200):
            m = int(gen.integers(1, 5))
            eb = int(gen.integers(1, 5))
            k = int(gen.integers(1, eb + 1))
            d = int(gen.integers(1, 5))
            b = int(gen.integers(1, 6))
            router = RouterParams(
                weights=[Tensor(gen.normal(size=(eb, d))) for _ in range(m)],
                noise_scale=float(gen.uniform(0, 0.5)),
            )
            h = Tensor(gen.normal(size=(b * m, d)))
            dec = partitioned_gate(h, router, k,
                                   Rng(int(gen.integers(1 << 30))), train=True)
            for mm in range(m):
                rows = dec.indices[mm * b:(mm + 1) * b]
                assert np.all(rows >= mm * eb)
                assert np.all(rows < (mm + 1) * eb)

    def test_m1_tiled_bitwise_equals_untiled(self):
        gen = np.random.default_rng(9)
        w = Tensor(gen.normal(size=(4, 3)))
        router = RouterParams(weights=[w], noise_scale=0.25)
        h = Tensor(gen.normal(size=(6, 3)))
        key = ("route", 2, 5)
        a = partitioned_gate(h, router, 2, Rng(3), train=True, noise_key=key)
        b = partitioned_gate(h, router, 2, Rng(3), tiled=False, train=True,
                             noise_key=key)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.weights.data, b.weights.data)

    def test_k_equals_block_weights_sum_to_one(self):
        gen = np.random.default_rng(10)
        router = RouterParams(
            weights=[Tensor(gen.normal(size=(2, 3))) for _ in range(2)],
            noise_scale=0.0,
        )
        h = Tensor(gen.normal(size=(6, 3)))
        dec = partitioned_gate(h, router, 2, Rng(0))
        np.testing.assert_allclose(dec.weights.data.sum(axis=1), 1.0,
                                   atol=1e-12)


class TestOnlyPartitioningGate:
    def test_k_times_m_selections(self):
        gen = np.random.default_rng(11)
        router = RouterParams(
            weights=[Tensor(gen.normal(size=(3, 4))) for _ in range(2)],
            noise_scale=0.0,
        )
        h = Tensor(gen.normal(size=(5, 4)))
        dec = partitioned_gate(h, router, 2, Rng(0), tiled=False)
        assert dec.indices.shape == (5, 4)  # K*M per token
        assert np.all(dec.indices[:, :2] < 3)
        assert np.all(dec.indices[:, 2:] >= 3)

    def test_m1_reduces_to_vmoe_gate(self):
        gen = np.random.default_rng(12)
        w = Tensor(gen.normal(size=(4, 3)))
        router = RouterParams(weights=[w], noise_scale=0.0)
        h = Tensor(gen.normal(size=(6, 3)))
        a = partitioned_gate(h, router, 2, Rng(0), tiled=False)
        b = partitioned_gate(h, router, 2, Rng(0))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.weights.data, b.weights.data)

    def test_full_blocks_sum_to_m(self):
        # K = E/M keeps each block's full softmax: weights sum to M
        gen = np.random.default_rng(13)
        router = RouterParams(
            weights=[Tensor(gen.normal(size=(2, 3))) for _ in range(3)],
            noise_scale=0.0,
        )
        h = Tensor(gen.normal(size=(4, 3)))
        dec = partitioned_gate(h, router, 2, Rng(0), tiled=False)
        np.testing.assert_allclose(dec.weights.data.sum(axis=1), 3.0,
                                   atol=1e-12)


class TestNoisyLayout:
    """With sigma > 0, each block must see its own part of one noise draw:
    untiled rows slice an (N, E) draw by column block, tiled rows index an
    (N, E/M) draw by the member's rows."""

    SIGMA = 1.0
    KEY = ("route", 1, 4)

    def _setup(self, m, n, seed):
        gen = np.random.default_rng(seed)
        router = RouterParams(
            weights=[Tensor(gen.normal(size=(3, 4))) for _ in range(m)],
            noise_scale=self.SIGMA,
        )
        return router, gen.normal(size=(n, 4))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_untiled_blocks_slice_one_n_by_e_draw(self, m):
        eb, k, n = 3, 2, 5
        router, h = self._setup(m, n, 40 + m)
        dec = partitioned_gate(Tensor(h), router, k, Rng(11), tiled=False,
                               train=True, noise_key=self.KEY)
        eps = Rng(11).normal((n, m * eb), *self.KEY)
        for mm in range(m):
            w = router.weights[mm].data
            noise = self.SIGMA * eps[:, mm * eb:(mm + 1) * eb]
            idx, wts = brute_force_topk(h @ w.T + noise, k)
            slots = slice(mm * k, (mm + 1) * k)
            np.testing.assert_array_equal(dec.indices[:, slots],
                                          idx + mm * eb)
            np.testing.assert_allclose(dec.weights.data[:, slots], wts,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tiled_members_index_one_n_by_block_draw(self, m):
        eb, k, b = 3, 2, 4
        router, h = self._setup(m, m * b, 50 + m)
        dec = partitioned_gate(Tensor(h), router, k, Rng(11), train=True,
                               noise_key=self.KEY)
        eps = Rng(11).normal((m * b, eb), *self.KEY)
        for mm in range(m):
            w = router.weights[mm].data
            rows = slice(mm * b, (mm + 1) * b)
            idx, wts = brute_force_topk(h[rows] @ w.T
                                        + self.SIGMA * eps[rows], k)
            np.testing.assert_array_equal(dec.indices[rows], idx + mm * eb)
            np.testing.assert_allclose(dec.weights.data[rows], wts,
                                       rtol=0, atol=1e-15)


class TestCapacity:
    def _one_expert_decision(self, n):
        # every token picks expert 0 of 2
        h = Tensor(np.ones((n, 1)))
        w = np.array([[1.0], [-1.0]])
        return partitioned_gate(h, quiet_router(w), 1, Rng(0))

    def test_unbounded_is_identity(self):
        dec = self._one_expert_decision(4)
        out = capacity_filter(dec, None, 2)
        assert out is dec

    def test_hand_fill_order(self):
        # capacity = ceil(0.5 * 4 * 1 / 2) = 1: only the first token stays
        dec = self._one_expert_decision(4)
        out = capacity_filter(dec, 0.5, 2)
        np.testing.assert_array_equal(out.dropped_mask[:, 0],
                                      [False, True, True, True])

    def test_eval_slack_never_drops(self):
        dec = self._one_expert_decision(4)
        out = capacity_filter(dec, 8.0, 2)
        assert not out.dropped_mask.any()

    def test_budget_counts_every_slot_of_a_row(self):
        # only_partitioning routes each row in both blocks (K*M = 2 slots);
        # the 8 assignments fill the 4 experts evenly, 2 each, so ratio 1.0
        # keeps all of them: capacity = ceil(1.0 * 4 * 2 / 4) = 2
        h = Tensor(np.array([[1.0], [1.0], [-1.0], [-1.0]]))
        w = [[[1.0], [-1.0]], [[1.0], [-1.0]]]
        dec = partitioned_gate(h, quiet_router(w), 1, Rng(0), tiled=False)
        np.testing.assert_array_equal(dec.indices,
                                      [[0, 2], [0, 2], [1, 3], [1, 3]])
        out = capacity_filter(dec, 1.0, 4)
        assert not out.dropped_mask.any()
        out = capacity_filter(dec, 0.5, 4)  # capacity 1: one row per expert
        np.testing.assert_array_equal(out.dropped_mask,
                                      [[False, False], [True, True],
                                       [False, False], [True, True]])

    def test_equals_per_expert_loop(self):
        # random ids, some skewed toward low experts, and masks with
        # assignments already dropped, which hold no place in the budget
        gen = np.random.default_rng(19)
        for _ in range(500):
            n, s, e = (int(gen.integers(1, 40)), int(gen.integers(1, 5)),
                       int(gen.integers(1, 17)))
            idx = gen.integers(0, e, size=(n, s)) if gen.random() < 0.5 \
                else np.minimum(gen.geometric(0.4, size=(n, s)) - 1, e - 1)
            pre = gen.random((n, s)) < gen.choice([0.0, 0.3])
            ratio = float(gen.choice([0.1, 0.5, 1.0, 2.0]))
            dec = RoutingDecision(indices=idx,
                                  weights=Tensor(np.zeros((n, s))),
                                  dropped_mask=pre)
            out = capacity_filter(dec, ratio, e)
            np.testing.assert_array_equal(
                out.dropped_mask,
                capacity_dropped_loop(idx, pre, math.ceil(ratio * n * s / e),
                                      e))
            np.testing.assert_array_equal(dec.dropped_mask, pre)


class TestGateNodes:
    """partitioned_gate's nodes (one per router block's clean logits, one
    gate node per layer) against the composition they replace
    (oracles.gate_reference).  The gate feeds an expert_dispatch, as in a
    MoE layer, and the layer's Omega node is attached, so h receives the
    dispatch gradient and then every block's, and each block's clean
    logits receive the gate's and the loss's gradients, in both orders.
    Decisions, values and every gradient must be equal bit for bit."""

    # (M, tiled, sigma, K); each router block has 4 experts
    CASES = {f"m{m}_{'tiled' if t else 'untiled'}_s{s}_k{k}": (m, t, s, k)
             for m, t, s, k in itertools.product((1, 2, 4), (True, False),
                                                 (0.0, 0.3), (1, 2, 4))}

    def _run(self, gate, case, loss_first):
        m, tiled, sigma, k = self.CASES[case]
        gen = np.random.default_rng(zlib.crc32(case.encode()))
        b, eb, d = 5, 4, 3
        h = Tensor(gen.normal(size=(m * b if tiled else b, d)),
                   requires_grad=True)
        router = RouterParams(
            [Tensor(gen.normal(size=(eb, d)), requires_grad=True)
             for _ in range(m)], noise_scale=sigma)
        experts = [ExpertMLP(*(Tensor(gen.normal(size=shape),
                                      requires_grad=True)
                               for shape in ((d, 2), (2,), (2, d), (d,))))
                   for _ in range(m * eb)]
        layer = MoELayer(experts, router, k,
                         mode="pbe" if tiled else "only_partitioning")
        upstream = Tensor(gen.normal(size=h.data.shape))
        with mock.patch("moelab.layers.partitioned_gate", gate):
            out, dec = layer_forward(h, layer, Rng(3), train=True,
                                     dropout_on=False,
                                     noise_key=("route", 1, 2))
        data = tsum(mul(out, upstream))
        aux = mul(omega_partition(AuxLossState.from_decision(dec)),
                  Tensor(0.7))
        (add(aux, data) if loss_first else add(data, aux)).backward()
        return dec, [h, *router.weights]

    @pytest.mark.parametrize("loss_first", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_composition(self, case, loss_first):
        got, got_inputs = self._run(partitioned_gate, case, loss_first)
        want, want_inputs = self._run(gate_reference, case, loss_first)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert_bitwise(got.weights.data, want.weights.data)
        for (gc, gn), (wc, wn) in zip(got.member_logits, want.member_logits):
            assert_bitwise(gc.data, wc.data)
            assert_bitwise(gn, wn)
        assert (got.sigma, got.k) == (want.sigma, want.k)
        for g, w in zip(got_inputs, want_inputs):
            assert_bitwise(g.grad, w.grad)
        assert len(got.weights._parents) == self.CASES[case][0]
