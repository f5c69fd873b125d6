"""Expert dispatch, tiling, the stacked-slot layer, and batch-ensemble
equivalences, each checked against a brute-force mixture oracle."""

import numpy as np
import pytest

from moelab.errors import ConfigError
from moelab.layers import (
    ExpertMLP,
    MoELayer,
    dropout_mask,
    layer_forward,
    tile,
)
from moelab.rng import Rng
from moelab.routing import RouterParams, capacity_filter, partitioned_gate
from moelab.tensor import (Tensor, _node, expert_dispatch, mlp, mul, reshape,
                           take_rows)

from oracles import (BeMoeView, be_dense_forward, finite_difference_check,
                     gelu, tsum)


def make_expert(gen, d, f, q=None):
    q = d if q is None else q
    return ExpertMLP(
        w1=Tensor(gen.normal(size=(d, f)), requires_grad=True),
        b1=Tensor(gen.normal(size=f), requires_grad=True),
        w2=Tensor(gen.normal(size=(f, q)), requires_grad=True),
        b2=Tensor(gen.normal(size=q), requires_grad=True),
    )


def make_layer(gen, e, k, d=3, f=4, mode="moe", m=1, noise=0.0):
    experts = [make_expert(gen, d, f) for _ in range(e)]
    if mode in ("pbe", "only_partitioning"):
        weights = [Tensor(gen.normal(size=(e // m, d)), requires_grad=True)
                   for _ in range(m)]
        router = RouterParams(weights=weights, noise_scale=noise)
        return MoELayer(experts=experts, router=router, k=k, mode=mode)
    router = RouterParams(weights=[Tensor(gen.normal(size=(e, d)),
                                          requires_grad=True)],
                          noise_scale=noise)
    return MoELayer(experts=experts, router=router, k=k, mode=mode)


def dense_mixture_oracle(h, layer):
    """Full softmax mixture: sum_e softmax_e(h W^T) * expert_e(h)."""
    w = layer.router.weights[0].data
    logits = h @ w.T
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    out = np.zeros((h.shape[0], layer.experts[0].w2.data.shape[1]))
    for e, expert in enumerate(layer.experts):
        y = expert.forward(Tensor(h)).data
        out += p[:, e:e + 1] * y
    return out


class TestTiling:
    def test_tile_layout(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(tile(x, 2).data, [[1], [2], [1], [2]])

    def test_member_blocks_equal_input(self):
        gen = np.random.default_rng(0)
        for m in (1, 2, 3, 5):
            x = gen.normal(size=(4, 3))
            for block in tile(Tensor(x), m).data.reshape(m, 4, 3):
                np.testing.assert_array_equal(block, x)


class TestMoeForward:
    def test_single_expert_identity(self):
        gen = np.random.default_rng(1)
        layer = make_layer(gen, e=1, k=1)
        h = Tensor(gen.normal(size=(5, 3)))
        out, _ = layer_forward(h, layer, Rng(0))
        np.testing.assert_allclose(out.data, layer.experts[0].forward(h).data,
                                   atol=1e-15)

    def test_k_equals_e_matches_dense_mixture(self):
        gen = np.random.default_rng(2)
        layer = make_layer(gen, e=4, k=4)
        h = gen.normal(size=(6, 3))
        out, _ = layer_forward(Tensor(h), layer, Rng(0))
        np.testing.assert_allclose(out.data, dense_mixture_oracle(h, layer),
                                   atol=1e-12)

    def test_identical_experts_collapse(self):
        gen = np.random.default_rng(3)
        layer = make_layer(gen, e=3, k=3)
        shared = layer.experts[0]
        layer.experts[1] = shared
        layer.experts[2] = shared
        h = Tensor(gen.normal(size=(4, 3)))
        out, dec = layer_forward(h, layer, Rng(0))
        # with K=E the gate weights sum to 1, so output = shared expert
        np.testing.assert_allclose(out.data, shared.forward(h).data,
                                   atol=1e-12)

    def test_dropped_slots_contribute_zero(self):
        gen = np.random.default_rng(4)
        layer = make_layer(gen, e=2, k=1)
        layer.capacity_ratio = 0.5
        # all tokens route to one expert; over-capacity tokens output zero
        layer.router.weights[0].data[:] = np.array([[5.0, 5.0, 5.0],
                                                    [-5.0, -5.0, -5.0]])
        h = Tensor(np.ones((4, 3)))
        out, dec = layer_forward(h, layer, Rng(0))
        assert dec.dropped_mask[:, 0].tolist() == [False, True, True, True]
        np.testing.assert_array_equal(out.data[1:], 0.0)
        assert np.abs(out.data[0]).max() > 0


class TestPbeForward:
    def test_m1_bitwise_moe(self):
        gen = np.random.default_rng(5)
        moe = make_layer(gen, e=4, k=2, noise=0.3)
        pbe = MoELayer(experts=moe.experts, router=moe.router, k=2,
                       mode="pbe")
        h = Tensor(gen.normal(size=(6, 3)))
        a, _ = layer_forward(h, moe, Rng(2), train=True, dropout_on=False)
        b, _ = layer_forward(h, pbe, Rng(2), train=True, dropout_on=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_m_equals_e_single_expert_per_member(self):
        gen = np.random.default_rng(6)
        layer = make_layer(gen, e=3, k=1, mode="pbe", m=3)
        h = Tensor(gen.normal(size=(6, 3)))  # 2 rows per member
        out, dec = layer_forward(h, layer, Rng(0))
        np.testing.assert_array_equal(dec.weights.data, 1.0)
        np.testing.assert_array_equal(dec.indices[:2], 0)
        np.testing.assert_array_equal(dec.indices[2:4], 1)
        np.testing.assert_array_equal(dec.indices[4:], 2)

    def test_hand_simulated_member_routing(self):
        gen = np.random.default_rng(7)
        layer = make_layer(gen, e=4, k=1, mode="pbe", m=2)
        b = 3
        h = gen.normal(size=(2 * b, 3))
        out, dec = layer_forward(Tensor(h), layer, Rng(0))
        oracle = np.zeros((2 * b, 3))
        for mm in range(2):
            w = layer.router.weights[mm].data
            rows = slice(mm * b, (mm + 1) * b)
            logits = h[rows] @ w.T
            z = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = z / z.sum(axis=1, keepdims=True)
            pick = p.argmax(axis=1)
            for i, (e_local, row) in enumerate(zip(pick, range(mm * b, (mm + 1) * b))):
                e_global = mm * 2 + e_local
                y = layer.experts[e_global].forward(Tensor(h[row:row + 1])).data
                oracle[row] = p[i, e_local] * y[0]
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_member_rows_equal_standalone_moe(self):
        # member m's rows behave exactly like a small standalone mixture
        gen = np.random.default_rng(8)
        layer = make_layer(gen, e=6, k=2, mode="pbe", m=2)
        b = 4
        h = gen.normal(size=(2 * b, 3))
        out, _ = layer_forward(Tensor(h), layer, Rng(0))
        for mm in range(2):
            sub = MoELayer(
                experts=layer.experts[mm * 3:(mm + 1) * 3],
                router=RouterParams(weights=[layer.router.weights[mm]],
                                    noise_scale=0.0),
                k=2,
            )
            rows = slice(mm * b, (mm + 1) * b)
            sub_out, _ = layer_forward(Tensor(h[rows]), sub, Rng(0))
            np.testing.assert_array_equal(out.data[rows], sub_out.data)


class TestOnlyPartitioning:
    def test_m1_equals_moe(self):
        gen = np.random.default_rng(9)
        moe = make_layer(gen, e=4, k=2)
        op = MoELayer(experts=moe.experts, router=moe.router, k=2,
                      mode="only_partitioning")
        h = Tensor(gen.normal(size=(5, 3)))
        a, _ = layer_forward(h, moe, Rng(0))
        b, _ = layer_forward(h, op, Rng(0))
        np.testing.assert_array_equal(a.data, b.data)

    def test_full_blocks_equal_blockwise_dense_mixture(self):
        gen = np.random.default_rng(10)
        layer = make_layer(gen, e=4, k=2, mode="only_partitioning", m=2)
        h = gen.normal(size=(5, 3))
        out, dec = layer_forward(Tensor(h), layer, Rng(0))
        oracle = np.zeros((5, 3))
        for mm in range(2):
            sub = MoELayer(
                experts=layer.experts[mm * 2:(mm + 1) * 2],
                router=RouterParams(weights=[layer.router.weights[mm]],
                                    noise_scale=0.0),
                k=2,
            )
            oracle += dense_mixture_oracle(h, sub)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_k_times_m_live_slots(self):
        gen = np.random.default_rng(11)
        layer = make_layer(gen, e=6, k=2, mode="only_partitioning", m=3)
        h = Tensor(gen.normal(size=(4, 3)))
        out, dec = layer_forward(h, layer, Rng(0))
        assert dec.indices.shape == (4, 6)
        assert not dec.dropped_mask.any()


class TestMultihead:
    def test_k1_squeezes_to_moe(self):
        gen = np.random.default_rng(12)
        moe = make_layer(gen, e=3, k=1)
        mh = MoELayer(experts=moe.experts, router=moe.router, k=1,
                      mode="multihead")
        h = Tensor(gen.normal(size=(5, 3)))
        a, _ = layer_forward(h, moe, Rng(0))
        b, _ = layer_forward(h, mh, Rng(0))
        assert b.data.shape == (5, 1, 3)
        np.testing.assert_array_equal(b.data[:, 0, :], a.data)

    def test_slot_sum_equals_moe_bitwise(self):
        gen = np.random.default_rng(13)
        for trial in range(20):
            e = int(gen.integers(2, 7))
            k = int(gen.integers(1, e + 1))
            moe = make_layer(gen, e=e, k=k)
            mh = MoELayer(experts=moe.experts, router=moe.router, k=k,
                          mode="multihead")
            h = Tensor(gen.normal(size=(4, 3)))
            a, _ = layer_forward(h, moe, Rng(trial))
            b, _ = layer_forward(h, mh, Rng(trial))
            np.testing.assert_array_equal(b.data.sum(axis=1), a.data)

    def test_hand_slots(self):
        gen = np.random.default_rng(14)
        layer = make_layer(gen, e=3, k=2, d=1, mode="multihead")
        layer.router.weights[0].data[:] = np.array([[2.0], [1.0], [0.0]])
        h = Tensor(np.array([[1.0]]))
        out, _ = layer_forward(h, layer, Rng(0))
        y0 = layer.experts[0].forward(h).data[0]
        y1 = layer.experts[1].forward(h).data[0]
        np.testing.assert_allclose(out.data[0, 0], 0.66524 * y0, atol=1e-3)
        np.testing.assert_allclose(out.data[0, 1], 0.24473 * y1, atol=1e-3)


def be_mlp(be1, b1, be2, b2):
    """The batch-ensemble ExpertMLP of two (u, r, s) dense layers."""
    (u1, r1, s1), (u2, r2, s2) = be1, be2
    return ExpertMLP(u1, b1, u2, b2, list(zip(r1, s1, r2, s2)))


class TestBatchEnsemble:
    def make_be(self, gen, d, l, m):
        """A batch-ensemble dense layer: slow weight u, fast weights r, s."""
        return (Tensor(gen.normal(size=(d, l)), requires_grad=True),
                [Tensor(gen.normal(size=d), requires_grad=True)
                 for _ in range(m)],
                [Tensor(gen.normal(size=l), requires_grad=True)
                 for _ in range(m)])

    def test_unit_fast_weights_match_dense(self):
        gen = np.random.default_rng(15)
        u, r, s = self.make_be(gen, 3, 2, 2)
        for mm in range(2):
            r[mm].data[:] = 1.0
            s[mm].data[:] = 1.0
        x = gen.normal(size=(4, 3))
        out = be_dense_forward(Tensor(np.concatenate([x, x])), u, r, s)
        plain = x @ u.data
        np.testing.assert_allclose(out.data[:4], plain, atol=1e-12)
        np.testing.assert_allclose(out.data[4:], plain, atol=1e-12)

    def test_hand_example(self):
        out = be_dense_forward(Tensor(np.array([[1.0, 1.0]])),
                               Tensor(np.ones((2, 2))),
                               [Tensor(np.array([1.0, 2.0]))],
                               [Tensor(np.array([3.0, 4.0]))])
        np.testing.assert_array_equal(out.data, [[9.0, 12.0]])

    def test_matches_materialized_weights(self):
        gen = np.random.default_rng(16)
        for _ in range(100):
            d = int(gen.integers(1, 6))
            l = int(gen.integers(1, 6))
            m = int(gen.integers(1, 4))
            b = int(gen.integers(1, 5))
            u, r, s = self.make_be(gen, d, l, m)
            x = gen.normal(size=(b, d))
            out = be_dense_forward(Tensor(np.concatenate([x] * m)), u, r,
                                   s).data
            for mm in range(m):
                w_m = u.data * np.outer(r[mm].data, s[mm].data)
                np.testing.assert_allclose(out[mm * b:(mm + 1) * b], x @ w_m,
                                           atol=1e-12)

    def test_moe_view_equivalence(self):
        gen = np.random.default_rng(17)
        for _ in range(100):
            d = int(gen.integers(1, 5))
            l = int(gen.integers(1, 5))
            m = int(gen.integers(1, 4))
            be = self.make_be(gen, d, l, m)
            x = np.concatenate([gen.normal(size=(2, d))] * m)
            view = BeMoeView(*be)
            a = be_dense_forward(Tensor(x), *be).data
            b = view.forward(x)
            assert np.abs(a - b).max() < 1e-12

    def test_moe_view_gates_binary_one_hot(self):
        gen = np.random.default_rng(18)
        be = self.make_be(gen, 3, 2, 3)
        g = BeMoeView(*be).gates(6)
        assert set(np.unique(g)) == {0.0, 1.0}
        np.testing.assert_array_equal(g.sum(axis=1), 1.0)

    def test_m1_view_is_dense(self):
        gen = np.random.default_rng(19)
        u, r, s = self.make_be(gen, 3, 2, 1)
        x = gen.normal(size=(4, 3))
        view = BeMoeView(u, r, s)
        np.testing.assert_array_equal(view.gates(4), 1.0)
        w = u.data * np.outer(r[0].data, s[0].data)
        np.testing.assert_allclose(view.forward(x), x @ w, atol=1e-12)

    def test_fused_mlp_bitwise_equals_composition(self):
        # a batch-ensemble ExpertMLP.forward is one node; the tape
        # composition it replaces is gelu(be_dense_forward(x, *be1) + b1)
        # * mask -> be_dense_forward(., *be2) + b2.
        # Zero rows in the output multiplier give exact zero gradients, so
        # the sign of zero is compared too (tobytes).
        gen = np.random.default_rng(25)
        cases = [(m, b, masked, pruned) for m in (1, 2, 3) for b in (1, 2, 4)
                 for masked in (False, True) for pruned in (False, True)]
        for m, b, masked, pruned in cases:
            d, f = int(gen.integers(1, 5)), int(gen.integers(1, 6))
            x0 = gen.normal(size=(m * b, d))
            mask = (gen.random((m * b, f)) >= 0.4) / 0.6 if masked else None
            full_rows = m * (b + 2) if pruned else None
            mult = gen.normal(size=(m * b, d))
            mult[gen.random(m * b) < 0.3] = 0.0
            seed = int(gen.integers(2**32))
            results = []
            for fused in (True, False):
                g = np.random.default_rng(seed)
                be1, be2 = self.make_be(g, d, f, m), self.make_be(g, f, d, m)
                mlp_ = be_mlp(be1, Tensor(g.normal(size=f), requires_grad=True),
                              be2, Tensor(g.normal(size=d), requires_grad=True))
                x = Tensor(x0, requires_grad=True)
                if fused:
                    y = mlp_.forward(x, mask, full_rows)
                else:
                    hidden = gelu(be_dense_forward(x, *be1, full_rows)
                                  + mlp_.b1)
                    if mask is not None:
                        hidden = hidden * Tensor(mask)
                    y = be_dense_forward(hidden, *be2, full_rows) + mlp_.b2
                tsum(mul(y, Tensor(mult))).backward()
                params = [x, be1[0], mlp_.b1, be2[0], mlp_.b2,
                          *be1[1], *be1[2], *be2[1], *be2[2]]
                results.append([y.data] + [p.grad for p in params])
            for i, (got, want) in enumerate(zip(*results)):
                assert got.tobytes() == want.tobytes(), (m, b, masked, pruned, i)

    def test_fused_mlp_rejects_indivisible_rows(self):
        gen = np.random.default_rng(27)
        mlp_ = be_mlp(self.make_be(gen, 3, 4, 2), Tensor(np.zeros(4)),
                      self.make_be(gen, 4, 3, 2), Tensor(np.zeros(3)))
        with pytest.raises(ConfigError, match="divisible"):
            mlp_.forward(Tensor(gen.normal(size=(3, 3))))


class TestLayerGradients:
    """Full layer forwards against central differences, noise frozen."""

    def _params(self, layer):
        ps = []
        for ex in layer.experts:
            ps += [ex.w1, ex.b1, ex.w2, ex.b2]
        ps += list(layer.router.weights)
        return ps

    def _check(self, f, params, tol=1e-4):
        err = finite_difference_check(f, params)
        assert err < tol, f"max rel err {err:.3e}"

    def test_expert_mlp(self):
        gen = np.random.default_rng(20)
        ex = make_expert(gen, 3, 4)
        x = Tensor(gen.normal(size=(3, 3)), requires_grad=True)
        self._check(lambda: tsum(ex.forward(x)),
                    [x, ex.w1, ex.b1, ex.w2, ex.b2])

    def test_moe_layer(self):
        gen = np.random.default_rng(21)
        layer = make_layer(gen, e=3, k=2, noise=0.2)
        h = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        rng = Rng(5)

        def f():
            out, _ = layer_forward(h, layer, rng, train=True, dropout_on=False)
            return tsum(out * out)

        self._check(f, [h] + self._params(layer))

    def test_pbe_layer(self):
        gen = np.random.default_rng(22)
        layer = make_layer(gen, e=4, k=1, mode="pbe", m=2, noise=0.2)
        h = Tensor(gen.normal(size=(6, 3)), requires_grad=True)
        rng = Rng(6)

        def f():
            out, _ = layer_forward(h, layer, rng, train=True, dropout_on=False)
            return tsum(out * out)

        self._check(f, [h] + self._params(layer))

    def test_multihead_layer(self):
        gen = np.random.default_rng(23)
        layer = make_layer(gen, e=3, k=2, mode="multihead")
        h = Tensor(gen.normal(size=(3, 3)), requires_grad=True)

        def f():
            out, _ = layer_forward(h, layer, Rng(7), train=True,
                                   dropout_on=False)
            return tsum(out * out)

        self._check(f, [h] + self._params(layer))

    def test_be_mlp(self):
        gen = np.random.default_rng(24)
        be1 = TestBatchEnsemble().make_be(gen, 3, 5, 2)
        be2 = TestBatchEnsemble().make_be(gen, 5, 3, 2)
        mlp = be_mlp(be1, Tensor(gen.normal(size=5), requires_grad=True),
                     be2, Tensor(gen.normal(size=3), requires_grad=True))
        x = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        params = [x, be1[0], be2[0], mlp.b1, mlp.b2] + \
            be1[1] + be1[2] + be2[1] + be2[2]

        def f():
            return tsum(mlp.forward(x))

        self._check(f, params)


# ----------------------------------------------------------------------
# the per-pair dispatch that expert_dispatch replaced, kept as its oracle


def per_pair_combine(values, rows, slots, weights, n_rows, stack=False):
    """Weight every (slot, expert) output by its gate and combine, as one
    node; backward visits the pairs in the order given."""
    gates = [weights.data[r, s][:, None] for r, s in zip(rows, slots)]
    buf = np.zeros((n_rows, weights.data.shape[1], values[0].data.shape[1]))
    for y, r, s, w in zip(values, rows, slots, gates):
        buf[r, s] += y.data * w
    if stack:
        out_data = buf
    else:
        out_data = buf[:, 0]
        for s in range(1, buf.shape[1]):
            out_data = out_data + buf[:, s]

    def backward(grad):
        g_w = np.zeros_like(weights.data)
        for y, r, s, w in zip(values, rows, slots, gates):
            g = grad[r, s] if stack else grad[r]
            y._accum(g * w)
            g_w[r, s] += (g * y.data).sum(axis=1)
        weights._accum(g_w)

    return _node(out_data, tuple(values) + (weights,), backward)


def per_pair_dispatch(x, weights, experts, rows, slots, segments, mask=None,
                      stack=False):
    """One take_rows and one mlp node per segment, then one combine."""
    values, seg_rows, seg_slots = [], [], []
    for e, lo, hi, _ in segments:
        seg_mask = None if mask is None else mask[lo:hi]
        values.append(mlp(take_rows(x, rows[lo:hi]), *experts[e], seg_mask))
        seg_rows.append(rows[lo:hi])
        seg_slots.append(int(slots[lo]))
    return per_pair_combine(values, seg_rows, seg_slots, weights,
                            x.data.shape[0], stack)


def per_pair_layer_forward(h, layer, rng, *, train=False, dropout_on=None,
                           noise_key=("route", 0, 0),
                           dropout_key=("drop", 0, 0)):
    """layer_forward with a loop over (slot, expert) pairs and a fresh
    dropout stream per pair."""
    decision = partitioned_gate(h, layer.router, layer.k, rng,
                                tiled=layer.mode != "only_partitioning",
                                train=train, noise_key=noise_key)
    decision = capacity_filter(decision, layer.capacity_ratio, layer.e)
    if dropout_on is None:
        dropout_on = train
    values, rows, slots = [], [], []
    for j in range(decision.indices.shape[1]):
        ids_j = decision.indices[:, j]
        keep_j = ~decision.dropped_mask[:, j]
        for e in np.unique(ids_j[keep_j]):
            tokens = np.nonzero((ids_j == e) & keep_j)[0]
            mask = None
            if dropout_on and layer.dropout_rate > 0.0:
                u = rng.stream(*dropout_key, int(e), j).random(
                    (tokens.size, layer.experts[e].hidden_dim))
                mask = (u >= layer.dropout_rate).astype(np.float64) \
                    / (1.0 - layer.dropout_rate)
            values.append(layer.experts[int(e)].forward(take_rows(h, tokens),
                                                         mask))
            rows.append(tokens)
            slots.append(j)
    out = per_pair_combine(values, rows, slots, decision.weights,
                           h.data.shape[0], stack=layer.mode == "multihead")
    return out, decision


def _grads(tensors):
    return [np.zeros_like(t.data) if t.grad is None else t.grad
            for t in tensors]


class TestExpertDispatchBitwise:
    """expert_dispatch and layer_forward against the per-pair oracle: the
    values and every gradient, bit for bit."""

    def _dispatch_case(self, seed, n, n_slots, e, drop):
        # random (row, slot) -> expert assignments in pair order, some
        # dropped; experts not drawn stay unused
        gen = np.random.default_rng(seed)
        ids = gen.integers(0, e, size=(n, n_slots))
        kept = gen.random((n, n_slots)) >= drop
        rows, slots, segments = [], [], []
        for j in range(n_slots):
            for ex in np.unique(ids[kept[:, j], j]):
                r = np.nonzero((ids[:, j] == ex) & kept[:, j])[0]
                segments.append((int(ex), len(rows), len(rows) + r.size,
                                 r.size))
                rows += r.tolist()
                slots += [j] * r.size
        experts = [tuple(Tensor(gen.normal(size=sh), requires_grad=True)
                         for sh in [(3, 5), (5,), (5, 3), (3,)])
                   for _ in range(e)]
        leaf = Tensor(gen.normal(size=(n, 3)), requires_grad=True)
        gate_leaf = Tensor(gen.uniform(0.1, 1.0, size=(n, n_slots)),
                           requires_grad=True)
        mask = (gen.random((len(rows), 5)) >= 0.3) / 0.7
        return (leaf, gate_leaf, experts, np.array(rows, dtype=np.intp),
                np.array(slots, dtype=np.intp), segments, mask)

    # (seed, rows, slots, experts, drop probability)
    CASES = {"expert_in_3_segments": (30, 9, 3, 2, 0.0),
             "drops": (31, 12, 4, 3, 0.3),
             "1_row_segments_unused_experts": (32, 5, 3, 8, 0.2)}

    def test_cases_cover_their_names(self):
        _, _, _, _, _, segs, _ = self._dispatch_case(
            *self.CASES["expert_in_3_segments"])
        assert max(sum(e == ex for e, *_ in segs) for ex in range(2)) >= 3
        _, _, _, rows, _, _, _ = self._dispatch_case(*self.CASES["drops"])
        assert rows.size < 12 * 4
        _, _, _, _, _, segs, _ = self._dispatch_case(
            *self.CASES["1_row_segments_unused_experts"])
        assert any(hi - lo == 1 for _, lo, hi, _ in segs)
        assert len({e for e, *_ in segs}) < 8

    @pytest.mark.parametrize("stack", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_op_equals_per_pair(self, case, masked, stack):
        results = []
        for op in (expert_dispatch, per_pair_dispatch):
            leaf, gate_leaf, experts, rows, slots, segments, mask = \
                self._dispatch_case(*self.CASES[case])
            # non-leaf inputs, as in a layer
            x, weights = leaf * 1.5, gate_leaf * 0.5
            out = op(x, weights, experts, rows, slots, segments,
                     mask if masked else None, stack=stack)
            mult = np.random.default_rng(35).normal(size=out.data.shape)
            tsum(mul(out, Tensor(mult))).backward()
            params = [t for ex in experts for t in ex]
            results.append([out.data] + _grads([leaf, gate_leaf] + params))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dropout_on", [False, True])
    @pytest.mark.parametrize("mode,e,k,m,capacity", [
        ("only_partitioning", 8, 2, 2, None),  # 4 slots
        ("multihead", 4, 3, 1, None),          # 3 stacked slots
        ("moe", 4, 3, 1, 0.6),                 # 3 slots, drops
        ("pbe", 8, 2, 2, 0.8),
    ])
    def test_layer_equals_per_pair(self, mode, e, k, m, capacity,
                                   dropout_on):
        results = []
        for fn in (layer_forward, per_pair_layer_forward):
            gen = np.random.default_rng(33)
            layer = make_layer(gen, e=e, k=k, d=3, f=5, mode=mode, m=m,
                               noise=0.3)
            layer.capacity_ratio = capacity
            layer.dropout_rate = 0.4
            leaf = Tensor(gen.normal(size=(4, 4, 3)), requires_grad=True)
            h = reshape(leaf * 2.0, (16, 3))
            out, dec = fn(h, layer, Rng(8), train=True, dropout_on=dropout_on,
                          noise_key=("route", 1, 2),
                          dropout_key=("drop", 1, 2, -1))
            mult = np.random.default_rng(34).normal(size=out.data.shape)
            # the gate weights also feed a second consumer, as in the
            # balance losses
            (tsum(mul(out, Tensor(mult))) + tsum(dec.weights)).backward()
            params = [t for ex in layer.experts
                      for t in (ex.w1, ex.b1, ex.w2, ex.b2)]
            results.append([out.data, dec.dropped_mask]
                           + _grads([leaf, dec.weights]
                                    + list(layer.router.weights) + params))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


def _as_mask(mask, shape):
    """A mask as an array: no mask (rate 0) keeps every unit at scale 1."""
    return np.ones(shape) if mask is None else mask


class TestDropoutMask:
    """The mask from raw words equals the float mask the uniform draws
    give, (u >= rate) / (1 - rate), bit for bit, also when rows are cut
    from it; rate 0 gives no mask."""

    RATES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0 / 3.0, 0.999]

    @pytest.mark.parametrize("rate", RATES)
    def test_equals_uniform_draws(self, rate):
        rng = Rng(23)
        blocks = [(n, ("drop", 1, 5, -1, e)) for e, n in
                  enumerate([1, 999, 2000, 3000, 4000])]
        u = np.concatenate([rng.stream(*tags).random((n, 100))
                            for n, tags in blocks])
        want = (u >= rate).astype(np.float64) / (1.0 - rate)
        rows = np.arange(0, 10000, 7)
        sel = np.zeros(10000, dtype=bool)
        sel[rows] = True
        for cut, kept in ((None, want), (rows, want[rows]),
                          (sel, want[rows])):
            mask = dropout_mask(rng, rate, 100, blocks, cut)  # 10^6 draws
            assert (mask is None) == (rate == 0.0)
            assert _as_mask(mask, kept.shape).tobytes() == kept.tobytes()

    @pytest.mark.parametrize("rate", RATES + [2.0 ** -53, 0.5 - 2.0 ** -54])
    def test_threshold_words(self, rate):
        # the words on either side of the threshold, every low-bit pattern
        # that random() drops
        k = int(np.ceil(rate * 2.0 ** 53))
        high = [max(k + d, 0) for d in (-2, -1, 0, 1, 2)] + [2 ** 53 - 1]
        words = np.array([(h << 11) | low for h in high
                          for low in (0, 1, 1024, 2047)], dtype=np.uint64)

        class Words:  # an Rng whose every stream starts with these words
            def raw(self, shape, *tags):
                return words.reshape(shape)

        mask = dropout_mask(Words(), rate, words.size, [(1, ("t",))])
        u = (words >> np.uint64(11)) * 2.0 ** -53
        np.testing.assert_array_equal(
            _as_mask(mask, (1, words.size))[0] != 0.0, u >= rate)
