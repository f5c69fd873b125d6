"""Expert dispatch, tiling, the stacked-slot layer, and batch-ensemble
equivalences, each checked against a brute-force mixture oracle."""

import numpy as np
import pytest

from moelab.errors import ConfigError
from moelab.gradcheck import finite_difference_check
from moelab.layers import (
    BatchEnsembleDense,
    BeMLP,
    BeMoeView,
    ExpertMLP,
    MoELayer,
    be_dense_forward,
    layer_forward,
    split_members,
    tile,
    untile,
)
from moelab.rng import Rng
from moelab.routing import CapacityConfig, RouterParams
from moelab.tensor import Tensor, tsum


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
    def test_m1_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        assert tile(x, 1) is x

    def test_tile_layout(self):
        x = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(tile(x, 2), [[1], [2], [1], [2]])

    def test_untile_inverts_tile(self):
        gen = np.random.default_rng(0)
        for m in (1, 2, 3, 5):
            x = gen.normal(size=(4, 3))
            np.testing.assert_array_equal(untile(tile(x, m), m), x)

    def test_split_members_shape(self):
        x = np.arange(12.0).reshape(6, 2)
        out = split_members(x, 3)
        assert out.shape == (3, 2, 2)
        np.testing.assert_array_equal(out[1], x[2:4])

    def test_untile_rejects_bad_m(self):
        with pytest.raises(ConfigError):
            untile(np.zeros((5, 2)), 2)


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
        layer.capacity = CapacityConfig(0.5)
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

    def test_experts_checked_against_router_blocks(self):
        # the router blocks are the one record of M and E/M
        gen = np.random.default_rng(25)
        layer = make_layer(gen, e=6, k=1, mode="only_partitioning", m=2)
        with pytest.raises(ConfigError):
            MoELayer(experts=layer.experts[:4], router=layer.router, k=1,
                     mode="only_partitioning")
        with pytest.raises(ConfigError):
            MoELayer(experts=layer.experts, router=layer.router, k=1,
                     mode="moe")

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


class TestBatchEnsemble:
    def make_be(self, gen, d, l, m):
        return BatchEnsembleDense(
            u=Tensor(gen.normal(size=(d, l)), requires_grad=True),
            r=[Tensor(gen.normal(size=d), requires_grad=True) for _ in range(m)],
            s=[Tensor(gen.normal(size=l), requires_grad=True) for _ in range(m)],
        )

    def test_unit_fast_weights_match_dense(self):
        gen = np.random.default_rng(15)
        be = self.make_be(gen, 3, 2, 2)
        for mm in range(2):
            be.r[mm].data[:] = 1.0
            be.s[mm].data[:] = 1.0
        x = gen.normal(size=(4, 3))
        out = be_dense_forward(Tensor(tile(x, 2)), be)
        plain = x @ be.u.data
        np.testing.assert_allclose(out.data[:4], plain, atol=1e-12)
        np.testing.assert_allclose(out.data[4:], plain, atol=1e-12)

    def test_hand_example(self):
        be = BatchEnsembleDense(
            u=Tensor(np.ones((2, 2))),
            r=[Tensor(np.array([1.0, 2.0]))],
            s=[Tensor(np.array([3.0, 4.0]))],
        )
        out = be_dense_forward(Tensor(np.array([[1.0, 1.0]])), be)
        np.testing.assert_array_equal(out.data, [[9.0, 12.0]])

    def test_matches_materialized_weights(self):
        gen = np.random.default_rng(16)
        for _ in range(100):
            d = int(gen.integers(1, 6))
            l = int(gen.integers(1, 6))
            m = int(gen.integers(1, 4))
            b = int(gen.integers(1, 5))
            be = self.make_be(gen, d, l, m)
            x = gen.normal(size=(b, d))
            out = be_dense_forward(Tensor(tile(x, m)), be).data
            for mm in range(m):
                w_m = be.u.data * np.outer(be.r[mm].data, be.s[mm].data)
                np.testing.assert_allclose(out[mm * b:(mm + 1) * b], x @ w_m,
                                           atol=1e-12)

    def test_moe_view_equivalence(self):
        gen = np.random.default_rng(17)
        for _ in range(100):
            d = int(gen.integers(1, 5))
            l = int(gen.integers(1, 5))
            m = int(gen.integers(1, 4))
            be = self.make_be(gen, d, l, m)
            x = tile(gen.normal(size=(2, d)), m)
            view = BeMoeView(be)
            a = be_dense_forward(Tensor(x), be).data
            b = view.forward(x)
            assert np.abs(a - b).max() < 1e-12

    def test_moe_view_gates_binary_one_hot(self):
        gen = np.random.default_rng(18)
        be = self.make_be(gen, 3, 2, 3)
        g = BeMoeView(be).gates(6)
        assert set(np.unique(g)) == {0.0, 1.0}
        np.testing.assert_array_equal(g.sum(axis=1), 1.0)

    def test_m1_view_is_dense(self):
        gen = np.random.default_rng(19)
        be = self.make_be(gen, 3, 2, 1)
        x = gen.normal(size=(4, 3))
        view = BeMoeView(be)
        np.testing.assert_array_equal(view.gates(4), 1.0)
        w = be.u.data * np.outer(be.r[0].data, be.s[0].data)
        np.testing.assert_allclose(view.forward(x), x @ w, atol=1e-12)

    def test_mismatched_fast_weights_rejected(self):
        with pytest.raises(ConfigError):
            BatchEnsembleDense(u=Tensor(np.ones((2, 2))),
                               r=[Tensor(np.ones(2))], s=[])


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
        mlp = BeMLP(be1=be1,
                    b1=Tensor(gen.normal(size=5), requires_grad=True),
                    be2=be2,
                    b2=Tensor(gen.normal(size=3), requires_grad=True))
        x = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        params = [x, be1.u, be2.u, mlp.b1, mlp.b2] + be1.r + be1.s + be2.r + be2.s

        def f():
            return tsum(mlp.forward(x))

        self._check(f, params)
