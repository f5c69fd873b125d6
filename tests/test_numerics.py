"""Autodiff core: forward values against hand oracles, gradients against
central differences, and the stability/determinism contracts."""

import contextlib
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import moelab
from moelab.errors import ConfigError
from moelab.layers import tile
from moelab.rng import Rng
from moelab.tensor import (
    Tensor,
    add,
    attention,
    concat,
    dense,
    expert_dispatch,
    layernorm,
    matmul_rows,
    mlp,
    mul,
    no_grad,
    reshape,
    softmax,
    take_rows,
    transpose,
)
from moelab.tensor import _ERF_CHUNK, _erf, _phi

from oracles import (assert_bitwise, attention_reference, clamp_min,
                     dense_reference, finite_difference_check, gelu, log,
                     matmul, normal_cdf, take_cols, tmean, tsum)


def test_dense_hand_example():
    x = Tensor(np.array([[1.0, 1.0]]))
    w = Tensor(np.array([[3.0, 4.0], [6.0, 8.0]]))
    out = dense(x, w, Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [[9.0, 12.0]])


def test_dense_identity_weight():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    np.testing.assert_array_equal(dense(x, w, b).data, x.data)


def test_dense_zero_weight_gives_bias():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    w = Tensor(np.zeros((3, 5)))
    b = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    out = dense(x, w, b)
    for row in out.data:
        np.testing.assert_array_equal(row, b.data)


def test_dense_batch_concat_exact():
    # row independence: concatenating batches must not change any row
    gen = np.random.default_rng(1)
    xa, xb = gen.normal(size=(3, 4)), gen.normal(size=(5, 4))
    w = Tensor(gen.normal(size=(4, 2)))
    b = Tensor(gen.normal(size=2))
    out_a = dense(Tensor(xa), w, b).data
    out_b = dense(Tensor(xb), w, b).data
    out_ab = dense(Tensor(np.concatenate([xa, xb])), w, b).data
    np.testing.assert_array_equal(out_ab, np.concatenate([out_a, out_b]))


class TestDenseIsOneKernelSpan:
    """dense runs one span of the MLP kernel's affine layer; its values and
    gradients equal, bit for bit, those of the affine map with its own GEMM,
    bias and gradient code (oracles.dense_reference)."""

    def _run(self, op, x, w, b, c, x_grad):
        xt = Tensor(x, requires_grad=x_grad)
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = op(xt, wt, bt)
        if out.requires_grad:
            tsum(mul(out, Tensor(c))).backward()
        return out, [t.grad for t in (xt, wt, bt)]

    @pytest.mark.parametrize("x_shape,x_grad,grad_mode", [
        ((9, 5), True, True),
        ((4, 16, 48), True, True),  # the patch embedding's shape
        ((1, 7), True, True),  # one row: numpy runs gemv
        ((6, 5), False, True),  # the input needs no gradient
        ((6, 5), True, False),  # under no_grad
    ], ids=["2d", "3d", "one_row", "input_needs_no_grad", "no_grad"])
    def test_equals_reference(self, x_shape, x_grad, grad_mode):
        gen = np.random.default_rng(31)
        x = gen.normal(size=x_shape)
        w = gen.normal(size=(x_shape[-1], 6))
        b = gen.normal(size=6)
        c = gen.normal(size=(*x_shape[:-1], 6))
        mode = contextlib.nullcontext() if grad_mode else no_grad()
        with mode:
            want, want_grads = self._run(dense_reference, x, w, b, c, x_grad)
            got, got_grads = self._run(dense, x, w, b, c, x_grad)
        np.testing.assert_array_equal(got.data, want.data)
        assert got.requires_grad == grad_mode
        assert (got._parents == ()) == (not grad_mode)
        for g_got, g_want in zip(got_grads, want_grads):
            assert (g_got is None) == (g_want is None)
            if g_want is not None:
                np.testing.assert_array_equal(g_got, g_want)


class TestRowGemm:
    """The BLAS property the pruned eval forward rests on.

    An eval forward runs the last block's MLP on the class rows only, and
    keeps the bits of the full-row forward because a row of a GEMM with 2 or
    more rows has the same bits whatever the other rows are.  A 1-row
    operand is the exception: numpy runs it through gemv, whose
    accumulation order differs from gemm's, so a lone row cut from a longer
    operand must run as two rows (matmul_rows does).  The raw 1-row product
    is therefore not claimed here.  A numpy or BLAS upgrade that breaks the
    property fails these tests instead of moving the benchmark digests.
    """

    # (D, F) of the model's GEMMs: hidden 32 into an MLP of 64 or 128, back
    # out, and wider operands of the same kind
    SHAPES = [(32, 64), (64, 32), (32, 128), (128, 32), (64, 64),
              (128, 128)]
    ROWS = [2, 3, 5, 16, 65, 320, 640]

    @pytest.mark.parametrize("d,f", SHAPES)
    def test_row_subsets_keep_their_bits(self, d, f):
        gen = np.random.default_rng(d * 1000 + f)
        w = gen.normal(size=(d, f))
        for n in self.ROWS:
            a = gen.normal(size=(n, d))
            full = a @ w
            for _ in range(6):
                size = int(gen.integers(2, n + 1))
                idx = np.sort(gen.choice(n, size=size, replace=False))
                got = a[idx] @ w
                assert got.tobytes() == full[idx].tobytes(), (n, size)

    @pytest.mark.parametrize("d,f", SHAPES)
    def test_lone_row_runs_as_two(self, d, f):
        gen = np.random.default_rng(d * 1000 + f + 1)
        w = gen.normal(size=(d, f))
        for n in self.ROWS:
            a = gen.normal(size=(n, d))
            full = a @ w
            for i in gen.choice(n, size=min(n, 4), replace=False):
                got = matmul_rows(a[i:i + 1], w, n)
                assert got.tobytes() == full[i:i + 1].tobytes(), (n, i)
                out = np.empty((1, f))
                assert matmul_rows(a[i:i + 1], w, n, out=out) is out
                assert out.tobytes() == full[i:i + 1].tobytes()

    def test_alone_row_stays_on_gemv(self):
        gen = np.random.default_rng(2)
        a, w = gen.normal(size=(1, 32)), gen.normal(size=(32, 64))
        for full_rows in (None, 1):
            got = matmul_rows(a, w, full_rows)
            assert got.tobytes() == (a @ w).tobytes()


def test_softmax_uniform():
    out = softmax(Tensor(np.zeros((1, 3))))
    np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_hand_example():
    out = softmax(Tensor(np.array([[2.0, 1.0, 0.0]])))
    np.testing.assert_allclose(out.data, [[0.66524, 0.24473, 0.09003]],
                               atol=1e-4)


def test_softmax_single_element_row():
    for x in (-50.0, 0.0, 3.2, 700.0):
        out = softmax(Tensor(np.array([[x]])))
        np.testing.assert_array_equal(out.data, [[1.0]])


def test_softmax_rows_sum_to_one():
    gen = np.random.default_rng(2)
    z = gen.normal(scale=30.0, size=(50, 7))
    out = softmax(Tensor(z)).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    gen = np.random.default_rng(3)
    z = gen.normal(size=(20, 5))
    base = softmax(Tensor(z)).data
    shifted = softmax(Tensor(z + 123.456)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_large_logits_stable():
    out = softmax(Tensor(np.array([[1000.0, 999.0, 0.0]]))).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_gaussian_noise_deterministic():
    a = Rng(7).stream("route", 0, 0).normal(size=(4, 5))
    b = Rng(7).stream("route", 0, 0).normal(size=(4, 5))
    np.testing.assert_array_equal(a, b)


def test_gaussian_noise_moments():
    x = Rng(11).stream("noise").normal(size=100000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


def test_gaussian_noise_empty_shape():
    x = Rng(0).stream("noise").normal(size=0)
    assert x.shape == (0,)


def check_grads(f, params, tol=1e-4):
    err = finite_difference_check(f, params)
    assert err < tol, f"max rel err {err:.3e}"


class TestGradients:
    """Every backward rule against central differences on small shapes."""
    def test_dense_grad(self):
        gen = np.random.default_rng(10)
        x = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(gen.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(gen.normal(size=2), requires_grad=True)
        check_grads(lambda: tsum(dense(x, w, b)), [x, w, b], tol=1e-6)

    def test_constant_grad_is_zero(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = tsum(mul(x, Tensor(np.zeros((2, 2)))))
        out.backward()
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_nll_two_class_head(self):
        gen = np.random.default_rng(12)
        x = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(gen.normal(size=(3, 2)), requires_grad=True)

        def f():
            probs = softmax(dense(x, w, Tensor(np.zeros(2))))
            picked = take_cols(probs, np.array([0, 1, 1, 0]))
            return mul(tsum(log(picked)), Tensor(-0.25))

        check_grads(f, [x, w], tol=1e-5)

    @pytest.mark.parametrize("op", ["add", "mul", "matmul",
                                    "log", "clamp", "gelu", "cdf", "ln",
                                    "softmax", "mean", "reshape", "transpose",
                                    "concat", "tile", "take_rows",
                                    "take_cols"])
    def test_each_op(self, op):
        gen = np.random.default_rng(zlib.crc32(op.encode()))
        a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(gen.normal(size=(4, 2)), requires_grad=True)
        pos = Tensor(np.abs(gen.normal(size=(3, 4))) + 0.5,
                     requires_grad=True)
        # fixed multipliers: closures must be deterministic across calls
        m43 = Tensor(gen.normal(size=(4, 3)))
        m64 = Tensor(gen.normal(size=(6, 4)))
        fns = {
            "add": (lambda: tsum(add(a, b)), [a, b]),
            "mul": (lambda: tsum(mul(a, b)), [a, b]),
            "matmul": (lambda: tsum(matmul(a, c)), [a, c]),
            "log": (lambda: tsum(log(pos)), [pos]),
            "clamp": (lambda: tsum(clamp_min(mul(a, a), 0.5)), [a]),
            "gelu": (lambda: tsum(gelu(a)), [a]),
            "cdf": (lambda: tsum(normal_cdf(a)), [a]),
            # weighted: every normalized row sums to 0, so an unweighted
            # sum has a gradient of exactly 0 and leaves roundoff to compare
            "ln": (lambda: tsum(mul(layernorm(
                a, Tensor(np.ones(4), requires_grad=True),
                Tensor(np.zeros(4), requires_grad=True)), b)), [a, b]),
            "softmax": (lambda: tsum(mul(softmax(a), b)), [a, b]),
            "mean": (lambda: tmean(mul(a, a)), [a]),
            "reshape": (lambda: tsum(mul(reshape(a, (4, 3)),
                                         reshape(b, (4, 3)))), [a, b]),
            "transpose": (lambda: tsum(mul(transpose(a, (1, 0)), m43)), [a]),
            "concat": (lambda: tsum(mul(concat([a, b], axis=0), m64)),
                       [a, b]),
            "tile": (lambda: tsum(mul(tile(a, 2), m64)), [a]),
            "take_rows": (lambda: tsum(take_rows(a, np.array([2, 0]))),
                          [a]),
            "take_cols": (lambda: tsum(take_cols(a, np.array([1, 3, 0]))),
                          [a]),
        }
        f, params = fns[op]
        check_grads(f, params)


class TestAttentionNode:
    """tensor.attention against the composition it replaces
    (oracles.attention_reference): the value and the gradients of x and of
    all 8 projection parameters, bit for bit, under an upstream gradient
    other than 1."""

    # name: (heads, images, tokens)
    CASES = {f"h{h}_b{b}_t{t}": (h, b, t)
             for h in (1, 2, 4) for b in (1, 3) for t in (5, 17)}

    def _run(self, fn, case):
        heads, images, tokens = self.CASES[case]
        gen = np.random.default_rng(zlib.crc32(case.encode()))
        d = 8
        x = Tensor(gen.normal(size=(images * tokens, d)), requires_grad=True)
        params = tuple(Tensor(gen.normal(size=shape), requires_grad=True)
                       for _ in "qkvo" for shape in ((d, d), (d,)))
        upstream = Tensor(gen.normal(size=x.data.shape))
        out = fn(x, params, heads, tokens)
        tsum(mul(out, upstream)).backward()
        return out, (x, *params)

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_composition(self, case):
        got, got_inputs = self._run(attention, case)
        want, want_inputs = self._run(attention_reference, case)
        assert_bitwise(got.data, want.data)
        for g, w in zip(got_inputs, want_inputs):
            assert_bitwise(g.grad, w.grad)
        assert len(got._parents) == 9
        with no_grad():
            untaped = attention(got_inputs[0], got_inputs[1:],
                                *self.CASES[case][::2])
        assert_bitwise(untaped.data, got.data)


class TestFusedOps:
    """mlp and expert_dispatch: central differences, hand oracles, and mlp
    against the dense/gelu/mul/dense composition it replaces (the per-pair
    oracle of expert_dispatch is in test_moe_layers.py)."""

    def _mlp_params(self, seed):
        gen = np.random.default_rng(seed)
        shapes = [(5, 3), (3, 6), (6,), (6, 2), (2,)]
        return [Tensor(gen.normal(size=s), requires_grad=True) for s in shapes]

    def _mask(self, seed):
        u = np.random.default_rng(seed).random((5, 6))
        return (u >= 0.3).astype(np.float64) / 0.7

    @pytest.mark.parametrize("masked", [False, True])
    def test_mlp_grad(self, masked):
        params = self._mlp_params(40)
        mask = self._mask(41) if masked else None
        m52 = Tensor(np.random.default_rng(42).normal(size=(5, 2)))
        check_grads(lambda: tsum(mul(mlp(*params, mask), m52)), params)

    @pytest.mark.parametrize("masked", [False, True])
    def test_mlp_bitwise_equals_composition(self, masked):
        mask = self._mask(44) if masked else None
        m52 = np.random.default_rng(45).normal(size=(5, 2))
        results = []
        for fused in (True, False):
            x, w1, b1, w2, b2 = params = self._mlp_params(43)
            if fused:
                y = mlp(x, w1, b1, w2, b2, mask)
            else:
                hidden = gelu(dense(x, w1, b1))
                if mask is not None:
                    hidden = hidden * Tensor(mask)
                y = dense(hidden, w2, b2)
            tsum(mul(y, Tensor(m52))).backward()
            results.append([y.data] + [p.grad for p in params])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def _dispatch_case(self):
        # 4 rows, 3 slots over 3 experts: row 3 is dropped in slot 0, slot 2
        # is empty, expert 2 is unused and (slot 0, expert 1) has one row
        gen = np.random.default_rng(46)
        experts = [tuple(Tensor(gen.normal(size=s), requires_grad=True)
                         for s in [(2, 3), (3,), (3, 2), (2,)])
                   for _ in range(3)]
        rows = np.array([0, 2, 1, 3, 1, 0, 2])
        slots = np.array([0, 0, 0, 1, 1, 1, 1])
        segments = [(0, 0, 2, 2), (1, 2, 3, 1), (0, 3, 5, 2), (1, 5, 7, 2)]
        x = Tensor(gen.normal(size=(4, 2)), requires_grad=True)
        weights = Tensor(gen.uniform(0.1, 1.0, size=(4, 3)),
                         requires_grad=True)
        mask = (gen.random((7, 3)) >= 0.3) / 0.7
        return x, weights, experts, rows, slots, segments, mask

    @pytest.mark.parametrize("stack", [False, True])
    def test_expert_dispatch_grad(self, stack):
        x, weights, experts, rows, slots, segments, mask = \
            self._dispatch_case()
        shape = (4, 3, 2) if stack else (4, 2)
        mult = Tensor(np.random.default_rng(47).normal(size=shape))

        def f():
            return tsum(mul(expert_dispatch(x, weights, experts, rows, slots,
                                            segments, mask, stack=stack),
                            mult))

        check_grads(f, [x, weights] + [t for ex in experts for t in ex])

    def test_expert_dispatch_values(self):
        x, weights, experts, rows, slots, segments, mask = \
            self._dispatch_case()
        stacked = expert_dispatch(x, weights, experts, rows, slots, segments,
                                  mask, stack=True).data
        want = np.zeros((4, 3, 2))
        for e, lo, hi, _ in segments:
            r, s = rows[lo:hi], slots[lo]
            y = mlp(Tensor(x.data[r]), *experts[e], mask[lo:hi]).data
            want[r, s] = y * weights.data[r, s][:, None]
        np.testing.assert_array_equal(stacked, want)
        np.testing.assert_array_equal(stacked[3, 0], 0.0)
        np.testing.assert_array_equal(stacked[:, 2], 0.0)
        summed = expert_dispatch(x, weights, experts, rows, slots, segments,
                                 mask).data
        np.testing.assert_array_equal(
            summed, stacked[:, 0] + stacked[:, 1] + stacked[:, 2])

    def test_expert_dispatch_builds_no_tape_under_no_grad(self):
        x, weights, experts, rows, slots, segments, mask = \
            self._dispatch_case()
        taped = expert_dispatch(x, weights, experts, rows, slots, segments,
                                mask)
        assert taped.requires_grad and taped._backward is not None
        with no_grad():
            bare = expert_dispatch(x, weights, experts, rows, slots,
                                   segments, mask)
        assert not bare.requires_grad
        assert bare._parents == () and bare._backward is None
        np.testing.assert_array_equal(bare.data, taped.data)


def test_layernorm_rows_standardized():
    gen = np.random.default_rng(20)
    x = Tensor(gen.normal(loc=3.0, scale=5.0, size=(6, 8)))
    out = layernorm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-3)


def test_softmax_empty_last_axis_rejected():
    with pytest.raises((ConfigError, ValueError)):
        softmax(Tensor(np.zeros((2, 0))))


def test_finite_difference_check_reports_nonfinite():
    from moelab.errors import EvaluationError

    x = Tensor(np.ones((2, 2)), requires_grad=True)

    def f():
        return tsum(log(add(x, Tensor(-10.0))))

    with pytest.raises(EvaluationError):
        finite_difference_check(f, [x])


_C = 1.0 / np.sqrt(2.0)


def _old_cdf(x):
    return 0.5 * (1.0 + special.erf(x * _C))


class TestInPlaceOps:
    """Each op that works in place on its own temporaries equals the
    out-of-place expression it replaced, bit for bit, with and without a
    tape."""

    SHAPES = [(1, 1), (3, 5), (7, 33), (2, 4, 17), (64, 31)]

    @pytest.fixture(params=[False, True], ids=["tape", "no_grad"])
    def mode(self, request):
        return no_grad() if request.param else contextlib.nullcontext()

    def _x(self, shape, seed):
        gen = np.random.default_rng(seed)
        return gen.normal(scale=gen.uniform(0.1, 10.0), size=shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dense(self, shape, mode):
        x = self._x(shape, 1)
        gen = np.random.default_rng(2)
        w, b = gen.normal(size=(shape[-1], 6)), gen.normal(size=6)
        with mode:
            got = dense(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
        np.testing.assert_array_equal(got.data, x @ w + b)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layernorm(self, shape, mode):
        x = self._x(shape, 3)
        gen = np.random.default_rng(4)
        g, b = gen.normal(size=shape[-1]), gen.normal(size=shape[-1])
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + 1e-6)) * g + b
        with mode:
            got = layernorm(Tensor(x, requires_grad=True), Tensor(g),
                            Tensor(b))
        np.testing.assert_array_equal(got.data, want)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax(self, shape, axis, mode):
        x = self._x(shape, 5)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        with mode:
            got = softmax(Tensor(x, requires_grad=True), axis=axis)
        np.testing.assert_array_equal(got.data,
                                      e / e.sum(axis=axis, keepdims=True))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_and_normal_cdf(self, shape, mode):
        x = self._x(shape, 6)
        with mode:
            act = gelu(Tensor(x, requires_grad=True))
        np.testing.assert_array_equal(act.data, x * _old_cdf(x))
        np.testing.assert_array_equal(_phi(x), _old_cdf(x))

    @pytest.mark.parametrize("shape", [(1, 3), (9, 5), (2, 7, 5)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_mlp(self, shape, masked, mode):
        x = self._x(shape, 7)
        gen = np.random.default_rng(8)
        w1, b1 = gen.normal(size=(shape[-1], 11)), gen.normal(size=11)
        w2, b2 = gen.normal(size=(11, 4)), gen.normal(size=4)
        mask = None
        if masked:
            u = gen.random(shape[:-1] + (11,))
            mask = (u >= 0.3).astype(np.float64) / 0.7
        x2 = x.reshape(-1, shape[-1])
        pre = x2 @ w1 + b1
        hid = pre * _old_cdf(pre)
        if masked:
            hid = hid * mask.reshape(-1, 11)
        want = (hid @ w2 + b2).reshape(shape[:-1] + (4,))
        with mode:
            got = mlp(Tensor(x, requires_grad=True), Tensor(w1), Tensor(b1),
                      Tensor(w2), Tensor(b2), mask)
        np.testing.assert_array_equal(got.data, want)

    def test_inputs_untouched(self):
        gen = np.random.default_rng(9)
        arrays = [gen.normal(size=s) for s in
                  [(4, 3), (3, 5), (5,), (5, 2), (2,), (3,), (3,)]]
        x, w1, b1, w2, b2, g, b = [Tensor(a.copy(), requires_grad=True)
                                   for a in arrays]
        mask = np.full((4, 5), 2.0)
        gate = Tensor(np.full((4, 2), 0.5), requires_grad=True)
        rows, slots = np.array([0, 2, 1, 3]), np.array([0, 0, 1, 1])
        for out in (dense(x, w1, b1), layernorm(x, g, b), softmax(x),
                    gelu(x), normal_cdf(x), mlp(x, w1, b1, w2, b2, mask),
                    expert_dispatch(x, gate, [(w1, b1, w2, b2)], rows, slots,
                                    [(0, 0, 2, 2), (0, 2, 4, 2)], mask)):
            tsum(out).backward()
        for t, a in zip((x, w1, b1, w2, b2, g, b), arrays):
            np.testing.assert_array_equal(t.data, a)
        np.testing.assert_array_equal(mask, 2.0)
        np.testing.assert_array_equal(gate.data, 0.5)


class TestErf:
    """The in-house erf and the normal CDF built on it equal scipy's cephes
    erf bit for bit, NaN included, and leave their input alone."""

    SPECIAL = np.array([
        0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
        8.0, -8.0, np.nextafter(8.0, 0.0), np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 2.0e-308, -2.0e-308, np.sqrt(709.782712893384),
        np.nextafter(np.sqrt(709.782712893384), 30.0), 1e308, -1e308])

    @staticmethod
    def _check(x):
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, cdf = _erf(x), _phi(x)
        want = special.erf(x)
        assert got.shape == x.shape and cdf.shape == x.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(cdf.view(np.uint64),
                                      _old_cdf(x).view(np.uint64))
        np.testing.assert_array_equal(x.view(np.uint64),
                                      before.view(np.uint64))

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (1.0, 8.0), (8.0, 26.7),
                                       (26.7, None)],
                             ids=["near", "mid", "far", "underflow"])
    def test_branches(self, lo, hi):
        gen = np.random.default_rng(int(lo * 10))
        n = 1_000_000
        if hi is None:  # log-spread from 26.7 up to 1e301
            mag = lo * 10.0 ** gen.uniform(0.0, 300.0, n)
        else:
            mag = gen.uniform(lo, hi, n)
        self._check(np.where(gen.random(n) < 0.5, -mag, mag))

    def test_special_values(self):
        self._check(self.SPECIAL)
        self._check(self.SPECIAL[::-1].reshape(3, 7))

    @pytest.mark.parametrize("shape", [
        (_ERF_CHUNK - 1,), (_ERF_CHUNK,), (_ERF_CHUNK + 1,), (0,), (),
        (7, 33), (3, _ERF_CHUNK // 2 + 5), (2, 5, _ERF_CHUNK // 8 + 1)])
    def test_shapes_and_chunk_edges(self, shape):
        gen = np.random.default_rng(len(shape))
        x = gen.normal(scale=2.0, size=shape)
        self._check(x)
        if x.size:  # a tail element only in the last chunk
            y = np.clip(x, -1.0, 1.0).reshape(-1)
            y[-1] = -3.5
            self._check(y.reshape(shape))

    def test_noncontiguous_input(self):
        x = np.random.default_rng(3).normal(scale=2.0, size=(40, 30))
        self._check(x.T)
        self._check(x[::3, 1::2])

    def test_in_place(self):
        x = np.random.default_rng(4).normal(scale=2.0, size=(5, 9))
        want = special.erf(x)
        assert _erf(x, out=x) is x
        np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))


def test_import_loads_no_scipy():
    code = ("import sys, moelab, moelab.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(moelab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


class TestNoGrad:
    def test_results_carry_no_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2))
        with no_grad():
            y = tsum(softmax(dense(x, w, b)))
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        assert tsum(dense(x, w, b)).requires_grad

    def test_nested_blocks_restore_mode(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not tsum(x).requires_grad
        assert tsum(x).requires_grad
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert tsum(x).requires_grad

    def test_backward_without_tape_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = tsum(x)
        with pytest.raises(ValueError, match="no tape"):
            y.backward()
        with pytest.raises(ValueError, match="no tape"):
            tsum(Tensor(np.ones(2))).backward()
        assert x.grad is None

    def test_first_gradient_kept_not_copied(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        x._accum(g)
        assert x.grad is g
        x._accum(g)
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_backward_releases_nonleaf_grads(self):
        gen = np.random.default_rng(21)
        x = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(gen.normal(size=(4, 2)), requires_grad=True)
        h = dense(x, w, Tensor(np.zeros(2)))
        y = softmax(h)
        loss = tsum(mul(y, y))
        loss.backward()
        assert h.grad is None and y.grad is None and loss.grad is None
        # the leaves keep theirs: d/dh of sum(y^2) through the softmax
        p = y.data
        g_h = p * (2.0 * p - (2.0 * p * p).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(x.grad, g_h @ w.data.T, rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.data.T @ g_h, rtol=1e-12)

    def test_bound_gradient_added_in_place(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        buf = np.zeros(2)
        x.accumulate_into(buf)
        for _ in range(2):
            tsum(mul(x, x)).backward()
        assert x.grad is buf
        np.testing.assert_array_equal(buf, [4.0, -8.0])
        # a first contribution of -0.0 lands as +0.0 in the zeroed buffer
        z = Tensor(np.zeros(1), requires_grad=True)
        z.accumulate_into(np.zeros(1))
        z._accum(np.array([-0.0]))
        assert not np.signbit(z.grad[0])
        x.accumulate_into(None)
        assert x.grad is None
        g = np.ones(2)
        x._accum(g)
        x._accum(g)
        assert x.grad is not g and g.tolist() == [1.0, 1.0]

    def test_shared_gradient_array_never_written(self):
        # add hands the same gradient array to both parents; accumulating
        # more into one of them must not change the other
        for shared_first in (True, False):
            a = Tensor(np.ones(3), requires_grad=True)
            b = Tensor(np.ones(3), requires_grad=True)
            terms = [add(a, b), mul(a, Tensor(2.0))]
            if not shared_first:
                terms.reverse()
            tsum(add(*terms)).backward()
            np.testing.assert_array_equal(a.grad, 3.0)
            np.testing.assert_array_equal(b.grad, 1.0)


def test_gradcheck_reevaluations_build_no_tape():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    taped = []

    def f():
        y = tsum(mul(x, x))
        taped.append(y.requires_grad)
        return y

    assert finite_difference_check(f, [x]) < 1e-6
    assert taped == [True] + [False] * 4
