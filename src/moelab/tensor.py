"""Reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional gradient and a backward
closure.  Ops build a DAG; ``loss.backward()`` topologically sorts it and
calls each node's closure with that node's gradient, accumulating
vector-Jacobian products into every tensor created with
``requires_grad=True``.  A closure holds its inputs but never its own output,
so the tape has no reference cycles: it is freed by reference counting as
soon as the loss (or an eval forward's outputs) is dropped, without waiting
for the cyclic garbage collector.

The op set is exactly what the transformer and its losses need: dense/matmul,
softmax, layernorm, GELU, the normal CDF, elementwise arithmetic,
reductions, reshapes, concatenation, and row and column gathers.  Two fused
ops keep the MLPs short, each one node whose values and gradients are
bitwise those of the composition it replaces: ``mlp`` (dense -> GELU ->
dropout -> dense) and ``expert_dispatch``, which runs every expert of a MoE
layer on the rows routed to it and gate-weights and sums their outputs.
A MoE layer therefore adds one expert node to the tape, whatever its
number of experts and slots.

Inside a ``no_grad()`` block no tape is built: every op returns a bare
result with no parents and no backward closure, so the intermediates an op
keeps for its backward are freed as soon as the op returns.  Eval forwards
run this way; calling ``backward()`` on such a result raises ``ValueError``.

Ops compute their forward in place on arrays they have just allocated (bias
adds, the normal CDF, the dropout mask product, normalisation), in both
modes, with the same roundings as the out-of-place expressions; they never
write an input's array.  A first gradient is stored as given, not copied, and later ones are
added out of place, so an array handed to several ``_accum`` calls is never
written.

Everything is 64-bit.  At desk scale the cost is per-node Python work, not
FLOPs, and the extra precision keeps finite-difference gradient checks and the
bitwise-equality reductions honest.
"""
from __future__ import annotations

import contextlib
import contextvars

import numpy as np
from scipy import special as _special

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: op results carry no parents and no
    backward closure, whatever their inputs require."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back down to `shape`."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    # plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        g = _sum_to_shape(_as_array(g), self.data.shape)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Run reverse-mode accumulation from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no tape: nothing "
                             "it depends on requires grad, or it was built "
                             "under no_grad()")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # operator sugar

    def __add__(self, other):
        return add(self, _ensure(other))

    def __radd__(self, other):
        return add(_ensure(other), self)

    def __sub__(self, other):
        return sub(self, _ensure(other))

    def __rsub__(self, other):
        return sub(_ensure(other), self)

    def __mul__(self, other):
        return mul(self, _ensure(other))

    def __rmul__(self, other):
        return mul(_ensure(other), self)

    def __truediv__(self, other):
        return div(self, _ensure(other))

    def __rtruediv__(self, other):
        return div(_ensure(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _ensure(other))

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Create an op result, wiring the graph only when a parent needs grads
    and grad mode is on."""
    out = Tensor(data)
    if not _grad_enabled.get():
        return out
    live = tuple(p for p in parents if p.requires_grad)
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(grad):
        a._accum(grad)
        b._accum(grad)

    return _node(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(grad):
        a._accum(grad)
        b._accum(-grad)

    return _node(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(grad):
        a._accum(grad * b.data)
        b._accum(grad * a.data)

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(grad):
        a._accum(grad / b.data)
        b._accum(-grad * a.data / (b.data * b.data))

    return _node(out_data, (a, b), backward)


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out_data = a.data ** p

    def backward(grad):
        a._accum(grad * p * a.data ** (p - 1.0))

    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(grad):
        a._accum(grad / a.data)

    return _node(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(grad):
        a._accum(grad * out_data)

    return _node(out_data, (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where the input was above."""
    out_data = np.maximum(a.data, floor)
    mask = a.data > floor

    def backward(grad):
        a._accum(grad * mask)

    return _node(out_data, (a,), backward)


# ----------------------------------------------------------------------
# matrix ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics; batch dims broadcast, grads reduced back."""
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        a._accum(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b._accum(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _node(out_data, (a, b), backward)


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x @ w + b, with w of shape (in, out)."""
    d_in, d_out = w.data.shape
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    out_data = x2 @ w.data
    if b is not None:
        out_data += b.data
    out_data = out_data.reshape(*lead, d_out)

    def backward(grad):
        g2 = grad.reshape(-1, d_out)
        x._accum((g2 @ w.data.T).reshape(x.data.shape))
        w._accum(x2.T @ g2)
        if b is not None:
            b._accum(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _node(out_data, parents, backward)


# ----------------------------------------------------------------------
# reductions


def _unreduce(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        a._accum(_unreduce(grad, a.data.shape, axis, keepdims))

    return _node(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / out_data.size

    def backward(grad):
        a._accum(_unreduce(grad, a.data.shape, axis, keepdims) / count)

    return _node(out_data, (a,), backward)


# ----------------------------------------------------------------------
# nonlinearities


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    p = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)

    def backward(g):
        a._accum(p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _node(p, (a,), backward)


def _phi(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt 2)) as a new array, computed in place."""
    cdf = x * _INV_SQRT2
    _special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density exp(-x^2 / 2) / sqrt(2 pi)."""
    return np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi the standard normal CDF."""
    cdf = _phi(a.data)
    out_data = a.data * cdf

    def backward(grad):
        a._accum(grad * (cdf + a.data * _pdf(a.data)))

    return _node(out_data, (a,), backward)


def normal_cdf(a: Tensor) -> Tensor:
    """Standard normal CDF, used by the load-balancing loss."""

    def backward(grad):
        a._accum(grad * _pdf(a.data))

    return _node(_phi(a.data), (a,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    # the variance takes numpy's var steps on the centred rows already held
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True)
    var /= x.data.shape[-1]
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        lead_axes = tuple(range(g.ndim - 1))
        gain._accum((g * xhat).sum(axis=lead_axes))
        bias._accum(g.sum(axis=lead_axes))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accum((dxhat - m1 - xhat * m2) * inv)

    return _node(out_data, (x, gain, bias), backward)


# ----------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(grad):
        a._accum(grad.reshape(a.data.shape))

    return _node(out_data, (a,), backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    out_data = a.data.transpose(axes)

    def backward(grad):
        inverse = sorted(range(len(axes)), key=axes.__getitem__)
        a._accum(grad.transpose(inverse))

    return _node(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        idx = [slice(None)] * g.ndim
        lo = 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            idx[axis] = slice(lo, hi)
            t._accum(g[tuple(idx)])
            lo = hi

    return _node(out_data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# gathers


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows: out[i] = x[idx[i]].  Repeats allowed."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = x.data[idx]

    def backward(grad):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, grad)
        x._accum(gx)

    return _node(out_data, (x,), backward)


def take_cols(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis of a 2D tensor: out[i, j] = x[i, idx[i, j]]."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.data.shape[0])[:, None]
    out_data = x.data[rows, idx]

    def backward(grad):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, idx), grad)
        x._accum(gx)

    return _node(out_data, (x,), backward)


# ----------------------------------------------------------------------
# fused MLP ops: one node each, bitwise equal to the ops they replace


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        mask: np.ndarray | None = None) -> Tensor:
    """dense -> exact GELU -> optional dropout mask -> dense, as one node.

    Forward and backward use the expressions of dense, gelu and mul, so the
    output and all five gradients equal those of the composition bitwise.
    mask, if given, has the hidden shape (..., F).
    """
    d_in, d_hid = w1.data.shape
    d_out = w2.data.shape[1]
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    if mask is not None:
        mask = mask.reshape(-1, d_hid)
    pre = x2 @ w1.data
    pre += b1.data
    cdf = _phi(pre)
    hid = pre * cdf
    if mask is not None:
        hid *= mask
    out_data = hid @ w2.data
    out_data += b2.data
    out_data = out_data.reshape(*lead, d_out)

    def backward(grad):
        g2 = grad.reshape(-1, d_out)
        g_hid = g2 @ w2.data.T
        w2._accum(hid.T @ g2)
        b2._accum(g2.sum(axis=0))
        if mask is not None:
            g_hid = g_hid * mask
        g_pre = g_hid * (cdf + pre * _pdf(pre))
        x._accum((g_pre @ w1.data.T).reshape(x.data.shape))
        w1._accum(x2.T @ g_pre)
        b1._accum(g_pre.sum(axis=0))

    return _node(out_data, (x, w1, b1, w2, b2), backward)


def expert_dispatch(x: Tensor, weights: Tensor, experts: list,
                    rows: np.ndarray, slots: np.ndarray, segments: list,
                    mask: np.ndarray | None = None,
                    stack: bool = False) -> Tensor:
    """Run every expert of a MoE layer and combine by gate weight, as one node.

    x is the (N, D) layer input, weights the (N, S) gate weights and experts
    the layer's (w1, b1, w2, b2) tuples.  The R kept (row, slot) assignments
    are rows[a] and slots[a]; a (row, slot) pair appears at most once.  Each
    segment (e, lo, hi) runs assignments lo:hi through experts[e].  mask, if
    given, is the (R, F) dropout mask of the hidden units.

    Every segment computes mlp(x[rows], ...) with its own GEMMs; GELU, the
    mask and the combine run once over all R assignments.  Slot s of row r is
    the expert output times weights[r, s], or 0 where no assignment holds it
    (a dropped assignment or an empty slot).  The (N, S, Q) slot buffer is
    returned as is when stack is set, else its slots are summed left to
    right into (N, Q).

    Values and gradients equal bitwise those of one take_rows and one mlp
    per segment followed by a per-segment gate-and-combine, with backward
    visiting the segments in the order given: that order fixes how an expert
    serving several segments, and a row in several slots, accumulate their
    gradients.
    """
    spans = [(experts[e], lo, hi) for e, lo, hi in segments]
    gate = weights.data[rows, slots][:, None]
    xs = x.data[rows]
    pre = np.empty((rows.size, experts[0][0].data.shape[1]))
    for (w1, b1, _, _), lo, hi in spans:
        np.matmul(xs[lo:hi], w1.data, out=pre[lo:hi])
        pre[lo:hi] += b1.data
    cdf = _phi(pre)
    hid = pre * cdf
    if mask is not None:
        hid *= mask
    ys = np.empty((rows.size, experts[0][2].data.shape[1]))
    for (_, _, w2, b2), lo, hi in spans:
        np.matmul(hid[lo:hi], w2.data, out=ys[lo:hi])
        ys[lo:hi] += b2.data
    buf = np.zeros(weights.data.shape + ys.shape[1:])
    buf[rows, slots] += ys * gate  # +=, not =: a -0.0 product lands as 0.0
    if stack:
        out_data = buf
    else:
        out_data = buf[:, 0]
        for s in range(1, buf.shape[1]):
            out_data = out_data + buf[:, s]

    def backward(grad):
        g = grad[rows, slots] if stack else grad[rows]
        g_w = np.zeros_like(weights.data)
        g_w[rows, slots] += (g * ys).sum(axis=1)
        weights._accum(g_w)
        g *= gate
        g_hid = np.empty_like(hid)
        for (_, _, w2, b2), lo, hi in spans:
            np.matmul(g[lo:hi], w2.data.T, out=g_hid[lo:hi])
            w2._accum(hid[lo:hi].T @ g[lo:hi])
            b2._accum(g[lo:hi].sum(axis=0))
        if mask is not None:
            g_hid *= mask
        g_pre = g_hid * (cdf + pre * _pdf(pre))
        g_xs = np.empty_like(xs)
        for (w1, b1, _, _), lo, hi in spans:
            np.matmul(g_pre[lo:hi], w1.data.T, out=g_xs[lo:hi])
            w1._accum(xs[lo:hi].T @ g_pre[lo:hi])
            b1._accum(g_pre[lo:hi].sum(axis=0))
        g_x = np.zeros_like(x.data)
        np.add.at(g_x, rows, g_xs)
        x._accum(g_x)

    params = [t for ex in experts for t in ex]
    return _node(out_data, (x, *params, weights), backward)
