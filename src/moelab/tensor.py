"""Reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional gradient and a backward
closure.  Ops build a DAG; ``loss.backward()`` topologically sorts it and
accumulates vector-Jacobian products into every tensor created with
``requires_grad=True``.  The op set is exactly what the transformer and its
losses need: dense/matmul, softmax, layernorm, GELU, the normal CDF,
elementwise arithmetic, reductions, reshapes, concatenation, and the row and
column gathers/scatters used by expert dispatch.

Everything is 64-bit.  Desk-scale problem sizes make speed irrelevant, and
the extra precision keeps finite-difference gradient checks and the
bitwise-equality reductions honest.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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
        self.grad = g.copy() if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Run reverse-mode accumulation from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
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
                node._backward()

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
    """Create an op result, wiring the graph only when a parent needs grads."""
    out = Tensor(data)
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

    def backward():
        a._accum(out.grad)
        b._accum(out.grad)

    out = _node(out_data, (a, b), backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward():
        a._accum(out.grad)
        b._accum(-out.grad)

    out = _node(out_data, (a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward():
        a._accum(out.grad * b.data)
        b._accum(out.grad * a.data)

    out = _node(out_data, (a, b), backward)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward():
        a._accum(out.grad / b.data)
        b._accum(-out.grad * a.data / (b.data * b.data))

    out = _node(out_data, (a, b), backward)
    return out


def power(a: Tensor, p: float) -> Tensor:
    p = float(p)
    out_data = a.data ** p

    def backward():
        a._accum(out.grad * p * a.data ** (p - 1.0))

    out = _node(out_data, (a,), backward)
    return out


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward():
        a._accum(out.grad / a.data)

    out = _node(out_data, (a,), backward)
    return out


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward():
        a._accum(out.grad * out_data)

    out = _node(out_data, (a,), backward)
    return out


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where the input was above."""
    out_data = np.maximum(a.data, floor)
    mask = a.data > floor

    def backward():
        a._accum(out.grad * mask)

    out = _node(out_data, (a,), backward)
    return out


# ----------------------------------------------------------------------
# matrix ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul semantics; batch dims broadcast, grads reduced back."""
    out_data = np.matmul(a.data, b.data)

    def backward():
        g = out.grad
        a._accum(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b._accum(np.matmul(np.swapaxes(a.data, -1, -2), g))

    out = _node(out_data, (a, b), backward)
    return out


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x @ w + b, with w of shape (in, out)."""
    d_in, d_out = w.data.shape
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    out_data = x2 @ w.data
    if b is not None:
        out_data = out_data + b.data
    out_data = out_data.reshape(*lead, d_out)

    def backward():
        g2 = out.grad.reshape(-1, d_out)
        x._accum((g2 @ w.data.T).reshape(x.data.shape))
        w._accum(x2.T @ g2)
        if b is not None:
            b._accum(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    out = _node(out_data, parents, backward)
    return out


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

    def backward():
        a._accum(_unreduce(out.grad, a.data.shape, axis, keepdims))

    out = _node(out_data, (a,), backward)
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / out_data.size

    def backward():
        a._accum(_unreduce(out.grad, a.data.shape, axis, keepdims) / count)

    out = _node(out_data, (a,), backward)
    return out


# ----------------------------------------------------------------------
# nonlinearities


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward():
        g = out.grad
        a._accum(p * (g - (g * p).sum(axis=axis, keepdims=True)))

    out = _node(p, (a,), backward)
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi the standard normal CDF."""
    cdf = 0.5 * (1.0 + _special.erf(a.data * _INV_SQRT2))
    out_data = a.data * cdf

    def backward():
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        a._accum(out.grad * (cdf + a.data * pdf))

    out = _node(out_data, (a,), backward)
    return out


def normal_cdf(a: Tensor) -> Tensor:
    """Standard normal CDF, used by the load-balancing loss."""
    out_data = 0.5 * (1.0 + _special.erf(a.data * _INV_SQRT2))

    def backward():
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        a._accum(out.grad * pdf)

    out = _node(out_data, (a,), backward)
    return out


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward():
        g = out.grad
        lead_axes = tuple(range(g.ndim - 1))
        gain._accum((g * xhat).sum(axis=lead_axes))
        bias._accum(g.sum(axis=lead_axes))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accum((dxhat - m1 - xhat * m2) * inv)

    out = _node(out_data, (x, gain, bias), backward)
    return out


# ----------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward():
        a._accum(out.grad.reshape(a.data.shape))

    out = _node(out_data, (a,), backward)
    return out


def transpose(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward():
        a._accum(out.grad.transpose(inv))

    out = _node(out_data, (a,), backward)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward():
        g = out.grad
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accum(g[tuple(idx)])

    out = _node(out_data, tuple(tensors), backward)
    return out


# ----------------------------------------------------------------------
# gather / scatter (expert dispatch)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows: out[i] = x[idx[i]].  Repeats allowed."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = x.data[idx]

    def backward():
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, out.grad)
        x._accum(gx)

    out = _node(out_data, (x,), backward)
    return out


def put_rows(values: Tensor, idx: np.ndarray, n_rows: int) -> Tensor:
    """Scatter-add rows into a zero matrix: out[idx[i]] += values[i]."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = np.zeros((n_rows,) + values.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, idx, values.data)

    def backward():
        values._accum(out.grad[idx])

    out = _node(out_data, (values,), backward)
    return out


def take_cols(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis of a 2D tensor: out[i, j] = x[i, idx[i, j]]."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.data.shape[0])[:, None]
    out_data = x.data[rows, idx]

    def backward():
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, idx), out.grad)
        x._accum(gx)

    out = _node(out_data, (x,), backward)
    return out
