"""Reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional gradient and a backward
closure.  Ops build a DAG; ``loss.backward()`` topologically sorts it and
calls each node's closure with that node's gradient, accumulating
vector-Jacobian products into every tensor created with
``requires_grad=True``.  A closure holds its inputs but never its own output,
so the tape has no reference cycles: it is freed by reference counting as
soon as the loss (or an eval forward's outputs) is dropped, without waiting
for the cyclic garbage collector.

A tape is used once.  backward releases each non-leaf node's gradient as
soon as that node's closure has run, so intermediate gradients die during
the backward pass and a node's .grad reads None after it; the leaves keep
theirs.

The op set is exactly what the transformer needs: dense, attention,
softmax, layernorm, add and mul, reshapes, concatenation, row gathers and
the fused MLPs.  The training objective and the router's gate are made of
their own nodes (losses.py, routing.py), built on the numpy kernels here
(_softmax, _phi, _pdf).

``attention`` is one node per block.  Its four projections are spans of
the MLP kernel's affine layer (below), and its forward and backward repeat
the numpy ops and gradient expressions of the dense, reshape, transpose,
matmul and softmax composition it replaces.  Its input feeds q, k and v and
takes their gradients in the order that tape added them: (g_q + g_k) + g_v.

Every MLP of the model is one node on one kernel, ``_mlp_core``: GEMM and
bias, exact GELU, the optional dropout mask, GEMM and bias, over row spans
that each have their own weights, and its matching backward.  ``mlp`` runs
it on one span (a dense MLP) or on M member spans that share the weights
and scale them by each member's rank-1 factors (a batch-ensemble MLP);
``expert_dispatch`` runs one span per (slot, expert) segment of a MoE layer
and gate-weights and sums the outputs.  A MoE layer therefore adds one node
to the tape, whatever its number of experts and slots, and so does a
batch-ensemble MLP, whatever its M.  Values and gradients are bitwise those
of the compositions of smaller ops the fused nodes replace (the tests keep
those as oracles).  The kernel's forward GEMMs go through ``matmul_rows``
with each span's full row count, so that rows cut from a longer span keep
the bits they have in the full product (a lone row would otherwise run
through gemv): a dispatch segment's full entry, or mlp's full_rows.
Dropout masks arrive finished from layers.dropout_mask.  ``dense`` runs one
span of the kernel's affine layer with no full row count, so every GEMM
plus bias of the model, and its gradients, has this one implementation.

Inside a ``no_grad()`` block no tape is built: every op returns a bare
result with no parents and no backward closure, so the intermediates an op
keeps for its backward are freed as soon as the op returns.  Eval forwards
run this way; calling ``backward()`` on such a result raises ``ValueError``.

Ops compute their forward in place on arrays they have just allocated (bias
adds, the normal CDF, the dropout mask product, normalisation), in both
modes, with the same roundings as the out-of-place expressions; they never
write an input's array.  A first gradient is stored as given, not copied,
and later ones are added out of place, so an array handed to several
``_accum`` calls is never written.  A leaf bound to a buffer of its own
(``accumulate_into``, as the trainer binds every parameter to a slice of one
zeroed gradient buffer) adds every gradient into it in place instead.  A
gradient that already is a float64 ndarray of the tensor's shape skips the
conversion and the broadcast reduction.

The normal CDF ``_phi`` that GELU and the load loss share is 0.5 (1 +
erf(x / sqrt 2)) with an in-house erf: the cephes rational approximations
(ndtr.c) that scipy.special runs, reproduced bit for bit.  For |x| <= 1 it is
x T(x^2) / U(x^2); above, 1 - erfc(|x|) with the sign of x, where erfc(a)
is exp(-a^2) P(a) / Q(a) below 8, exp(-a^2) R(a) / S(a) from 8, and 0 once
-a^2 < -MAXLOG; NaN stays NaN.  Exactness rests on two rules.  Each Horner
step is a separate numpy multiply and add, so no step is fused into an FMA.
exp(-a^2) comes from libm, because numpy's SIMD exp rounds differently from
libm on a few percent of inputs: it is the real part of numpy's complex
exp, which calls libm's cexp, and glibc's cexp(x + 0i) is exp(x) times
cos 0 = 1 (checked equal to ``math.exp`` on 10^7 inputs of the tail).  The
kernel works in place over fixed-size chunks and gathers only the |x| > 1
elements, so the exp cost falls only on them (the load loss's inputs,
rarely a GELU's).

The kernels write their results into arrays they have just allocated
(``np.empty`` plus ``out=``), and a step frees and allocates them again.
glibc's malloc by default serves blocks of 128 KiB and more by mmap and
returns free heap top memory past 128 KiB to the system, so each call
would fault its pages in again, which can double a small GEMM's time.  The
thresholds are dynamic: in malloc.c, free() of an mmapped chunk of at most
32 MiB raises the mmap threshold to that chunk's size and the trim
threshold to twice that.  ``_keep_freed_memory`` does this once per
process by allocating and freeing one untouched 31 MiB array, which costs
no page and leaves other allocators unaffected; ``model.forward``,
``trainer.train`` and ``trainer.evaluate`` call it first.

Everything is 64-bit.  At desk scale the cost is per-node Python work, not
FLOPs, and the extra precision keeps finite-difference gradient checks and the
bitwise-equality reductions honest.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools

import numpy as np

from .errors import ConfigError

LAYERNORM_EPS = 1e-6  # added to the variance before the square root

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# The erf coefficients of cephes ndtr.c (S. L. Moshier); U, Q and S have an
# implied leading coefficient of 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_ERF_CHUNK = 16384  # elements: the three scratch buffers stay in L2

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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._owns_grad = False

    # ------------------------------------------------------------------
    # plumbing

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if not (type(g) is np.ndarray and g.dtype == np.float64
                and g.shape == self.data.shape):
            g = _sum_to_shape(_as_array(g), self.data.shape)
        if self.grad is None:
            self.grad = g
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad = self.grad + g

    def accumulate_into(self, buf: np.ndarray | None) -> None:
        """Add this tensor's gradients in place into buf from now on: a
        zeroed, C-contiguous float64 array of its shape that it holds as its
        grad.  None restores the default, no gradient held."""
        self.grad = buf
        self._owns_grad = buf is not None

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
                node.grad = None

    # ------------------------------------------------------------------
    # operator sugar

    def __add__(self, other):
        return add(self, _ensure(other))

    def __mul__(self, other):
        return mul(self, _ensure(other))

    def __rmul__(self, other):
        return mul(_ensure(other), self)


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(grad):
        a._accum(grad * b.data)
        b._accum(grad * a.data)

    return _node(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# matrix ops


def matmul_rows(a: np.ndarray, w: np.ndarray, full_rows: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """a @ w, where a holds rows cut from an operand of full_rows rows (by
    default a itself), with the bits those rows have in the full product.

    A row of a GEMM with 2 or more rows has the same bits whatever the other
    rows are, but numpy runs a 1-row operand through gemv, which rounds
    differently.  So a lone row cut from a longer operand runs twice and
    keeps its first result, and a row that was alone already stays on gemv.
    """
    if a.shape[0] == 1 and full_rows is not None and full_rows > 1:
        res = np.matmul(np.concatenate([a, a]), w)[:1]
        if out is None:
            return res
        out[...] = res
        return out
    return np.matmul(a, w, out=out)


def _affine(a: np.ndarray, w: Tensor, b: Tensor):
    """a @ w + b as one span of the MLP kernel's layer, and its backward:
    the output gradient to a's, accumulating w's and b's."""
    spans = [(0, a.shape[0], None, (w, b), None)]
    out, _ = _layer_forward(a, spans, 0)
    return out, lambda g, input_grad=True: _layer_backward(
        g, a, spans, 0, [], input_grad)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on the last axis: x @ w + b, with w of shape (in, out)."""
    d_in, d_out = w.data.shape
    out_data, affine_backward = _affine(x.data.reshape(-1, d_in), w, b)

    def backward(grad):
        # a constant x (the patch embedding's input) takes no gradient
        g_x = affine_backward(grad.reshape(-1, d_out), x.requires_grad)
        if g_x is not None:
            x._accum(g_x.reshape(x.data.shape))

    return _node(out_data.reshape(*x.data.shape[:-1], d_out), (x, w, b),
                 backward)


def attention(x: Tensor, params: tuple, heads: int, tokens: int) -> Tensor:
    """Self-attention within each image's block of `tokens` rows of x, as
    one node; params is (wq, bq, wk, bk, wv, bv, wo, bo)."""
    n, d = x.data.shape
    split = (n // tokens, tokens, heads, d // heads)
    scale = 1.0 / np.sqrt(d // heads)
    wq, bq, wk, bk, wv, bv, wo, bo = params
    q, q_backward = _affine(x.data, wq, bq)
    k, k_backward = _affine(x.data, wk, bk)
    v, v_backward = _affine(x.data, wv, bv)
    q = q.reshape(split).transpose(0, 2, 1, 3)
    k = k.reshape(split).transpose(0, 2, 3, 1)
    v = v.reshape(split).transpose(0, 2, 1, 3)
    attn = _softmax(np.matmul(q, k) * scale, -1)
    ctx = np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(n, d)
    out_data, o_backward = _affine(ctx, wo, bo)

    def backward(grad):
        g_ctx = o_backward(grad).reshape(split).transpose(0, 2, 1, 3)
        g_v = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        g_s = _softmax_backward(attn, np.matmul(g_ctx, np.swapaxes(v, -1, -2)),
                                -1) * scale
        g_x = q_backward(np.matmul(g_s, np.swapaxes(k, -1, -2))
                         .transpose(0, 2, 1, 3).reshape(n, d))
        g_x += k_backward(np.matmul(np.swapaxes(q, -1, -2), g_s)
                          .transpose(0, 3, 1, 2).reshape(n, d))
        g_x += v_backward(g_v.transpose(0, 2, 1, 3).reshape(n, d))
        x._accum(g_x)

    return _node(out_data, (x, *params), backward)


# ----------------------------------------------------------------------
# nonlinearities


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax of x along axis, as a new array."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _softmax_backward(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax p along axis, given p's gradient g."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    p = _softmax(a.data, axis)

    def backward(g):
        a._accum(_softmax_backward(p, g, axis))

    return _node(p, (a,), backward)


def _polevl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] into out, by Horner's rule."""
    np.multiply(x, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _p1evl(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1] into out, by Horner's rule."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_near(x, z, t, out) -> np.ndarray:
    """erf for |x| <= 1, x T(x^2) / U(x^2), into out (which may be x); z
    and t are scratch of x's size."""
    np.multiply(x, x, out=z)
    _polevl(z, _ERF_T, t)
    t *= x
    _p1evl(z, _ERF_U, out)
    np.divide(t, out, out=out)
    return out


def _erf_tail(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """erf where |x| > 1 or x is NaN (1-D, a = |x|): 1 - erfc(a) with the
    sign of x."""
    y = np.zeros_like(a)  # erfc; stays 0 where it underflows
    mid = np.flatnonzero(a < 8.0)
    far = np.flatnonzero((a >= 8.0) & (a < 27.0))  # so that a * a is finite
    far = far[a[far] * a[far] <= _MAXLOG]
    for idx, num, den in ((mid, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        if not idx.size:
            continue
        b = a[idx]
        z = b * b
        np.negative(z, out=z)
        # libm's exp, as cephes calls it: numpy's SIMD exp rounds
        # differently, but its complex exp runs libm's cexp, which for a
        # zero imaginary part is libm's exp times cos 0 = 1
        e = np.exp(z.astype(np.complex128)).real
        e *= _polevl(b, num, z)
        e /= _p1evl(b, den, np.empty_like(b))
        y[idx] = e
    np.subtract(1.0, y, out=y)
    np.copysign(y, x, out=y)
    y[np.isnan(x)] = np.nan
    return y


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """erf(x), bitwise equal to cephes' erf (the one scipy.special runs).

    out is a C-contiguous float64 array of x's shape, a new one by default;
    it may be x itself.  The kernel runs over chunks of _ERF_CHUNK elements
    in per-call scratch buffers and gathers only the elements that leave the
    |x| <= 1 branch.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    out = np.empty(x.shape) if out is None else out
    if not out.flags.c_contiguous or out.shape != x.shape:
        raise ValueError("out must be C-contiguous with the shape of x")
    src, dst = x.reshape(-1), out.reshape(-1)
    n = min(src.size, _ERF_CHUNK)
    z, t, u = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, src.size, _ERF_CHUNK):
        xc, oc = src[lo:lo + _ERF_CHUNK], dst[lo:lo + _ERF_CHUNK]
        m = xc.size
        if xc.max() <= 1.0 and xc.min() >= -1.0:  # False when a NaN is present
            _erf_near(xc, z[:m], t[:m], oc)
            continue
        near = np.abs(xc, out=z[:m]) <= 1.0
        tail = np.flatnonzero(~near)
        # gathered before the scratch and oc (which may be xc) are written
        xt, at = xc[tail], z[tail]
        near = np.flatnonzero(near)
        k = near.size
        oc[near] = _erf_near(xc[near], z[:k], t[:k], u[:k])
        oc[tail] = _erf_tail(xt, at)
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt 2)) as a new array, computed in place."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty(x.shape))
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density exp(-x^2 / 2) / sqrt(2 pi) as a new array,
    computed in place."""
    out = np.multiply(x, -0.5)
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    # the variance takes numpy's var steps on the centred rows already held
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).sum(axis=-1, keepdims=True)
    var /= x.data.shape[-1]
    var += LAYERNORM_EPS
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


# ----------------------------------------------------------------------
# the MLP kernel: dense, batch-ensemble and expert MLPs are one node each


@functools.cache
def _keep_freed_memory() -> None:
    """Raise glibc malloc's mmap and trim thresholds to 31 and 62 MiB, once
    per process (see the module docstring)."""
    np.empty(31 << 20, dtype=np.uint8)


def _layer_forward(a: np.ndarray, spans: list, j: int):
    """Layer j (0 or 1) of every span on the rows a; returns the output and,
    per member span, its product before the s scaling.  dense is layer 0 of
    one span whose params are (w, b)."""
    out = np.empty((a.shape[0], spans[0][3][2 * j].data.shape[1]))
    zs = []
    for lo, hi, full, params, fast in spans:
        w, b = params[2 * j:2 * j + 2]
        if fast is None:
            matmul_rows(a[lo:hi], w.data, full, out=out[lo:hi])
        else:
            r, s = fast[2 * j:2 * j + 2]
            z = matmul_rows(a[lo:hi] * r.data, w.data, full)
            np.multiply(z, s.data, out=out[lo:hi])
            zs.append(z)
        out[lo:hi] += b.data
    return out, zs


def _layer_backward(g: np.ndarray, a: np.ndarray, spans: list, j: int,
                    zs: list, input_grad: bool = True) -> np.ndarray | None:
    """Accumulate layer j's parameter gradients from its output gradient g;
    returns the gradient of its input rows a, or, with input_grad false,
    skips its GEMM and returns None.  A member span's r gradient reads the
    input gradient, so input_grad is false only for spans without members.
    """
    g_in = np.empty(a.shape) if input_grad else None
    members = spans[0][4] is not None
    if members:  # one bias, added after the member blocks are joined
        spans[0][3][2 * j + 1]._accum(g.sum(axis=0))
    zs = iter(zs)
    for lo, hi, _, params, fast in spans:
        w, b = params[2 * j:2 * j + 2]
        g_out, a_in = g[lo:hi], a[lo:hi]
        if fast is not None:
            r, s = fast[2 * j:2 * j + 2]
            s._accum((g_out * next(zs)).sum(axis=0))
            g_out = g_out * s.data
            a_in = a_in * r.data
        if input_grad:
            np.matmul(g_out, w.data.T, out=g_in[lo:hi])
        w._accum(a_in.T @ g_out)
        if fast is None:
            b._accum(g_out.sum(axis=0))
        else:
            r._accum((g_in[lo:hi] * a[lo:hi]).sum(axis=0))
            g_in[lo:hi] *= r.data
    if members:  # as take_rows' np.add.at into zeros: -0.0 lands as 0.0
        g_in += 0.0
    return g_in


def _taped(parents: tuple) -> bool:
    """Whether _node will wire an op with these parents into the tape."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _mlp_core(xs: np.ndarray, spans: list, mask: np.ndarray | None,
              taped: bool):
    """The segmented MLP all fused MLP ops run: GEMM and bias, exact GELU,
    the optional (R, F) mask, GEMM and bias.  Returns the (R, Q) output and,
    if taped, backward(g), which accumulates every parameter's gradient
    from the output gradient g and returns the (R, D) input gradient.

    Span (lo, hi, full, (w1, b1, w2, b2), fast) runs rows lo:hi of xs; full
    is the row count of the span they were cut from, whose bits the forward
    GEMMs keep (matmul_rows).  A layer maps rows a to a @ w + b, or, for a
    batch-ensemble member with fast = (r1, s1, r2, s2), to
    ((a * r) @ w) * s + b.  Members share w and b, and the bias gradient is
    summed over all rows at once, as the composition adds b after joining
    the member blocks.  backward visits the spans in order, and a member's
    s, w and r in that order, as the composition's tape does: that order
    fixes how a weight serving several spans accumulates.

    backward keeps xs, the GELU output hid, the GELU derivative (computed
    here), the mask and each member's products before s; it recomputes a
    member's a * r.  Untaped, the forward keeps nothing and skips the
    derivative.
    """
    pre, z1 = _layer_forward(xs, spans, 0)
    hid = _phi(pre)
    if taped:
        deriv = _pdf(pre)
        deriv *= pre
        deriv += hid
    hid *= pre
    del pre
    if mask is not None:
        hid *= mask
    out, z2 = _layer_forward(hid, spans, 1)
    if not taped:
        return out, None

    def backward(g):
        g_hid = _layer_backward(g, hid, spans, 1, z2)
        if mask is not None:
            g_hid *= mask
        g_hid *= deriv
        return _layer_backward(g_hid, xs, spans, 0, z1)

    return out, backward


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        mask: np.ndarray | None = None, full_rows: int | None = None,
        members: list | None = None) -> Tensor:
    """dense -> exact GELU -> optional dropout mask -> dense, as one node.

    members, for a batch-ensemble MLP, lists each member's rank-1 factors
    (r1, s1, r2, s2); x's rows are then M member-major blocks, block m
    running ((a * r) @ w) * s + b with its own factors in both layers, and
    a row count that M does not divide is a ConfigError.  mask, if given,
    has the hidden shape (..., F).  full_rows, when x's rows were cut from
    a longer input, keeps each block's bits (matmul_rows).
    """
    d_out = w2.data.shape[1]
    x2 = x.data.reshape(-1, w1.data.shape[0])
    fasts = members or [None]
    if x2.shape[0] % len(fasts):
        raise ConfigError(f"tiled row count {x2.shape[0]} not divisible by "
                          f"M={len(fasts)}")
    n = x2.shape[0] // len(fasts)
    full = n if full_rows is None else full_rows // len(fasts)
    spans = [(j * n, (j + 1) * n, full, (w1, b1, w2, b2), fast)
             for j, fast in enumerate(fasts)]
    if mask is not None:
        mask = mask.reshape(-1, w1.data.shape[1])
    fast_params = [t for fast in members or () for t in fast]
    parents = (x, w1, b1, w2, b2, *fast_params)
    out_data, core_backward = _mlp_core(x2, spans, mask, _taped(parents))

    def backward(grad):
        g_x = core_backward(grad.reshape(-1, d_out))
        x._accum(g_x.reshape(x.data.shape))

    return _node(out_data.reshape(*x.data.shape[:-1], d_out), parents,
                 backward)


def expert_dispatch(x: Tensor, weights: Tensor, experts: list,
                    rows: np.ndarray, slots: np.ndarray, segments: list,
                    mask: np.ndarray | None = None,
                    stack: bool = False) -> Tensor:
    """Run every expert of a MoE layer and combine by gate weight, as one node.

    x is the (N, D) layer input, weights the (N, S) gate weights and experts
    the layer's (w1, b1, w2, b2) tuples.  The R kept (row, slot) assignments
    are rows[a] and slots[a]; a (row, slot) pair appears at most once.  Each
    segment (e, lo, hi, full) runs assignments lo:hi through experts[e], as
    one span of the MLP kernel; full is the assignment count of the segment
    they were cut from (hi - lo when nothing was cut).  mask, if given, is
    the (R, F) dropout mask of the hidden units.

    Slot s of row r is the expert output times weights[r, s], or 0 where no
    assignment holds it (a dropped assignment or an empty slot).  The (N, S,
    Q) slot buffer is returned as is when stack is set, else its slots are
    summed left to right into (N, Q).  Values and gradients equal bitwise
    those of one take_rows and one mlp per segment followed by a per-segment
    gate-and-combine, with backward visiting the segments in the order
    given: that order fixes how an expert serving several segments, and a
    row in several slots, accumulate their gradients.
    """
    spans = [(lo, hi, full, experts[e], None)
             for e, lo, hi, full in segments]
    params = [t for ex in experts for t in ex]
    parents = (x, *params, weights)
    gate = weights.data[rows, slots][:, None]
    ys, core_backward = _mlp_core(x.data[rows], spans, mask,
                                  _taped(parents))
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
        g_x = np.zeros_like(x.data)
        np.add.at(g_x, rows, core_backward(g))
        x._accum(g_x)

    return _node(out_data, parents, backward)
