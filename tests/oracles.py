"""Test-side references the tests compare the package against.

finite_difference_check checks tape gradients against central
differences, and assert_bitwise compares arrays bit for bit;
dense_reference is the affine map with its own GEMM, bias and gradient
code, the one tensor.dense replaced by a span of the MLP kernel's layer;
BeMoeView reads a batch-ensemble dense layer, given as its
slow weight U and its members' fast weights r and s, as a sparse MoE
(Appendix F), the other side of the BE/MoE equivalence.  gelu and
be_dense_forward are the tape compositions the fused tensor.mlp replaces:
the batch-ensemble MLP is gelu(be_dense_forward(x, *be1) + b1), times the
dropout mask, then be_dense_forward(., *be2) + b2, and the fused node must
equal it bitwise.  sgd_step_loop is the per-parameter SGD step that
trainer.sgd_step's flat buffers replace, bit for bit.  evaluate_reference
is trainer.evaluate's loop on one thread, whose report the parallel
evaluate must equal byte for byte.  capacity_dropped_loop is the
per-expert loop routing.capacity_filter's one sort replaced.

tsum, tmean, sub, div, log, clamp_min and normal_cdf are the generic tape
ops the objective was composed of (tsum is also the scalar reducer of the
gradient checks); cross_entropy_reference, importance_loss, load_loss and
omega_partition_reference are those compositions, whose values and
gradients the fused nodes of losses.py must equal bit for bit.  matmul and
take_cols are the generic ops attention and the gate were composed of;
attention_reference and gate_reference are those compositions, the
references of tensor.attention and routing.partitioned_gate.
"""

import math
import warnings

import numpy as np

from moelab.errors import ConfigError, EvaluationError
from moelab.losses import CV_FLOOR
from moelab.metrics import (PROB_FLOOR, EvalReport, MetricAccumulator,
                            fewshot_probe, ood_metrics, ood_scores)
from moelab.model import ensemble_predict, forward
from moelab.routing import RoutingDecision, _topk_desc
from moelab.tensor import (Tensor, _node, _pdf, _phi, concat, dense,
                           matmul_rows, mul, no_grad, reshape, softmax,
                           take_rows, transpose)


def assert_bitwise(got, want):
    """Equal bits: unlike assert_array_equal, -0.0 differs from 0.0."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def finite_difference_check(fn, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `fn` is a zero-argument closure returning a scalar Tensor loss; `params`
    are the Tensors whose gradients are checked, element by element.  The
    relative error of an element is |a - n| / max(|a| + |n|, 1e-6).  The
    perturbed re-evaluations read only the loss value, so they build no tape.
    `fn` must be deterministic: a stochastic draw inside it comes from a
    fixed (seed, tags) address, so every re-evaluation sees the same noise.
    """
    for p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ValueError("params must be Tensors with requires_grad=True")
        p.grad = None
    loss = fn()
    if not np.all(np.isfinite(loss.data)):
        raise EvaluationError("loss is not finite at the evaluation point")
    loss.backward()
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    ]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(fn().data)
                flat[i] = orig - eps
                fm = float(fn().data)
                flat[i] = orig
                numeric[i] = (fp - fm) / (2.0 * eps)
        an = a.reshape(-1)
        rel = np.abs(an - numeric) / np.maximum(np.abs(an) + np.abs(numeric), 1e-6)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
    return worst


class BeMoeView:
    """Appendix-F reading of a batch-ensemble layer as a sparse MoE.

    E = M experts; expert e's weight is the materialized U * (r_e s_e^T);
    the gate for tiled row i is binary: 1 on the row's own member, 0
    elsewhere.  Forward computes the full mixture sum_e g_e * expert_e(h),
    which the binary gates collapse to the member's expert.
    """

    def __init__(self, u: Tensor, r: list, s: list):
        self.m = len(r)
        self.expert_weights = [
            u.data * np.outer(r_m.data, s_m.data) for r_m, s_m in zip(r, s)
        ]

    def gates(self, n_rows: int) -> np.ndarray:
        if n_rows % self.m != 0:
            raise ConfigError(f"row count {n_rows} not divisible by M={self.m}")
        b = n_rows // self.m
        g = np.zeros((n_rows, self.m))
        for mm in range(self.m):
            g[mm * b:(mm + 1) * b, mm] = 1.0
        return g

    def forward(self, h_tiled) -> np.ndarray:
        h = h_tiled.data if isinstance(h_tiled, Tensor) else np.asarray(h_tiled)
        g = self.gates(h.shape[0])
        out = np.zeros((h.shape[0], self.expert_weights[0].shape[1]))
        for e in range(self.m):
            out = out + g[:, e:e + 1] * (h @ self.expert_weights[e])
        return out


def _unreduce(g: np.ndarray, shape: tuple, axis) -> np.ndarray:
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(grad):
        a._accum(_unreduce(grad, a.data.shape, axis))

    return _node(out_data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.mean(axis=axis)
    count = a.data.size / out_data.size

    def backward(grad):
        a._accum(_unreduce(grad, a.data.shape, axis) / count)

    return _node(out_data, (a,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(grad):
        a._accum(grad)
        b._accum(-grad)

    return _node(out_data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(grad):
        a._accum(grad / b.data)
        b._accum(-grad * a.data / (b.data * b.data))

    return _node(out_data, (a, b), backward)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(grad):
        a._accum(grad / a.data)

    return _node(out_data, (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where the input was above."""
    out_data = np.maximum(a.data, floor)
    mask = a.data > floor

    def backward(grad):
        a._accum(grad * mask)

    return _node(out_data, (a,), backward)


def normal_cdf(a: Tensor) -> Tensor:
    """Standard normal CDF."""

    def backward(grad):
        a._accum(grad * _pdf(a.data))

    return _node(_phi(a.data), (a,), backward)


def cross_entropy_reference(member_probs: Tensor, labels, *,
                            mode: str = "member_avg") -> Tensor:
    """losses.member_avg_cross_entropy as a composition of generic ops."""
    if mode == "ensemble_ce":
        ens = tmean(member_probs, axis=0)
        picked = take_cols(ens, np.asarray(labels).reshape(-1, 1))
    else:
        m, b, c = member_probs.data.shape
        labels = np.asarray(labels)
        if labels.ndim == 1:
            labels = np.broadcast_to(labels, (m, b))
        flat = reshape(member_probs, (m * b, c))
        picked = take_cols(flat, labels.reshape(m * b, 1))
    if np.any(picked.data < PROB_FLOOR):
        warnings.warn("zero probability at true label; clamped at 1e-12")
    return mul(tmean(log(clamp_min(picked, PROB_FLOOR))), Tensor(-1.0))


def _cv_squared(v: Tensor) -> Tensor:
    """(population std / mean)^2 with a guarded denominator."""
    mu = tmean(v)
    centered = sub(v, mu)
    var = tmean(centered * centered)
    return div(var, clamp_min(mu * mu, CV_FLOOR))


def importance_loss(clean_softmax: Tensor) -> Tensor:
    """CV^2 of per-expert importance imp_e = sum_b softmax[b, e]."""
    return _cv_squared(tsum(clean_softmax, axis=0))


def load_loss(clean_logits: Tensor, noisy_logits: np.ndarray, sigma: float,
              k: int) -> Tensor:
    """CV^2 of the smoothed per-expert selection count; sigma = 0 falls back
    to hard top-K counts (a constant) and K = E gives a constant 0."""
    e = noisy_logits.shape[1]
    if k >= e:
        return Tensor(0.0)
    if sigma <= 0.0:
        top = _topk_desc(noisy_logits, k)
        return _cv_squared(Tensor(np.bincount(top.reshape(-1), minlength=e)))
    desc = -np.sort(-noisy_logits, axis=1)
    kth = desc[:, k - 1:k]
    kth_next = desc[:, k:k + 1]
    tau = np.where(noisy_logits >= kth, kth_next, kth)
    z = sub(clean_logits, Tensor(tau)) * (1.0 / sigma)
    return _cv_squared(tsum(normal_cdf(z), axis=0))


def omega_partition_reference(aux) -> Tensor:
    """losses.omega_partition as a composition: the mean over router blocks
    of (importance + load) / 2."""
    total = None
    for clean, noisy in aux.members:
        imp = importance_loss(softmax(clean, axis=-1))
        lod = load_loss(clean, noisy, aux.sigma, aux.k)
        omega_m = (imp + lod) * 0.5
        total = omega_m if total is None else total + omega_m
    return total * (1.0 / len(aux.members))


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x), with Phi the standard normal CDF."""
    cdf = _phi(a.data)
    out_data = a.data * cdf

    def backward(grad):
        a._accum(grad * (cdf + a.data * _pdf(a.data)))

    return _node(out_data, (a,), backward)


def dense_reference(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
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


def matmul(a: Tensor, b: Tensor, full_rows: int | None = None) -> Tensor:
    """np.matmul semantics, batch dims broadcast and grads reduced back;
    the values keep the bits of rows cut from an operand of full_rows rows,
    as in matmul_rows."""

    def backward(g):
        a._accum(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b._accum(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _node(matmul_rows(a.data, b.data, full_rows), (a, b), backward)


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


def attention_reference(x: Tensor, params: tuple, heads: int,
                        tokens: int) -> Tensor:
    """tensor.attention as a composition of generic ops."""
    wq, bq, wk, bk, wv, bv, wo, bo = params
    n, d = x.data.shape
    bc, dh = n // tokens, d // heads
    q = dense(x, wq, bq)
    k = dense(x, wk, bk)
    v = dense(x, wv, bv)
    q = transpose(reshape(q, (bc, tokens, heads, dh)), (0, 2, 1, 3))
    k = transpose(reshape(k, (bc, tokens, heads, dh)), (0, 2, 3, 1))
    v = transpose(reshape(v, (bc, tokens, heads, dh)), (0, 2, 1, 3))
    scores = matmul(q, k) * (1.0 / math.sqrt(dh))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, v)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (n, d))
    return dense(ctx, wo, bo)


def gate_reference(h: Tensor, router, k: int, rng, *, tiled: bool = True,
                   train: bool = False,
                   noise_key: tuple = ("route", 0, 0)) -> RoutingDecision:
    """routing.partitioned_gate as a composition of generic ops, block by
    block: row gather (tiled, M > 1), logits, noise add, softmax and
    top-K column gather, then one concat of the blocks (M > 1)."""
    m = len(router.weights)
    eb = router.weights[0].data.shape[0]
    if not 1 <= k <= eb:
        raise ConfigError(f"K={k} out of range for block size {eb}")
    n = h.data.shape[0]
    if tiled and n % m != 0:
        raise ConfigError(f"tiled row count {n} not divisible by M={m}")
    b = n // m
    sigma = router.effective_sigma(train)
    noise = None
    if sigma > 0.0:
        noise = sigma * rng.normal((n, eb if tiled else m * eb), *noise_key)
    index_blocks, weight_blocks, member_logits = [], [], []
    for mm in range(m):
        h_m, noise_m = h, noise
        if tiled and m > 1:
            rows = np.arange(mm * b, (mm + 1) * b)
            h_m = take_rows(h, rows)
            noise_m = None if noise is None else noise[rows]
        elif not tiled and noise is not None:
            noise_m = noise[:, mm * eb:(mm + 1) * eb]
        clean = matmul(h_m, transpose(router.weights[mm], (1, 0)))
        noisy = clean if noise_m is None else clean + Tensor(noise_m)
        probs = softmax(noisy, axis=-1)
        local = _topk_desc(probs.data, k)
        index_blocks.append(local + mm * eb)
        weight_blocks.append(take_cols(probs, local))
        member_logits.append((clean, noisy.data))
    if m == 1:
        indices, weights = index_blocks[0], weight_blocks[0]
    else:
        axis = 0 if tiled else 1
        indices = np.concatenate(index_blocks, axis=axis)
        weights = concat(weight_blocks, axis=axis)
    return RoutingDecision(indices=indices, weights=weights,
                           dropped_mask=np.zeros_like(indices, dtype=bool),
                           member_logits=member_logits, sigma=sigma, k=k)


def be_dense_forward(h_tiled: Tensor, u: Tensor, r: list, s: list,
                     full_rows: int | None = None) -> Tensor:
    """Member-m rows -> ((h * r_m) U) * s_m, on the member-major tiled layout.

    full_rows, when the rows were cut from a longer tiled input, keeps each
    member block's bits as in tensor.matmul_rows.
    """
    n, m = h_tiled.data.shape[0], len(r)
    if n % m != 0:
        raise ConfigError(f"tiled row count {n} not divisible by M={m}")
    b = n // m
    full_b = None if full_rows is None else full_rows // m
    outs = []
    for mm in range(m):
        h_m = take_rows(h_tiled, np.arange(mm * b, (mm + 1) * b))
        outs.append(matmul(h_m * r[mm], u, full_b) * s[mm])
    return concat(outs, axis=0)


def capacity_dropped_loop(indices: np.ndarray, dropped: np.ndarray,
                          capacity: int, e_total: int) -> np.ndarray:
    """The dropped mask after capacity filtering, one expert at a time: an
    expert's live assignments past its first capacity, in row-major order,
    are dropped."""
    flat_ids = indices.reshape(-1)
    dropped = dropped.reshape(-1).copy()
    for e in range(e_total):
        live = (flat_ids == e) & ~dropped
        dropped |= live & (np.cumsum(live) > capacity)
    return dropped.reshape(indices.shape)


def sgd_step_loop(named_params, grads: dict, state: dict, config,
                  lr: float) -> dict:
    """Global-norm clip, then v <- beta v + g and p <- p - lr v, one
    parameter at a time: grads and state (the velocities, made on first
    use) map each name to an array, and every parameter's data is written
    in place."""
    sq = 0.0
    for name, _ in named_params:
        g = grads[name]
        sq += float(np.sum(g * g))
    gnorm = math.sqrt(sq)
    scale = 1.0 if gnorm <= config.clip_norm else config.clip_norm / gnorm
    for name, p in named_params:
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(p.data)
        v *= config.momentum
        v += grads[name] * scale
        p.data -= lr * v
    return state


def evaluate_reference(model, dataset, rng, *, models=None, mc_samples=0,
                       batch_size=128, fewshot_shots=(), flops_giga=None):
    """trainer.evaluate as one loop over the test, ood and shift batches
    on the calling thread, for valid arguments."""
    passes = [(mdl, None) for mdl in models or ()] + \
        [(model, s) for s in range(mc_samples)]

    def predict(images, want_features=False):
        if model is None or mc_samples:
            return ensemble_predict(passes, images, rng,
                                    want_features=want_features)
        return forward(model, images, rng, train=False,
                       want_features=want_features)

    def batched(x):
        return [x[i:i + batch_size] for i in range(0, len(x), batch_size)]

    acc = MetricAccumulator()
    test_ens, feats = [], []
    for xb, yb in zip(batched(dataset.test_x), batched(dataset.test_y)):
        bundle = predict(xb, want_features=bool(fewshot_shots))
        acc.add_batch(bundle.member_probs, yb)
        test_ens.append(bundle.ensemble_probs.data)
        if fewshot_shots:
            if mc_samples > 0:
                bundle = forward(model, xb, rng, want_features=True)
            feats.append(bundle.member_features)
    r = acc.result()
    in_scores = ood_scores(np.concatenate(test_ens, axis=0))

    ood = {}
    for name, split in (("ood", dataset.ood_x), ("shift", dataset.shift_x)):
        if split is None:
            continue
        outs = [ood_scores(predict(xb).ensemble_probs.data)
                for xb in batched(split)]
        ood[f"test/{name}"] = ood_metrics(in_scores, np.concatenate(outs))

    fewshot = {}
    if fewshot_shots:
        features = np.concatenate(feats, axis=1)
        for shots in fewshot_shots:
            fewshot[int(shots)] = fewshot_probe(features, dataset.test_y,
                                                int(shots))
    return EvalReport(nll=r["nll"], error_pct=r["error_pct"], ece=r["ece"],
                      kl_diversity=r["kl_diversity"],
                      cosine_similarity=r["cosine_similarity"],
                      normalized_disagreement=r["normalized_disagreement"],
                      flops_train_giga=flops_giga, ood=ood, fewshot=fewshot)
