"""One noisy top-K gate for every routed mode, and capacity filtering.

The gate splits the experts into M equal router blocks.  V-MoE is M=1, pbe
routes each member's tiled rows inside its own block, and only_partitioning
routes every row in every block.  Per block, the gate takes softmax over
(optionally noisy) router logits and keeps the K largest entries per token.
Surviving weights are the raw softmax values, never renormalized.  Ties
break toward the lower expert index so that a brute-force sort oracle
reproduces the decision exactly; _topk_desc is that rule, which the load
loss's hard count reuses.  The noise sigma is realized once, in
RouterParams.noise_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .rng import Rng
from .tensor import Tensor, _node, _softmax, _softmax_backward


@dataclass
class RouterParams:
    """One router weight matrix per member; a single router is a length-1 list.

    noise_scale is the gate noise's sigma as applied: ModelSpec's
    resolved_noise_scale() (1/E unless set) times its noise_multiplier.
    eval_noise_enabled re-enables the noise draw outside training.
    """

    weights: list  # list[Tensor], each (E/M, D), as build_model makes them
    noise_scale: float
    eval_noise_enabled: bool = False

    def effective_sigma(self, train: bool) -> float:
        if train or self.eval_noise_enabled:
            return self.noise_scale
        return 0.0


@dataclass
class RoutingDecision:
    """Per-token expert selection.

    indices holds global expert ids, slots ordered by descending gate weight
    (expert-index tiebreak).  weights stays on the tape so gate gradients
    reach the router.  member_logits keeps one (clean, noisy) logits pair per
    router block for the auxiliary balance losses; clean stays on the tape,
    noisy is a plain array.
    """

    indices: np.ndarray
    weights: Tensor
    dropped_mask: np.ndarray
    member_logits: list = field(default_factory=list)
    sigma: float = 0.0
    k: int = 1


def _topk_desc(p: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries per row, descending, ties to lower
    index.

    k passes of argmax over a copy, each setting its winners to -inf:
    argmax returns the first maximum, which is the lower-index tie rule,
    and k is small next to the row, where a full sort ranks every entry.
    """
    work = p.copy()
    rows = np.arange(len(p))
    top = np.empty((len(p), k), dtype=np.intp)
    for j in range(k):
        top[:, j] = work.argmax(axis=1)
        work[rows, top[:, j]] = -np.inf
    return top


def _block_logits(h: Tensor, w: Tensor, rows: np.ndarray | None) -> Tensor:
    """The clean logits h[rows] W^T of one router block (all of h when rows
    is None), as one node."""
    h_m = h.data if rows is None else h.data[rows]
    out = h_m @ w.data.T

    def backward(g):
        g_h = g @ w.data
        if rows is not None:  # into zeros, as a row gather: -0.0 lands as 0.0
            g_h, g_rows = np.zeros_like(h.data), g_h
            np.add.at(g_h, rows, g_rows)
        h._accum(g_h)
        w._accum((h_m.T @ g).T)

    return _node(out, (h, w), backward)


def partitioned_gate(h: Tensor, router: RouterParams, k: int, rng: Rng, *,
                     tiled: bool = True, train: bool = False,
                     noise_key: tuple = ("route", 0, 0)) -> RoutingDecision:
    """Noisy top-K gate over M router blocks of E/M experts each.

    Block m has weights W_m; its logits are h W_m^T (+ sigma * eps when
    noise is enabled), softmax runs over the block, and the K largest
    weights are kept.  Indices are global expert ids.

    tiled=True (pbe, Eq. 3): rows are member-major, rows [m*B, (m+1)*B)
    belong to member m and are routed by block m only; eps is drawn as
    (N, E/M) and indexed by each member's rows.  tiled=False
    (only_partitioning): every row is routed in every block, giving K*M
    slots per row in block order; eps is drawn as (N, E) and sliced by
    column block.  With M=1 both are the V-MoE gate over a single router.

    Each block's clean logits are one node (_block_logits); the noise add,
    softmax, top-K gather and join of all blocks are one more, over the
    clean logits.  Both are bitwise the composition of generic ops they
    replace (tests/oracles.py), and h gets its gradients block by block.
    """
    m = len(router.weights)
    eb = router.weights[0].data.shape[0]
    if not 1 <= k <= eb:
        raise ConfigError(f"K={k} out of range for block size {eb}")
    n = h.data.shape[0]
    if tiled and n % m != 0:
        raise ConfigError(f"tiled row count {n} not divisible by M={m}")
    b = n // m if tiled else n

    sigma = router.effective_sigma(train)
    noise = None
    if sigma > 0.0:
        noise = sigma * rng.normal((n, eb if tiled else m * eb), *noise_key)

    axis = 0 if tiled else 1
    noises = [None] * m if noise is None else np.split(noise, m, axis)
    blocks = []
    for mm, (w, noise_m) in enumerate(zip(router.weights, noises)):
        rows = np.arange(mm * b, (mm + 1) * b) if b < n else None
        clean = _block_logits(h, w, rows)
        noisy = clean.data if noise_m is None else clean.data + noise_m
        probs = _softmax(noisy, -1)
        blocks.append((clean, noisy, probs, _topk_desc(probs, k)))
    cols = np.arange(b)[:, None]
    indices = np.concatenate([top + mm * eb for mm, (*_, top)
                              in enumerate(blocks)], axis)

    def backward(grad):
        for (clean, _, p, top), g_m in zip(blocks, np.split(grad, m, axis)):
            g = np.zeros_like(p)  # as a column gather's backward
            np.add.at(g, (cols, top), g_m)
            clean._accum(_softmax_backward(p, g, -1))

    weights = np.concatenate([p[cols, top] for *_, p, top in blocks], axis)
    return RoutingDecision(
        indices=indices, dropped_mask=np.zeros_like(indices, dtype=bool),
        weights=_node(weights, tuple(c for c, *_ in blocks), backward),
        member_logits=[(c, noisy) for c, noisy, *_ in blocks],
        sigma=sigma, k=k)


def capacity_filter(decision: RoutingDecision, ratio: float | None,
                    e_total: int) -> RoutingDecision:
    """Drop assignments beyond ceil(C*N*S/E) per expert, in row-major fill order.

    C is the capacity ratio and S the slots per row: K, or K*M for
    only_partitioning, which routes every row in each of its M blocks.
    Dropped slots keep their weight value but are masked; dispatch treats
    them as zero contribution.  ratio None means no per-expert budget (the
    desk-scale default) and returns the input as-is.
    """
    if ratio is None:
        return decision
    n, slots = decision.indices.shape
    capacity = math.ceil(ratio * n * slots / e_total)
    flat_ids = decision.indices.reshape(-1)
    dropped = decision.dropped_mask.reshape(-1).copy()
    # the live assignments grouped by expert, each group in row-major order,
    # and every assignment's rank within its group
    live = np.flatnonzero(~dropped)
    order = live[np.argsort(flat_ids[live], kind="stable")]
    ids = flat_ids[order]
    rank = np.arange(ids.size) - np.searchsorted(ids, ids)
    dropped[order[rank >= capacity]] = True
    return replace(decision, dropped_mask=dropped.reshape(n, slots))
