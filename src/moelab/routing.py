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
from .tensor import Tensor, concat, matmul, softmax, take_cols, take_rows, transpose


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
    column block.  With M=1 both are the V-MoE gate over a single router,
    and the tape holds no row gather or concat.
    """
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

    index_blocks = []
    weight_blocks = []
    member_logits = []
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
    return RoutingDecision(
        indices=indices,
        weights=weights,
        dropped_mask=np.zeros_like(indices, dtype=bool),
        member_logits=member_logits,
        sigma=sigma,
        k=k,
    )


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
