"""Expert MLPs and the layer mechanisms built on them.

One layer_forward runs every MoELayer mode through the same gate and
dispatch core:

* moe               -- noisy top-K mixture, one router over all E experts
* pbe               -- tiled rows, each member routed inside its partition
* only_partitioning -- untiled rows routed in every block (K*M experts)
* multihead         -- top-K contributions stacked into K slots, not summed

plus tile, the member-major batch tiling.

Every MLP of a model is an ExpertMLP: the dense MLP, each expert of a MoE
layer, and the batch-ensemble MLP, which adds its members' rank-1 fast
weights.  Each is one tape node on tensor.py's MLP kernel: ExpertMLP
through ``mlp``, a MoE layer through ``expert_dispatch``.

Dispatch is one ``expert_dispatch`` tape node per layer.  The kept (row,
slot) assignments are gathered once, grouped into one segment per (slot,
expert) pair, slot-major with experts ascending; each segment runs its
expert's GEMMs as one span of the kernel, and the node scales every output
by its gate weight, writes it into an N x S x Q slot buffer and sums the
slots left to right (moe) or returns the buffer (multihead).  Summing slot
by slot makes "sum of multihead slots == moe output" hold bitwise, not
just approximately.  Pairs are never grouped across slots, and the GEMMs
are never batched across segments: either would change roundings (a 1-row
segment runs as a matrix-vector product) or reorder the accumulation of
the expert-weight gradients, and move trained numbers.  Each segment's
dropout mask is drawn from its own (slot, expert) stream.  dropout_mask
makes every dropout mask of the model, the dense and batch-ensemble ones
too: drawn, cut to the rows kept and scaled, with no caller redoing any
of it.

An eval forward wants only some rows of its last MoE layer (layer_forward's
rows), and a segment then keeps only their assignments.  A row of a GEMM
with 2 or more rows has the same bits whatever the other rows are, so the
kept rows' outputs do not change, with one exception, the 2-row rule: a
segment left with one row of a longer segment would drop to the
matrix-vector path, so it runs that row twice and keeps the first result
(tensor.matmul_rows); so each segment carries its full length, as
(expert, lo, hi, full).  A segment that had one row to begin with stays on
the vector path.  The kernel applies this rule to every span by its full
row count, so the dense and batch-ensemble MLPs keep it too, for a
one-image batch or member block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .routing import RouterParams, capacity_filter, partitioned_gate
from .tensor import Tensor, concat, expert_dispatch, mlp, take_rows

# ----------------------------------------------------------------------
# experts


@dataclass
class ExpertMLP:
    """Two-layer GELU MLP: D -> F -> Q.

    members, for a batch-ensemble MLP, holds one (r1, s1, r2, s2) tuple of
    rank-1 fast weights per member, and w1 and w2 are the shared slow
    weights U: member m's rows of the member-major tiled input run
    ((h * r) U) * s + b in both layers, and U * (r s^T) is never
    materialized.  The biases are shared.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    members: list | None = None

    def forward(self, x: Tensor, dropout_mask: np.ndarray | None = None,
                full_rows: int | None = None) -> Tensor:
        return mlp(x, self.w1, self.b1, self.w2, self.b2, dropout_mask,
                   full_rows, self.members)

    @property
    def hidden_dim(self) -> int:
        return self.w1.data.shape[1]


def dropout_mask(rng: Rng, rate: float, width: int, blocks,
                 rows: np.ndarray | None = None) -> np.ndarray | None:
    """The inverted-dropout mask: each unit is 1 / (1 - rate) with prob
    1 - rate, else 0.  None at rate 0, where nothing is dropped.

    blocks lists (rows, tags) pairs: the mask stacks one rows x width block
    per entry, in order, each drawn from the stream addressed by its tags.
    rows, if given, selects the mask rows kept (an index or boolean array
    over the stacked rows); they are cut before the scaling.  A unit is kept
    where stream(*tags).random() >= rate would be: random() is (raw >> 11)
    * 2**-53 and rate * 2**53 is exact, so that is the integer compare
    raw >= ceil(rate * 2**53) << 11.
    """
    if rate == 0.0:
        return None
    floor = np.uint64(math.ceil(rate * 2.0 ** 53) << 11)
    keep = np.empty((sum(n for n, _ in blocks), width), dtype=bool)
    lo = 0
    for n, tags in blocks:
        np.greater_equal(rng.raw((n, width), *tags), floor,
                         out=keep[lo:lo + n])
        lo += n
    if rows is not None:
        keep = keep[rows]
    return keep * (1.0 / (1.0 - rate))


@dataclass
class MoELayer:
    """A mixture-of-experts MLP slot in a transformer block.  build_model
    fills it from a checked ModelSpec: E experts, M router blocks of E/M
    rows (M = 1 outside pbe and only_partitioning), 1 <= k <= E/M."""

    experts: list
    router: RouterParams
    k: int
    mode: str = "moe"
    capacity_ratio: float | None = None  # None: no per-expert budget
    dropout_rate: float = 0.1

    @property
    def e(self) -> int:
        return len(self.experts)


# ----------------------------------------------------------------------
# dispatch


def layer_forward(h: Tensor, layer: MoELayer, rng: Rng, *, train: bool = False,
                  dropout_on: bool | None = None,
                  noise_key: tuple = ("route", 0, 0),
                  dropout_key: tuple = ("drop", 0, 0),
                  rows: np.ndarray | None = None):
    """Gate, capacity filter, then one expert_dispatch over every kept
    assignment.

    Modes moe and pbe sum the slots (Eq. 1; pbe rows are tiled, so each
    member mixes only its own experts), only_partitioning sums the K*M slots
    of its untiled rows, and multihead stacks the K slots into N x K x Q
    (Eq. 2), whose sum reproduces moe bitwise.  Returns (output,
    RoutingDecision); the decision feeds the balance losses.

    rows, if given, lists the ascending rows whose output is wanted, and the
    output has one row per entry.  Every row is still gated and
    capacity-filtered and the dropout mask is drawn for every assignment, so
    the decision and the kept rows' bits are those of the full layer; only
    the experts' work shrinks to the kept assignments of those rows.
    """
    decision = partitioned_gate(h, layer.router, layer.k, rng,
                                tiled=layer.mode != "only_partitioning",
                                train=train, noise_key=noise_key)
    decision = capacity_filter(decision, layer.capacity_ratio, layer.e)
    if dropout_on is None:
        dropout_on = train
    # kept assignments, slot-major; a stable sort on (slot, expert) groups
    # them into one segment per (slot, expert) pair, rows ascending
    n = decision.indices.shape[0]
    kept = np.flatnonzero(~decision.dropped_mask.T)
    assigned, slots = kept % n, kept // n
    key = slots * layer.e + decision.indices[assigned, slots]
    order = np.argsort(key, kind="stable")
    assigned, slots, key = assigned[order], slots[order], key[order]
    keys, starts = np.unique(key, return_index=True)
    bounds = starts.tolist() + [key.size]
    segs = [(*divmod(int(k), layer.e), lo, hi)  # (slot, expert, lo, hi)
            for k, lo, hi in zip(keys, bounds[:-1], bounds[1:])]
    segments = [(e, lo, hi, hi - lo) for _, e, lo, hi in segs]
    x, weights, sel = h, decision.weights, None
    if rows is not None:
        # keep the assignments of the wanted rows, renumbered to their
        # position in rows; each segment remembers its full length
        where = np.full(n, -1)
        where[rows] = np.arange(rows.size)
        pos = where[assigned]
        sel = pos >= 0
        ends = np.concatenate([[0], np.cumsum(sel)]).tolist()
        segments = [(e, ends[lo], ends[hi], full)
                    for e, lo, hi, full in segments if ends[hi] > ends[lo]]
        assigned, slots = pos[sel], slots[sel]
        x, weights = take_rows(h, rows), take_rows(decision.weights, rows)
    mask = None
    if dropout_on:
        mask = dropout_mask(rng, layer.dropout_rate,
                            layer.experts[0].hidden_dim,
                            [(hi - lo, (*dropout_key, e, j))
                             for j, e, lo, hi in segs], sel)
    experts = [(ex.w1, ex.b1, ex.w2, ex.b2) for ex in layer.experts]
    out = expert_dispatch(x, weights, experts, assigned, slots, segments,
                          mask, stack=layer.mode == "multihead")
    return out, decision


# ----------------------------------------------------------------------
# tiling


def tile(x: Tensor, m: int) -> Tensor:
    """Stack m copies along axis 0, member-major: [X; X; ...; X].  forward
    tiles only at ModelSpec.tile_block, which exists only for m >= 2."""
    return concat([x] * m, axis=0)
