"""Analytic FLOPs accounting: 2*m*n*k per matmul, exact integer counts.

Only matmul terms are counted (projections, attention scores and mixing,
expert MLPs, routers, patch embedding, classifier head); elementwise work is
negligible against these at every preset.  Training cost uses the standard
3x forward multiplier (forward plus roughly twice for backward).

Tiling convention: with deferred tiling the batch is replicated at the first
MoE/BE block's MLP input, so that block's attention stays untiled, its MLP
runs M-fold, and every later block runs M-fold throughout.  Naive tiling
replicates the whole network, embedding included.  In a multi-head layer the
K slot outputs become members, so blocks after it (and the head) scale by K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelSpec, moe_block_positions


@dataclass
class FlopsReport:
    forward_per_example: int
    parts: dict
    tiling: str

    def train_giga(self, steps: int, batch: int) -> float:
        return 3.0 * self.forward_per_example * steps * batch / 1e9


def _attn_flops(t: int, d: int) -> int:
    # four D x D projections, then QK^T and AV
    return 8 * t * d * d + 4 * t * t * d


def flops_forward(spec: ModelSpec, tiling: str = "deferred") -> FlopsReport:
    """Exact matmul FLOPs for one example's forward pass."""
    if tiling not in ("deferred", "naive"):
        raise ConfigError(f"unknown tiling {tiling!r}")
    t, d, f = spec.n_tokens, spec.hidden, spec.mlp_dim
    parts = {"embed": 0, "attention": 0, "mlp": 0, "router": 0, "head": 0}

    moe_at = set()
    if spec.uses_moe or spec.variant == "be":
        moe_at = set(moe_block_positions(spec.layers, spec.last_n,
                                         spec.contiguous_moe))
    first_moe = min(moe_at) if moe_at else None
    tile_m = spec.tile_factor
    naive = tiling == "naive" and tile_m > 1
    multihead_at = max(moe_at) if spec.variant == "multihead" else None

    def stream_mult(i: int) -> int:
        """Batch multiplier in effect for block i's attention."""
        mult = 1
        if tile_m > 1:
            if naive or i > first_moe:
                mult *= tile_m
        if multihead_at is not None and i > multihead_at:
            mult *= spec.k
        return mult

    parts["embed"] = (tile_m if naive else 1) * \
        2 * (t - 1) * spec.patch_dim * d

    for i in range(spec.layers):
        att_mult = stream_mult(i)
        # deferred tiling happens at the MLP input of the first MoE block
        mlp_mult = att_mult if (naive or i != first_moe) else att_mult * tile_m
        parts["attention"] += att_mult * _attn_flops(t, d)
        if i not in moe_at or spec.variant == "be":
            # BE dense shares one matmul across members (rank-1 work is
            # elementwise), so its cost matches a plain MLP per stream
            parts["mlp"] += mlp_mult * 4 * t * d * f
        elif spec.variant == "only_partitioning":
            parts["mlp"] += mlp_mult * spec.k * spec.m * 4 * t * d * f
            parts["router"] += mlp_mult * 2 * t * d * spec.e
        else:
            parts["mlp"] += mlp_mult * spec.k * 4 * t * d * f
            per_row = spec.e // spec.m if spec.variant == "pbe" else spec.e
            parts["router"] += mlp_mult * 2 * t * d * per_row
        if multihead_at is not None and i == multihead_at:
            pass  # slot fan-out is free; later blocks pick up the K factor

    head_mult = stream_mult(spec.layers)
    head_out = spec.classes * (spec.m if spec.variant == "mimo" else 1)
    parts["head"] = head_mult * 2 * d * head_out

    total = sum(parts.values())
    return FlopsReport(total, parts, tiling)


def flops_estimate(spec: ModelSpec, steps: int, batch: int) -> float:
    """Training GFLOPs at deferred tiling: 3 * forward * steps * batch."""
    return flops_forward(spec).train_giga(steps, batch)


def deep_ensemble_flops(spec: ModelSpec, m: int, steps: int,
                        batch: int) -> float:
    """M independently trained models cost exactly M times one model."""
    if m < 1:
        raise ConfigError("ensemble size must be >= 1")
    return m * flops_estimate(spec, steps, batch)


def tiling_saving(spec: ModelSpec) -> float:
    """Fraction of forward FLOPs saved by deferred over naive tiling."""
    naive = flops_forward(spec, "naive").forward_per_example
    deferred = flops_forward(spec, "deferred").forward_per_example
    return 1.0 - deferred / naive
