"""Analytic FLOPs accounting: 2*m*n*k per matmul, exact integer counts.

Only matmul terms are counted (projections, attention scores and mixing,
expert MLPs, routers, patch embedding, classifier head); elementwise work is
negligible against these at every preset.  Training cost uses the standard
3x forward multiplier (forward plus roughly twice for backward).

The layout comes from the spec: ModelSpec.mlp_kinds prices each block's
MLP, and ModelSpec.tile_block says where the batch is tiled.  With deferred
tiling the batch is replicated at that block's MLP input, so its attention
stays untiled, its MLP runs M-fold, and every later block runs M-fold
throughout.  Naive tiling replicates the whole network, embedding included.
In a multi-head layer the K slot outputs become members, so blocks after it
(and the head) scale by K.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelSpec


@dataclass
class FlopsReport:
    forward_per_example: int
    parts: dict


def _attn_flops(t: int, d: int) -> int:
    # four D x D projections, then QK^T and AV
    return 8 * t * d * d + 4 * t * t * d


def flops_forward(spec: ModelSpec, tiling: str = "deferred") -> FlopsReport:
    """Exact matmul FLOPs for one example's forward pass, block by block
    along spec.mlp_kinds."""
    if tiling not in ("deferred", "naive"):
        raise ConfigError(f"unknown tiling {tiling!r}")
    t, d, f = spec.n_tokens, spec.hidden, spec.mlp_dim
    parts = {"embed": 0, "attention": 0, "mlp": 0, "router": 0, "head": 0}
    tile_at = spec.tile_block
    naive = tiling == "naive" and tile_at is not None
    # copies of the example the current block runs on
    mult = spec.tile_factor if naive else 1

    parts["embed"] = mult * 2 * (t - 1) * spec.patch_dim * d
    for i, kind in enumerate(spec.mlp_kinds):
        parts["attention"] += mult * _attn_flops(t, d)
        if i == tile_at and not naive:
            mult *= spec.tile_factor
        if kind in ("dense", "be"):
            # BE dense shares one matmul across members (rank-1 work is
            # elementwise), so its cost matches a plain MLP per stream
            parts["mlp"] += mult * 4 * t * d * f
        elif kind == "only_partitioning":
            parts["mlp"] += mult * spec.k * spec.m * 4 * t * d * f
            parts["router"] += mult * 2 * t * d * spec.e
        else:
            parts["mlp"] += mult * spec.k * 4 * t * d * f
            per_row = spec.e // spec.m if kind == "pbe" else spec.e
            parts["router"] += mult * 2 * t * d * per_row
        if kind == "multihead":
            mult *= spec.k  # slot fan-out is free; later blocks run K-fold

    head_out = spec.classes * (spec.m if spec.variant == "mimo" else 1)
    parts["head"] = mult * 2 * d * head_out

    total = sum(parts.values())
    return FlopsReport(total, parts)


def flops_estimate(spec: ModelSpec, steps: int, batch: int) -> float:
    """Training GFLOPs at deferred tiling: 3 * forward * steps * batch."""
    return 3.0 * flops_forward(spec).forward_per_example * steps * batch / 1e9


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
