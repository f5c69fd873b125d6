"""Vision transformer trunk with pluggable ensembling strategies.

One Model class covers all variants: a plain ViT, a sparse-MoE ViT, the
partitioned batch-ensemble family (tiled inputs routed inside per-member
expert blocks), multi-head routing, batch-ensemble dense layers and MIMO.
ensemble_predict pools eval forwards on top: the members of a deep
ensemble, or the dropout draws of MC dropout.

The variants differ only in which blocks carry which MLP and where the
rows are tiled.  ModelSpec states that once: mlp_kinds gives each block's
MLP ("dense", "be", or a MoELayer mode) and tile_block the block whose MLP
input is tiled.  build_model, forward and flops.flops_forward all read it.
Every MLP build_model makes is a layers.ExpertMLP: a "dense" or "be" block
holds one (the "be" one carries its members' rank-1 fast weights), and a
routed block holds a MoELayer of them.  build_model makes every parameter
once, under its dotted name, into Model.params; that order is the
checkpoint's and the optimizer's.

The residual stream is one (rows, hidden) tensor from the stem to the head,
its rows image-major blocks of n_tokens (member-major once tiled); only
attention, one tensor.attention node per block, groups them into images.

Tiling discipline: the input batch runs untiled through every block before
tile_block, and is replicated M times right before that block's MLP (the
attention of that block still sees the untiled batch).  In eval
mode, replicating the images up front instead gives bitwise identical
predictions, because every op before that MLP is row-independent; deferring
just does less work.  The tests keep that up-front ("naive") tiling as their
reference (tests/conftest.py), and flops.py prices both.

What the head reads: one class-token row per image (per member), after the
last block and the final layernorm.  Attention mixes tokens, so every block
before the last needs all its rows.  The last block's attention still runs
on every row: its keys and values span all tokens, and a MoE gate after it
routes every row.  Its MLP does not: in an eval forward it runs on the
class rows only, and those rows go straight to the final layernorm.  A MoE
layer there still gates and capacity-filters every row, so the capacity
fill order, the keyed eval noise and the returned decisions are those of
the full layer, and the dropout masks are drawn for every row and then
row-selected.  The outputs stay bitwise equal because a GEMM row's bits do
not depend on the other rows; a GEMM left with one row of a longer operand
keeps them through tensor.matmul_rows.  Training keeps all rows: there the
weight gradients' GEMMs sum over every row, and pruning would change their
bits.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import Record
from .errors import ConfigError, EvaluationError
from .layers import ExpertMLP, MoELayer, dropout_mask, layer_forward, tile
from .rng import Rng
from .routing import RouterParams
from .tensor import (Tensor, _keep_freed_memory, attention, concat, dense,
                     layernorm, no_grad, reshape, softmax, take_rows,
                     transpose)

VARIANTS = ("vit", "vmoe", "pbe", "only_tiling", "only_partitioning",
            "multihead", "be", "mimo")

# name: (image, patch, hidden, mlp_dim, layers, heads, last_n)
_PRESETS = {
    "S/32": (384, 32, 512, 2048, 8, 8, 2),
    "B/32": (384, 32, 768, 3072, 12, 12, 2),
    "B/16": (384, 16, 768, 3072, 12, 12, 2),
    "L/32": (384, 32, 1024, 4096, 24, 16, 2),
    "L/16": (384, 16, 1024, 4096, 24, 16, 2),
    "H/14": (378, 14, 1280, 5144, 32, 20, 5),
    "tiny": (8, 4, 32, 64, 4, 2, 2),
}

PRESET_NAMES = tuple(_PRESETS)


@dataclass
class ModelSpec(Record):
    """Static architecture + ensembling configuration."""

    image_size: int = 8
    patch_size: int = 4
    hidden: int = 32
    mlp_dim: int = 64
    layers: int = 4
    heads: int = 2
    classes: int = 4
    channels: int = 3
    e: int = 4
    k: int = 1
    m: int = 1
    last_n: int = 2
    variant: str = "vit"
    dropout_rate: float = 0.1
    noise_scale: float | None = None
    noise_multiplier: float = 1.0
    eval_noise_enabled: bool | None = None
    capacity_ratio: float | None = None
    contiguous_moe: bool = False
    mimo_input_repetition_prob: float = 0.5
    batch_repetitions: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        small = [name for name in ("image_size", "patch_size", "hidden",
                                   "mlp_dim", "layers", "heads", "classes",
                                   "channels", "e", "k", "m")
                 if getattr(self, name) < 1]
        if small:
            raise ConfigError(f"{', '.join(small)} must be positive")
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image_size must be a multiple of patch_size")
        if self.hidden % self.heads != 0:
            raise ConfigError("hidden must be a multiple of heads")
        if self.uses_moe or self.variant == "be":
            top = self.layers if self.contiguous_moe else (self.layers + 1) // 2
            if not 1 <= self.last_n <= top:
                raise ConfigError("last_n does not fit in the trunk")
        if self.variant in ("pbe", "only_partitioning"):
            if self.e % self.m != 0:
                raise ConfigError("e must be divisible by m")
            if self.k > self.e // self.m:
                raise ConfigError("k exceeds experts per member block")
        elif self.uses_moe and self.k > self.e:
            raise ConfigError("k exceeds expert count")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        if self.noise_scale is not None and self.noise_scale < 0:
            raise ConfigError("noise_scale must be >= 0")
        if self.noise_multiplier < 0:
            raise ConfigError("noise_multiplier must be >= 0")
        if not 0.0 <= self.mimo_input_repetition_prob <= 1.0:
            raise ConfigError("mimo_input_repetition_prob must be in [0, 1]")
        if self.capacity_ratio is not None and self.capacity_ratio <= 0:
            raise ConfigError("capacity_ratio must be positive")
        if self.batch_repetitions < 1:
            raise ConfigError("batch_repetitions must be >= 1")

    @property
    def uses_moe(self) -> bool:
        return self.variant in ("vmoe", "pbe", "only_tiling",
                                "only_partitioning", "multihead")

    @property
    def ensemble_size(self) -> int:
        # only_partitioning mixes all M expert blocks into one prediction,
        # so it is not an ensemble despite having M router blocks
        if self.variant in ("pbe", "only_tiling", "be", "mimo"):
            return self.m
        if self.variant == "multihead":
            return self.k
        return 1

    @property
    def tile_factor(self) -> int:
        """How many copies of the batch the tiled blocks see."""
        if self.variant in ("pbe", "only_tiling", "be"):
            return self.m
        return 1

    @property
    def mlp_kinds(self) -> tuple:
        """Each block's MLP, in depth order: "dense", "be", or the MoELayer
        mode of a routed block ("moe", "pbe", "only_partitioning" or
        "multihead").

        The last_n MoE/BE blocks sit where moe_block_positions puts them.
        only_tiling routes like vmoe ("moe"); its tiled rows and eval noise
        are set outside the layer.  multihead routes its top MoE block in
        multihead mode and the ones below as moe.
        """
        kinds = ["dense"] * self.layers
        if self.uses_moe or self.variant == "be":
            at = moe_block_positions(self.layers, self.last_n,
                                     self.contiguous_moe)
            kind = self.variant
            if kind in ("vmoe", "only_tiling", "multihead"):
                kind = "moe"
            for i in at:
                kinds[i] = kind
            if self.variant == "multihead":
                kinds[at[-1]] = "multihead"
        return tuple(kinds)

    @property
    def tile_block(self) -> int | None:
        """The block whose MLP input is tiled tile_factor times (the first
        MoE/BE block), or None when nothing is tiled."""
        if self.tile_factor == 1:
            return None
        return min(i for i, kind in enumerate(self.mlp_kinds)
                   if kind != "dense")

    @property
    def n_tokens(self) -> int:
        return (self.image_size // self.patch_size) ** 2 + 1

    @property
    def patch_dim(self) -> int:
        base = self.patch_size * self.patch_size * self.channels
        return base * self.m if self.variant == "mimo" else base

    def resolved_noise_scale(self) -> float:
        return (1.0 / self.e) if self.noise_scale is None else self.noise_scale

    def resolved_eval_noise(self) -> bool:
        if self.eval_noise_enabled is None:
            return self.variant == "only_tiling"
        return self.eval_noise_enabled


def preset(name: str, **overrides) -> ModelSpec:
    """Named size presets; overrides patch on top (variant, e, k, m, ...)."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(_PRESETS)}")
    image, patch, hidden, mlp_dim, layers, heads, last_n = _PRESETS[name]
    base = dict(image_size=image, patch_size=patch, hidden=hidden,
                mlp_dim=mlp_dim, layers=layers, heads=heads, last_n=last_n,
                classes=4 if name == "tiny" else 1000,
                e=4 if name == "tiny" else 32,
                k=1 if name == "tiny" else 2)
    base.update(overrides)
    return ModelSpec(**base)


def moe_block_positions(layers: int, last_n: int, contiguous: bool = False):
    """0-indexed block indices that carry an MoE (or BE) MLP.

    Default placement alternates from the top: the last block, then every
    second one going down, last_n of them total.  contiguous instead takes
    the last_n final blocks.
    """
    if contiguous:
        pos = range(layers - last_n, layers)
    else:
        pos = (layers - 1 - 2 * i for i in range(last_n))
    return sorted(pos)


@dataclass
class Block:
    """Pre-norm transformer block: attention then an MLP of some flavor."""

    ln1: tuple   # (gain, bias)
    attn: tuple  # (wq, bq, wk, bk, wv, bv, wo, bo)
    ln2: tuple
    mlp: object  # ExpertMLP (dense or "be") or MoELayer, per spec.mlp_kinds


class Model:
    """A built network: its spec, its blocks, and params, every parameter
    under its dotted name in the order build_model made them."""

    def __init__(self, spec: ModelSpec, params: dict, blocks: list):
        self.spec = spec
        self.params = params
        self.blocks = blocks


def _trunc_normal(gen, shape, std=0.02):
    """Normal(0, std) with |z| > 2 resampled until inside."""
    x = gen.standard_normal(shape)
    while True:
        bad = np.abs(x) > 2.0
        if not bad.any():
            break
        x[bad] = gen.standard_normal(int(bad.sum()))
    return x * std


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    """Initialize every parameter from a stream keyed by its dotted name.

    Each parameter is made once, into Model.params under that name, in the
    order the checkpoint table and the optimizer list them: the embedding,
    then per block ln1, attention, ln2 and the MLP, then the final
    layernorm and the head.
    """
    params = {}

    def new(name, value):
        params[name] = Tensor(value, requires_grad=True)
        return params[name]

    def draw(name, shape):
        return rng.stream("init", name).standard_normal(shape)

    def tn(name, shape):
        return new(name, _trunc_normal(rng.stream("init", name), shape))

    def zeros(name, shape):
        return new(name, np.zeros(shape))

    def ones(name, shape):
        return new(name, np.ones(shape))

    def norm(p):
        return ones(f"{p}.g", (d,)), zeros(f"{p}.b", (d,))

    def expert(p):
        return ExpertMLP(tn(f"{p}.w1", (d, f)), zeros(f"{p}.b1", (f,)),
                         tn(f"{p}.w2", (f, d)), zeros(f"{p}.b2", (d,)))

    def be_dense(p, n_in, n_out):
        u = tn(f"{p}.u", (n_in, n_out))
        r = [new(n, 1.0 + 0.5 * draw(n, (n_in,)))
             for n in (f"{p}.r.{j}" for j in range(spec.m))]
        s = [new(n, 1.0 + 0.5 * draw(n, (n_out,)))
             for n in (f"{p}.s.{j}" for j in range(spec.m))]
        return u, r, s

    def mlp(p, kind):
        if kind == "dense":
            return expert(p)
        if kind == "be":
            u1, r1, s1 = be_dense(f"{p}.be1", d, f)
            b1 = zeros(f"{p}.b1", (f,))
            u2, r2, s2 = be_dense(f"{p}.be2", f, d)
            return ExpertMLP(u1, b1, u2, zeros(f"{p}.b2", (d,)),
                             list(zip(r1, s1, r2, s2)))
        experts = [expert(f"{p}.experts.{e}") for e in range(spec.e)]
        routers = spec.m if kind in ("pbe", "only_partitioning") else 1
        router = RouterParams(
            [new(n, draw(n, (spec.e // routers, d)) * 0.02)
             for n in (f"{p}.router.{j}.w" for j in range(routers))],
            noise_scale=spec.resolved_noise_scale() * spec.noise_multiplier,
            eval_noise_enabled=spec.resolved_eval_noise())
        return MoELayer(experts, router, spec.k, mode=kind,
                        capacity_ratio=spec.capacity_ratio,
                        dropout_rate=spec.dropout_rate)

    d, f = spec.hidden, spec.mlp_dim
    tn("embed.w", (spec.patch_dim, d))
    zeros("embed.b", (d,))
    tn("cls", (d,))
    tn("pos", (spec.n_tokens, d))
    blocks = []
    for i, kind in enumerate(spec.mlp_kinds):
        p = f"blocks.{i}"
        ln1 = norm(f"{p}.ln1")
        attn = tuple(t for c in "qkvo" for t in (
            tn(f"{p}.attn.w{c}", (d, d)), zeros(f"{p}.attn.b{c}", (d,))))
        ln2 = norm(f"{p}.ln2")
        blocks.append(Block(ln1, attn, ln2, mlp(f"{p}.mlp", kind)))
    norm("final_ln")
    head_out = spec.classes * (spec.m if spec.variant == "mimo" else 1)
    tn("head.w", (d, head_out))
    zeros("head.b", (head_out,))
    return Model(spec, params, blocks)


@dataclass
class PredictionBundle:
    """Per-member and pooled predictions from one forward pass.

    member_probs: (M, B, classes).  decisions lists the RoutingDecision of
    each MoE layer in depth order.  member_features, when requested, holds
    the pre-head class-token features (M, B, hidden) as a plain array.
    """

    member_probs: Tensor
    decisions: list = field(default_factory=list)
    member_features: np.ndarray | None = None

    @property
    def ensemble_probs(self) -> Tensor:
        """(B, classes) mean over members, derived off the tape: training
        reads member_probs only."""
        return Tensor(self.member_probs.data.mean(axis=0))


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(B, H, W, C) -> (B, H*W/p^2, p*p*C), row-major patch order."""
    b, h, w, c = images.shape
    nh, nw = h // patch, w // patch
    x = images.reshape(b, nh, patch, nw, patch, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, nh * nw, patch * patch * c)


def forward(model: Model, images, rng: Rng, *, train: bool = False,
            step: int = 0, mc_sample: int | None = None,
            want_features: bool = False) -> PredictionBundle:
    """Run the full network; see PredictionBundle for what comes back.

    train=True turns on routing noise and dropout and builds the tape for
    backward; train=False runs under no_grad, so no tape is built, and runs
    the last block's MLP on the class-token rows only (see the module
    docstring), with the outputs of a full-row forward bit for bit.
    mc_sample draws an eval-time dropout mask addressed by the sample index;
    mc_sample=-1 draws the masks a train forward at the same step draws.
    step feeds the per-step noise/dropout key.
    """
    _keep_freed_memory()
    with contextlib.nullcontext() if train else no_grad():
        return _forward(model, images, rng, train, step, mc_sample,
                        want_features)


def _forward(model, images, rng, train, step, mc_sample, want_features):
    spec = model.spec
    x_img = np.asarray(images, dtype=np.float64)
    if x_img.ndim != 4 or x_img.shape[0] == 0:
        raise ConfigError("images must be (B, H, W, C) with B >= 1")
    if spec.variant == "mimo":
        if x_img.shape[-1] == spec.channels:
            x_img = np.tile(x_img, (1, 1, 1, spec.m))
        elif x_img.shape[-1] != spec.channels * spec.m:
            raise ConfigError("mimo input needs C or M*C channels")
    elif x_img.shape[-1] != spec.channels:
        raise ConfigError("channel count mismatch")
    if x_img.shape[1:3] != (spec.image_size,) * 2:
        raise ConfigError(f"images must be {spec.image_size} pixels square, "
                          f"got {x_img.shape[1]}x{x_img.shape[2]}")

    n_members = spec.ensemble_size
    tile_block = spec.tile_block
    p = model.params

    b_in = x_img.shape[0]
    patches = patchify(x_img, spec.patch_size)
    x = dense(Tensor(patches), p["embed.w"], p["embed.b"])
    t = spec.n_tokens
    d = spec.hidden
    x = concat([Tensor(np.zeros((b_in, 1, d))) + p["cls"], x], axis=1)
    x = reshape(x + p["pos"], (b_in * t, d))

    dropout_on = train or (mc_sample is not None)
    sample = -1 if mc_sample is None else int(mc_sample)
    decisions = []

    last = spec.layers - 1
    for i, (blk, kind) in enumerate(zip(model.blocks, spec.mlp_kinds)):
        x = x + attention(layernorm(x, *blk.ln1), blk.attn, spec.heads, t)
        if i == tile_block:
            x = tile(x, spec.tile_factor)
        n = x.data.shape[0]
        bc = n // t
        # the rows the MLP runs on: all of them, except in the last block of
        # an eval forward, where only the head reads the output
        rows = np.arange(bc) * t if i == last and not train else None
        res = x if rows is None else take_rows(x, rows)
        noise_key = ("route", i, step)
        drop_key = ("drop", i, step, sample)
        if kind in ("dense", "be"):
            mask = None
            if dropout_on:
                mask = dropout_mask(rng, spec.dropout_rate,
                                    blk.mlp.hidden_dim,
                                    [(n, (*drop_key, -1, 0))], rows)
            x = res + blk.mlp.forward(layernorm(res, *blk.ln2), mask,
                                      full_rows=n)
        else:
            out, decision = layer_forward(
                layernorm(x, *blk.ln2), blk.mlp, rng,
                train=train, dropout_on=dropout_on, noise_key=noise_key,
                dropout_key=drop_key, rows=rows)
            decisions.append(decision)
            if kind == "multihead":
                # slot outputs become ensemble members: add the residual
                # to each of the K slots, slot-major, then fold the slots
                # into the rows (member-major)
                x = reshape(transpose(out, (1, 0, 2)) + res, (-1, d))
                bc *= spec.k
            else:
                x = res + out

    # the head reads the class rows, all that an eval forward's last block
    # kept
    cls_tokens = x if rows is not None else take_rows(x, np.arange(bc) * t)
    feats = layernorm(cls_tokens, p["final_ln.g"], p["final_ln.b"])
    logits = dense(feats, p["head.w"], p["head.b"])

    if spec.variant == "mimo":
        b = bc
        member_logits = transpose(reshape(logits, (b, spec.m, spec.classes)),
                                  (1, 0, 2))
        member_probs = softmax(member_logits, axis=-1)
    else:
        b = bc // n_members
        probs = softmax(logits, axis=-1)
        member_probs = reshape(probs, (n_members, b, spec.classes))
    if not np.isfinite(member_probs.data).all():
        raise EvaluationError("non-finite probabilities in forward pass")

    features = None
    if want_features:
        fdata = feats.data
        if spec.variant == "mimo":
            features = np.broadcast_to(fdata, (spec.m,) + fdata.shape).copy()
        else:
            features = fdata.reshape(n_members, b, d).copy()
    return PredictionBundle(member_probs, decisions, features)


def ensemble_predict(passes, images, rng: Rng, *,
                     want_features: bool = False) -> PredictionBundle:
    """Pool eval forwards; each (model, mc_sample) pass is one member.

    A deep ensemble passes (model, None) per trained model; MC dropout
    passes (model, s) per dropout draw s of one model.  A member's
    probabilities are its pass's ensemble_probs, and ensemble_probs is
    their mean.  With want_features, member_features stacks every pass's
    member_features along the member axis, in pass order.
    """
    if not passes:
        raise ConfigError("need at least one (model, mc_sample) pass")
    if any(s is not None and mdl.spec.dropout_rate == 0.0
           for mdl, s in passes):
        warnings.warn("dropout_rate is 0; MC-dropout members are identical")
    bundles = [forward(mdl, images, rng, train=False, mc_sample=s,
                       want_features=want_features) for mdl, s in passes]
    member = Tensor(np.concatenate(
        [b.ensemble_probs.data[None, :, :] for b in bundles], axis=0))
    features = None
    if want_features:
        features = np.concatenate([b.member_features for b in bundles],
                                  axis=0)
    return PredictionBundle(member, member_features=features)
