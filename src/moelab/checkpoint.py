"""Named-parameter checkpoints: binary serialization and variant adapters.

File layout: magic "MOEL", format version as little-endian u32, a u64 byte
length, then that many bytes of canonical JSON (sorted keys, compact
separators) holding the model spec and the tensor table, then the raw
float32 little-endian blobs concatenated in table order.  The tensor table
is sorted by parameter name so identical parameter maps always serialize to
identical bytes.  The loader raises ConfigError for any truncated or
malformed file, and write_atomic is the writer of every output file.

Adapters turn a trained checkpoint of one variant into a compatible
initialization for another: vmoe -> pbe (router row-slicing), vit -> mimo
(channel-tiled embedding and head, 1/M scaled), vit -> be (MLP weights become
the shared factors, fresh per-member rank-1 vectors).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import Record
from .errors import ConfigError
from .model import Model, ModelSpec, build_model, moe_block_positions
from .rng import Rng

MAGIC = b"MOEL"
FORMAT_VERSION = 1


@dataclass
class _TensorEntry(Record):
    name: str
    shape: list[int]
    dtype: str

    def __post_init__(self):
        if self.dtype != "float32" or min(self.shape, default=0) < 0:
            raise ConfigError(f"bad checkpoint tensor entry {self}")


@dataclass
class _Header(Record):
    format_version: int
    model_spec: ModelSpec
    tensors: list[_TensorEntry]


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: dict  # name -> float32 ndarray
    format_version: int = FORMAT_VERSION


def state_dict(model: Model) -> dict:
    """Current parameter values, float64 copies keyed by dotted name."""
    return {name: t.data.copy() for name, t in model.named_params()}


def checkpoint_from_model(model: Model) -> Checkpoint:
    params = {name: t.data.astype(np.float32)
              for name, t in model.named_params()}
    return Checkpoint(model.spec, params)


def apply_checkpoint(model: Model, ckpt: Checkpoint) -> Model:
    """Load values in place; every parameter must match by name and shape."""
    names = {name: t for name, t in model.named_params()}
    if set(names) != set(ckpt.params):
        missing = sorted(set(names) - set(ckpt.params))
        extra = sorted(set(ckpt.params) - set(names))
        raise ConfigError(f"parameter names differ; missing={missing[:4]} "
                          f"extra={extra[:4]}")
    for name, t in names.items():
        arr = np.asarray(ckpt.params[name], dtype=np.float64)
        if arr.shape != t.data.shape:
            raise ConfigError(f"shape mismatch for {name}: "
                              f"{arr.shape} vs {t.data.shape}")
        t.data = arr
    return model


def model_from_checkpoint(ckpt: Checkpoint, rng: Rng | None = None) -> Model:
    model = build_model(ckpt.spec, rng or Rng(0))
    return apply_checkpoint(model, ckpt)


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it over
    `path`: a reader sees the old file or the new one, never a torn one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    names = sorted(ckpt.params)
    table = [{"name": n,
              "shape": [int(s) for s in ckpt.params[n].shape],
              "dtype": "float32"} for n in names]
    header = {"format_version": ckpt.format_version,
              "model_spec": ckpt.spec.to_dict(),
              "tensors": table}
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", ckpt.format_version),
             struct.pack("<Q", len(blob)), blob]
    parts += [np.ascontiguousarray(ckpt.params[n], dtype="<f4").tobytes()
              for n in names]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC or len(raw) < 16:
        raise ConfigError("not a checkpoint file (bad magic or short prefix)")
    version, hlen = struct.unpack_from("<IQ", raw, 4)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"checkpoint header is not JSON: {exc}") from None
    header = _Header.from_dict(header, "checkpoint header")
    if header.format_version != version:
        raise ConfigError(f"checkpoint header says format version "
                          f"{header.format_version}, prefix says {version}")
    params = {}
    off = 16 + hlen
    for entry in header.tensors:
        count = math.prod(entry.shape)
        if off + count * 4 > len(raw):
            raise ConfigError("checkpoint has trailing or missing bytes")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        params[entry.name] = arr.reshape(entry.shape).copy()
        off += count * 4
    if off != len(raw):
        raise ConfigError("checkpoint has trailing or missing bytes")
    return Checkpoint(header.model_spec, params, version)


def adapt_checkpoint_pbe(ckpt: Checkpoint, m: int) -> Checkpoint:
    """Slice each single router (E, D) into M row blocks of E/M rows.

    Expert parameters are untouched, so the total parameter count is
    identical and concatenating the blocks reconstructs the original router.
    """
    spec = ckpt.spec
    if spec.variant != "vmoe":
        raise ConfigError("pbe adaptation starts from a vmoe checkpoint")
    if spec.e % m != 0:
        raise ConfigError("e must be divisible by m")
    new_spec = replace(spec, variant="pbe", m=m)
    per = spec.e // m
    moe_at = set(moe_block_positions(spec.layers, spec.last_n,
                                     spec.contiguous_moe))
    params = {}
    for name, arr in ckpt.params.items():
        parts = name.split(".")
        if (len(parts) == 6 and parts[0] == "blocks" and parts[2] == "mlp"
                and parts[3] == "router" and int(parts[1]) in moe_at):
            for j in range(m):
                params[f"blocks.{parts[1]}.mlp.router.{j}.w"] = \
                    arr[j * per:(j + 1) * per].copy()
        else:
            params[name] = arr.copy()
    return Checkpoint(new_spec, params, ckpt.format_version)


def adapt_checkpoint_mimo(ckpt: Checkpoint, m: int) -> Checkpoint:
    """Tile the patch embedding over M input-channel groups and the head
    over M output groups, both scaled 1/M; head bias replicates unscaled.

    With M identical images stacked channel-wise, each member's logits then
    equal the original model's logits.
    """
    spec = ckpt.spec
    if spec.variant != "vit":
        raise ConfigError("mimo adaptation starts from a vit checkpoint")
    new_spec = replace(spec, variant="mimo", m=m)
    params = {k: v.copy() for k, v in ckpt.params.items()}
    ew = ckpt.params["embed.w"]
    pix = spec.patch_size * spec.patch_size
    ew3 = ew.reshape(pix, spec.channels, spec.hidden)
    tiled = np.concatenate([ew3] * m, axis=1) / np.float32(m)
    params["embed.w"] = tiled.reshape(pix * m * spec.channels, spec.hidden)
    hw = ckpt.params["head.w"]
    params["head.w"] = np.concatenate([hw] * m, axis=1) / np.float32(m)
    hb = ckpt.params["head.b"]
    params["head.b"] = np.concatenate([hb] * m, axis=0)
    return Checkpoint(new_spec, params, ckpt.format_version)


def adapt_checkpoint_be(ckpt: Checkpoint, m: int, init_mode: str,
                        rng: Rng) -> Checkpoint:
    """Reuse the last-n MLP weights as shared BE factors, draw fresh rank-1
    vectors per member: random_sign gives +-1 entries, gaussian gives
    N(1, 0.5)."""
    spec = ckpt.spec
    if spec.variant != "vit":
        raise ConfigError("be adaptation starts from a vit checkpoint")
    if init_mode not in ("random_sign", "gaussian"):
        raise ConfigError(f"unknown init_mode {init_mode!r}")
    new_spec = replace(spec, variant="be", m=m)
    be_at = set(moe_block_positions(spec.layers, spec.last_n,
                                    spec.contiguous_moe))

    def draw(name, size):
        gen = rng.stream("be_init", name)
        if init_mode == "random_sign":
            v = gen.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
        else:
            v = 1.0 + 0.5 * gen.standard_normal(size)
        return v.astype(np.float32)

    params = {}
    for name, arr in ckpt.params.items():
        parts = name.split(".")
        if (len(parts) == 4 and parts[0] == "blocks" and parts[2] == "mlp"
                and int(parts[1]) in be_at):
            i, leaf = parts[1], parts[3]
            p = f"blocks.{i}.mlp"
            if leaf in ("w1", "w2"):
                idx = leaf[1]
                params[f"{p}.be{idx}.u"] = arr.copy()
                n_in, n_out = arr.shape
                for j in range(m):
                    params[f"{p}.be{idx}.r.{j}"] = draw(f"{p}.be{idx}.r.{j}",
                                                        n_in)
                    params[f"{p}.be{idx}.s.{j}"] = draw(f"{p}.be{idx}.s.{j}",
                                                        n_out)
            else:
                params[name] = arr.copy()
        else:
            params[name] = arr.copy()
    return Checkpoint(new_spec, params, ckpt.format_version)
