"""Named-parameter checkpoints: binary serialization and the atomic writer.

File layout: magic "MOEL", format version as little-endian u32, a u64 byte
length, then that many bytes of canonical JSON (sorted keys, compact
separators) holding the model spec and the tensor table, then the raw
float32 little-endian blobs concatenated in table order.  The tensor table
is sorted by parameter name so identical parameter maps always serialize to
identical bytes.  The loader raises ConfigError for any truncated or
malformed file, and write_atomic is the writer of every output file.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Record
from .errors import ConfigError
from .model import Model, ModelSpec, build_model
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


def checkpoint_from_model(model: Model) -> Checkpoint:
    params = {name: t.data.astype(np.float32)
              for name, t in model.params.items()}
    return Checkpoint(model.spec, params)


def apply_checkpoint(model: Model, ckpt: Checkpoint) -> Model:
    """Load values in place; every parameter must match by name and shape."""
    if set(model.params) != set(ckpt.params):
        missing = sorted(set(model.params) - set(ckpt.params))
        extra = sorted(set(ckpt.params) - set(model.params))
        raise ConfigError(f"parameter names differ; missing={missing[:4]} "
                          f"extra={extra[:4]}")
    for name, t in model.params.items():
        arr = np.asarray(ckpt.params[name], dtype=np.float64)
        if arr.shape != t.data.shape:
            raise ConfigError(f"shape mismatch for {name}: "
                              f"{arr.shape} vs {t.data.shape}")
        t.data = arr
    return model


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    model = build_model(ckpt.spec, Rng(0))
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
    header = {"format_version": FORMAT_VERSION,
              "model_spec": ckpt.spec.to_dict(),
              "tensors": table}
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION),
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
    return Checkpoint(header.model_spec, params)

