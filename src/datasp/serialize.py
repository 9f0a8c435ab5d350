"""Binary containers: dense float64 tensors and model checkpoints.

Tensor container: magic "DSPT", uint32 version, uint32 ndim, int64 dims,
then the row-major float64 payload.

Checkpoint: magic "DSPC", uint64 header length, UTF-8 JSON header, then the
concatenated row-major float64 payloads of every array listed in the
header's "arrays" entry (name + shape, in order).  Round trips are
bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .costmodel import ModelParams
from .errors import ValidationError, is_int, is_real

_TENSOR_MAGIC = b"DSPT"
_CHECKPOINT_MAGIC = b"DSPC"
_MAX_NDIM = 64


def save_tensor(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<II", 1, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _TENSOR_MAGIC:
            raise ValidationError(f"{path} is not a tensor container")
        version, ndim = struct.unpack("<II", fh.read(8))
        if version != 1:
            raise ValidationError(f"unsupported tensor container version {version}")
        if ndim > _MAX_NDIM:
            raise ValidationError(f"tensor has {ndim} dimensions, at most {_MAX_NDIM} allowed")
        shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        payload = fh.read()
    if any(d < 0 for d in shape):
        raise ValidationError(f"tensor has a negative dimension: {shape}")
    expected = math.prod(shape)
    if len(payload) != 8 * expected:
        raise ValidationError(f"tensor payload has {len(payload)} bytes, expected {8 * expected}")
    return np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()


def save_checkpoint(path, params: ModelParams, step: int = 0, extra: dict | None = None,
                    opt_state: dict | None = None) -> None:
    header = {
        "kind": "cost-model",
        "feature_dim": params.feature_dim,
        "hidden_sizes": list(params.hidden_sizes),
        "edge_count": params.edge_count,
        "cost_floor": params.cost_floor,
        "step": int(step),
        "opt_state_t": int(opt_state["t"]) if opt_state is not None else None,
        "extra": extra or {},
    }
    header["arrays"] = _array_specs(header)
    arrays = params.flat_arrays()
    if opt_state is not None:
        arrays += opt_state["m"] + opt_state["v"]
    if [list(np.shape(arr)) for arr in arrays] != [spec["shape"] for spec in header["arrays"]]:
        raise ValidationError("checkpoint arrays do not match the model's layer sizes")
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes(order="C"))


def _array_specs(header) -> list[dict]:
    """The array list a checkpoint with this header's sizes must carry, in
    the order `save_checkpoint` writes it; raises on a malformed header."""
    hidden = header.get("hidden_sizes")
    dims = [header.get("feature_dim"), *(hidden if isinstance(hidden, list) else [None]),
            header.get("edge_count")]
    step, t = header.get("step"), header.get("opt_state_t")
    if (not all(is_int(d) and d > 0 for d in dims) or not (is_int(step) and step >= 0)
            or not (is_real(header.get("cost_floor")) and header["cost_floor"] > 0)
            or not (t is None or is_int(t) and t >= 0)):
        raise ValidationError("checkpoint header needs positive integer layer sizes "
                              "(feature_dim, hidden_sizes, edge_count), a positive "
                              "cost_floor, and nonnegative integer step and opt_state_t")
    specs = []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        specs += [{"name": f"weight_{layer}", "shape": [fan_out, fan_in]},
                  {"name": f"bias_{layer}", "shape": [fan_out]}]
    if t is not None:
        specs += [{"name": f"adam_{part}_{idx}", "shape": spec["shape"]}
                  for part in ("m", "v") for idx, spec in enumerate(specs)]
    return specs


@dataclass
class Checkpoint:
    """A loaded checkpoint; `sha256` is the digest of the file's bytes."""

    params: ModelParams
    step: int
    extra: dict
    opt_state: dict | None
    blob: bytes = field(repr=False)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.blob).hexdigest()


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path, read in one call; every header and payload
    check runs on those bytes, and each array is copied out of them."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise ValidationError(f"{path} is not a checkpoint file")
    (header_len,) = struct.unpack_from("<Q", blob, 4)
    start = 12 + header_len
    if len(blob) < start:
        raise ValidationError(f"{path}: checkpoint header is truncated")
    header = json.loads(blob[12:start].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: checkpoint header is not a JSON object")
    specs = _array_specs(header)
    if header.get("arrays") != specs:
        raise ValidationError(f"{path}: checkpoint arrays do not match its layer sizes")
    expected = 8 * sum(math.prod(spec["shape"]) for spec in specs)
    if len(blob) - start != expected:
        raise ValidationError(f"{path}: checkpoint payload has {len(blob) - start} bytes, "
                              f"expected {expected} (truncated?)")

    arrays, offset = [], start
    for spec in specs:
        count = math.prod(spec["shape"])
        chunk = np.frombuffer(blob, dtype=np.float64, count=count, offset=offset)
        arrays.append(chunk.reshape(spec["shape"]).copy())
        offset += count * 8

    n = 2 * (len(header["hidden_sizes"]) + 1)
    params = ModelParams(
        weights=arrays[0:n:2],
        biases=arrays[1:n:2],
        feature_dim=header["feature_dim"],
        hidden_sizes=list(header["hidden_sizes"]),
        edge_count=header["edge_count"],
        cost_floor=float(header["cost_floor"]),
    )
    opt_state = None
    if header.get("opt_state_t") is not None:
        opt_state = {"m": arrays[n:2 * n], "v": arrays[2 * n:], "t": header["opt_state_t"]}
    return Checkpoint(params=params, step=header["step"], extra=header.get("extra", {}),
                      opt_state=opt_state, blob=blob)


def canonical_json(obj) -> str:
    """Deterministic JSON text (sorted keys, newline-terminated)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
