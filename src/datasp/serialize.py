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
import struct

import numpy as np

from .costmodel import ModelParams
from .errors import ValidationError

_TENSOR_MAGIC = b"DSPT"
_CHECKPOINT_MAGIC = b"DSPC"


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
        shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
        payload = fh.read()
    expected = int(np.prod(shape)) if ndim else 1
    if len(payload) != 8 * expected:
        raise ValidationError(f"tensor payload has {len(payload)} bytes, expected {8 * expected}")
    return np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()


def save_checkpoint(path, params: ModelParams, step: int = 0, extra: dict | None = None,
                    opt_state: dict | None = None) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for idx, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays.append((f"weight_{idx}", w))
        arrays.append((f"bias_{idx}", b))
    if opt_state is not None:
        for idx, m in enumerate(opt_state["m"]):
            arrays.append((f"adam_m_{idx}", m))
        for idx, v in enumerate(opt_state["v"]):
            arrays.append((f"adam_v_{idx}", v))

    header = {
        "kind": "cost-model",
        "feature_dim": params.feature_dim,
        "hidden_sizes": list(params.hidden_sizes),
        "edge_count": params.edge_count,
        "cost_floor": params.cost_floor,
        "step": int(step),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
        "opt_state_t": int(opt_state["t"]) if opt_state is not None else None,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes(order="C"))


def load_checkpoint(path) -> tuple[ModelParams, int, dict, dict | None]:
    """Returns (params, step, extra, opt_state or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHECKPOINT_MAGIC:
            raise ValidationError(f"{path} is not a checkpoint file")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        payload = fh.read()

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        if len(payload) < offset + 8 * count:
            raise ValidationError(f"{path}: checkpoint payload is truncated")
        chunk = np.frombuffer(payload, dtype=np.float64, count=count, offset=offset)
        arrays[spec["name"]] = chunk.reshape(shape).copy()
        offset += count * 8

    num_layers = len(header["hidden_sizes"]) + 1
    params = ModelParams(
        weights=[arrays[f"weight_{i}"] for i in range(num_layers)],
        biases=[arrays[f"bias_{i}"] for i in range(num_layers)],
        feature_dim=int(header["feature_dim"]),
        hidden_sizes=[int(h) for h in header["hidden_sizes"]],
        edge_count=int(header["edge_count"]),
        cost_floor=float(header["cost_floor"]),
    )
    opt_state = None
    if header.get("opt_state_t") is not None:
        opt_state = {
            "m": [arrays[f"adam_m_{i}"] for i in range(num_layers * 2)],
            "v": [arrays[f"adam_v_{i}"] for i in range(num_layers * 2)],
            "t": int(header["opt_state_t"]),
        }
    return params, int(header["step"]), header.get("extra", {}), opt_state


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_json(obj) -> str:
    """Deterministic JSON text (sorted keys, newline-terminated)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
