import hashlib
import json
import math
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values
from datasp.cli import INPUT_ERRORS
from datasp.costmodel import init_params
from datasp.errors import ValidationError
from datasp.serialize import (
    _array_specs,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
)


def test_tensor_round_trip(tmp_path, rng):
    arr = rng.standard_normal((3, 4, 5))
    arr[0, 0, 0] = np.inf
    path = tmp_path / "t.bin"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_tensor_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        load_tensor(path)


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    params = init_params(4, [8, 6], 10, seed=1)
    for w in params.weights:
        w += rng.standard_normal(w.shape)
    opt = {"m": [np.ones_like(a) * 0.1 for a in params.flat_arrays()],
           "v": [np.ones_like(a) * 0.2 for a in params.flat_arrays()],
           "t": 17}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params, step=42, extra={"note": 1}, opt_state=opt)
    checkpoint = load_checkpoint(path)
    loaded, opt_back = checkpoint.params, checkpoint.opt_state
    assert checkpoint.step == 42
    assert checkpoint.extra == {"note": 1}
    assert loaded.hidden_sizes == [8, 6]
    assert loaded.cost_floor == params.cost_floor
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    assert opt_back["t"] == 17
    for a, b in zip(opt["m"], opt_back["m"]):
        assert np.array_equal(a, b)

    # writing the loaded model again reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.bin"
    save_checkpoint(path2, loaded, step=42, extra={"note": 1}, opt_state=opt_back)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_without_opt_state(tmp_path):
    params = init_params(2, [], 3, seed=0)
    path = tmp_path / "c.bin"
    save_checkpoint(path, params, step=0)
    assert load_checkpoint(path).opt_state is None


@pytest.mark.parametrize("case", ["transposed-weight", "zero-floor", "short-adam-state"])
def test_checkpoint_refuses_a_model_its_header_cannot_describe(case, tmp_path):
    # Each of these would otherwise be written and then read back wrongly
    # or refused only at load.
    params = init_params(3, [4], 5, seed=0)
    opt = None
    if case == "transposed-weight":
        params.weights[0] = params.weights[0].T.copy()
    elif case == "zero-floor":
        params.cost_floor = 0.0
    else:
        opt = {"m": params.flat_arrays()[:-1], "v": params.flat_arrays(), "t": 1}
    path = tmp_path / "c.bin"
    with pytest.raises(ValidationError):
        save_checkpoint(path, params, opt_state=opt)
    assert not path.exists()


def test_sha256(tmp_path):
    # the digest is taken from the bytes the checkpoint was loaded from
    path = tmp_path / "c.bin"
    save_checkpoint(path, init_params(2, [], 3, seed=0), step=0)
    assert load_checkpoint(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def _adam_checkpoint(path, with_opt: bool):
    params = init_params(3, [5], 7, seed=2)
    opt = ({"m": [a + 0.5 for a in params.flat_arrays()],
            "v": [a * a for a in params.flat_arrays()], "t": 4} if with_opt else None)
    save_checkpoint(path, params, step=9, extra={"val_jaccard": 0.25}, opt_state=opt)


@pytest.mark.parametrize("with_opt", [False, True])
def test_sha256_is_the_digest_of_the_file_with_and_without_adam_state(tmp_path, with_opt):
    path = tmp_path / "c.bin"
    _adam_checkpoint(path, with_opt)
    checkpoint = load_checkpoint(path)
    assert (checkpoint.opt_state is not None) == with_opt
    assert checkpoint.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_loaded_arrays_are_aligned_read_only_views(tmp_path):
    path = tmp_path / "c.bin"
    _adam_checkpoint(path, with_opt=True)
    checkpoint = load_checkpoint(path)
    opt = checkpoint.opt_state
    arrays = checkpoint.params.flat_arrays() + opt["m"] + opt["v"]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.aligned and not arr.flags.writeable
        assert np.shares_memory(arr, checkpoint.payload)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0
    assert sum(arr.size for arr in arrays) == checkpoint.payload.size
    assert checkpoint.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def _forged(blob: bytes, case: str) -> bytes:
    """A checkpoint whose header length, or whose declared payload, runs
    far past the end of the file."""
    (length,) = struct.unpack("<Q", blob[4:12])
    header = json.loads(blob[12:12 + length])
    if case == "header-length":
        return blob[:4] + struct.pack("<Q", 2 ** 40) + blob[12:]
    header["edge_count"] = 2 ** 40  # a 2**43-byte last layer
    header["arrays"] = _array_specs(header)
    text = json.dumps(header).encode("utf-8")
    return b"DSPC" + struct.pack("<Q", len(text)) + text + blob[12 + length:]


@pytest.mark.parametrize("case, message", [
    ("header-length", "checkpoint header is truncated"),
    ("payload", "checkpoint payload has"),
])
def test_lengths_past_the_end_of_the_file_are_refused_before_any_allocation(
        tmp_path, case, message):
    path = tmp_path / "c.bin"
    _adam_checkpoint(path, with_opt=True)
    path.write_bytes(_forged(path.read_bytes(), case))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_a_checkpoint_read_through_a_pipe_loads_like_the_file(tmp_path):
    path = tmp_path / "c.bin"
    _adam_checkpoint(path, with_opt=True)
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, path.read_bytes()),
                                              os.close(write_end)))
    writer.start()
    try:
        piped = load_checkpoint(f"/dev/fd/{read_end}")
    finally:
        writer.join()
        os.close(read_end)
    assert piped.sha256 == load_checkpoint(path).sha256


def _loads_or_input_error(loader, blob):
    """Write `blob` to a file and load it; True when it loaded, False when
    the loader raised an error that the CLI reports as exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        path.write_bytes(blob)
        try:
            loader(path)
        except INPUT_ERRORS:
            return False
    return True


@st.composite
def _tensor_files(draw):
    dims = draw(st.lists(st.integers(-1, 3) | st.integers(-2 ** 63, 2 ** 63 - 1), max_size=3))
    ndim = draw(st.just(len(dims)) | st.integers(0, 2 ** 32 - 1))
    size = math.prod(dims) if all(0 <= d <= 3 for d in dims) else 0
    payload = draw(st.just(bytes(8 * size)) | st.binary(max_size=40))
    version = draw(st.just(1) | st.integers(0, 2 ** 32 - 1))
    blob = (b"DSPT" + struct.pack("<II", version, ndim)
            + struct.pack(f"<{len(dims)}q", *dims) + payload)
    return draw(st.just(blob) | st.binary(max_size=40))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_tensor_files())
def test_load_tensor_raises_only_input_errors(blob):
    _loads_or_input_error(load_tensor, blob)


def _checkpoint_parts(with_opt: bool) -> tuple[dict, bytes]:
    params = init_params(2, [3], 4, seed=0)
    opt = {"m": params.flat_arrays(), "v": params.flat_arrays(), "t": 2} if with_opt else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        save_checkpoint(path, params, step=5, opt_state=opt)
        blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[4:12])
    return json.loads(blob[12:12 + length]), blob[12 + length:]


_CHECKPOINT_PARTS = {opt: _checkpoint_parts(opt) for opt in (False, True)}


@st.composite
def _checkpoint_files(draw):
    header, payload = _CHECKPOINT_PARTS[draw(st.booleans())]
    header = dict(header)
    key = draw(st.sampled_from(sorted(header)))
    action = draw(st.sampled_from(["keep", "replace", "delete"]))
    if action == "replace":
        header[key] = draw(json_values)
    elif action == "delete":
        del header[key]
    text = json.dumps(header).encode("utf-8")
    length = draw(st.just(len(text)) | st.integers(0, 2 ** 64 - 1))
    cut = draw(st.sampled_from([0, 0, 1, 8, -8]))
    payload = payload[:len(payload) - cut] if cut > 0 else payload + bytes(-cut)
    blob = b"DSPC" + struct.pack("<Q", length) + text + payload
    return draw(st.just(blob) | st.binary(max_size=40))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_checkpoint_files())
def test_load_checkpoint_raises_only_input_errors(blob):
    _loads_or_input_error(load_checkpoint, blob)
