"""Deterministic binary snapshot of a trained model.

File layout::

    b"hdeeg-model-v1\\n"
    <one JSON line: header, sorted keys, compact separators>
    <raw array bytes>

The header carries the pipeline parameters, channel names, channel
statistics, bundle counts, split ids, and an ordered ``arrays`` list of
(name, dtype, shape) descriptors.  Array bytes follow in exactly that
order as little-endian C-order buffers: the item-memory matrix (int8),
the level-memory matrix (int8), then the two prototype accumulators
(int64).  Nothing in the file depends on time or environment, so saving
the same model twice yields identical bytes.
"""

import json
from pathlib import Path

import numpy as np

from . import hv
from .classifier import PipelineParams, TrainedModel
from .memories import AssociativeMemory, ContinuousItemMemory, ItemMemory
from .preprocess import ChannelStats
from .common import Label

__all__ = ["ModelFormatError", "save_model", "load_model"]

MAGIC = b"hdeeg-model-v1\n"

_ARRAY_DTYPES = {"int8": "<i1", "int64": "<i8"}


class ModelFormatError(ValueError):
    """Model file is not in the expected snapshot format."""


def save_model(model: TrainedModel, path) -> None:
    """Write the snapshot; byte-identical for identical models."""
    arrays = [
        ("item_memory", "int8", model.item_memory.vectors),
        ("level_memory", "int8", model.level_memory.vectors),
        ("prototype_adhd", "int64", model.memory.prototype(Label.ADHD)),
        ("prototype_control", "int64", model.memory.prototype(Label.CONTROL)),
    ]
    header = {
        "format": 1,
        "params": model.params.to_dict(),
        "channels": list(model.channels),
        "channel_stats": [s.to_dict() for s in model.channel_stats],
        "bundle_counts": {
            str(Label.ADHD): model.memory.bundle_count(Label.ADHD),
            str(Label.CONTROL): model.memory.bundle_count(Label.CONTROL),
        },
        "train_ids": list(model.train_ids),
        "test_ids": list(model.test_ids),
        "arrays": [
            {"name": name, "dtype": dtype, "shape": list(arr.shape)}
            for name, dtype, arr in arrays
        ],
    }
    blob = bytearray(MAGIC)
    blob += json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b"\n"
    for _, dtype, arr in arrays:
        blob += np.ascontiguousarray(arr, dtype=_ARRAY_DTYPES[dtype]).tobytes()
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> TrainedModel:
    """Reload a snapshot bit-exactly; raises ModelFormatError when malformed."""
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise ModelFormatError(f"{path}: not a model snapshot (bad magic)")
    body = data[len(MAGIC):]
    newline = body.find(b"\n")
    if newline < 0:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(body[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable header ({exc})") from exc
    payload = body[newline + 1:]
    try:
        fmt = header["format"]
        params = PipelineParams.from_dict(header["params"])
        params.validate()
        channels = tuple(str(c) for c in header["channels"])
        stats = tuple(ChannelStats.from_dict(s) for s in header["channel_stats"])
        counts = {
            Label.ADHD: int(header["bundle_counts"][str(Label.ADHD)]),
            Label.CONTROL: int(header["bundle_counts"][str(Label.CONTROL)]),
        }
        descriptors = header["arrays"]
        train_ids = tuple(str(i) for i in header.get("train_ids", []))
        test_ids = tuple(str(i) for i in header.get("test_ids", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed header field ({exc})") from exc
    if fmt != 1:
        raise ModelFormatError(f"{path}: unsupported snapshot format {fmt!r}")
    if tuple(s.channel for s in stats) != channels:
        raise ModelFormatError(f"{path}: channel stats do not match channels {channels}")
    arrays = {}
    offset = 0
    for desc in descriptors:
        name, dtype, shape = desc["name"], desc["dtype"], tuple(desc["shape"])
        if dtype not in _ARRAY_DTYPES:
            raise ModelFormatError(f"{path}: unknown dtype {dtype!r} for {name}")
        np_dtype = np.dtype(_ARRAY_DTYPES[dtype])
        nbytes = int(np.prod(shape)) * np_dtype.itemsize
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ModelFormatError(f"{path}: truncated array {name}")
        arrays[name] = np.frombuffer(chunk, dtype=np_dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise ModelFormatError(f"{path}: {len(payload) - offset} trailing bytes")
    for required in ("item_memory", "level_memory", "prototype_adhd", "prototype_control"):
        if required not in arrays:
            raise ModelFormatError(f"{path}: array {required} missing")
    if arrays["item_memory"].shape != (len(channels), params.dimension):
        raise ModelFormatError(f"{path}: item memory shape mismatch")
    if arrays["level_memory"].shape != (params.level_count, params.dimension):
        raise ModelFormatError(f"{path}: level memory shape mismatch")
    for name in ("item_memory", "level_memory"):
        # Row by row, so the check holds no temporaries of a whole matrix.
        if not all(hv.is_bipolar(row) for row in arrays[name]):
            raise ModelFormatError(f"{path}: {name} is not bipolar")
    for name in ("prototype_adhd", "prototype_control"):
        if arrays[name].shape != (params.dimension,):
            raise ModelFormatError(f"{path}: {name} shape mismatch")
    try:
        am = AssociativeMemory.from_state(
            arrays["prototype_adhd"],
            arrays["prototype_control"],
            counts,
            params.gate_threshold,
        )
        im = ItemMemory(channels, arrays["item_memory"])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return TrainedModel(
        params=params,
        item_memory=im,
        level_memory=ContinuousItemMemory(arrays["level_memory"]),
        memory=am,
        channel_stats=stats,
        train_ids=train_ids,
        test_ids=test_ids,
    )
