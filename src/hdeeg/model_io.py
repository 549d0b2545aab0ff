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
the same model twice yields identical bytes, and a file loads only if
its header line is exactly the one ``save_model`` writes for the model
it describes.
"""

import json
import math
from pathlib import Path

import numpy as np

from .classifier import PipelineParams, TrainedModel
from .memories import AssociativeMemory, ContinuousItemMemory, ItemMemory
from .preprocess import ChannelStats
from .common import Label

__all__ = ["ModelFormatError", "snapshot_header", "save_model", "load_model"]

MAGIC = b"hdeeg-model-v1\n"

_ARRAY_DTYPES = {"int8": "<i1", "int64": "<i8"}


class ModelFormatError(ValueError):
    """Model file is not in the expected snapshot format."""


def _layout(params: PipelineParams, channel_count: int) -> list:
    """The ``arrays`` descriptors in file order; sizes go through ``to_dict``,
    so they are the header's integers and a non-integral one fails here."""
    p = params.to_dict()
    d = p["dimension"]
    return [
        {"name": "item_memory", "dtype": "int8", "shape": [channel_count, d]},
        {"name": "level_memory", "dtype": "int8", "shape": [p["level_count"], d]},
        {"name": "prototype_adhd", "dtype": "int64", "shape": [d]},
        {"name": "prototype_control", "dtype": "int64", "shape": [d]},
    ]


def snapshot_header(model: TrainedModel) -> dict:
    """The header ``save_model`` writes for ``model``."""
    return {
        "format": 1,
        "params": model.params.to_dict(),
        "channels": list(model.channels),
        "channel_stats": [s.to_dict() for s in model.channel_stats],
        "bundle_counts": {str(label): model.memory.bundle_count(label) for label in Label},
        "train_ids": list(model.train_ids),
        "test_ids": list(model.test_ids),
        "arrays": _layout(model.params, len(model.channels)),
    }


def _header_line(model: TrainedModel) -> bytes:
    return json.dumps(snapshot_header(model), sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model: TrainedModel, path) -> None:
    """Write the snapshot; byte-identical for identical models."""
    arrays = (
        model.item_memory.vectors,
        model.level_memory.vectors,
        model.memory.prototype(Label.ADHD),
        model.memory.prototype(Label.CONTROL),
    )
    blob = bytearray(MAGIC) + _header_line(model) + b"\n"
    for desc, arr in zip(_layout(model.params, len(model.channels)), arrays):
        blob += np.ascontiguousarray(arr, dtype=_ARRAY_DTYPES[desc["dtype"]]).tobytes()
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> TrainedModel:
    """Reload a snapshot bit-exactly; raises ModelFormatError when malformed."""
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise ModelFormatError(f"{path}: not a model snapshot (bad magic)")
    line, newline, payload = data[len(MAGIC):].partition(b"\n")
    if not newline:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: unreadable header ({exc})") from exc
    try:
        fmt = header["format"]
        params = PipelineParams.from_dict(header["params"])
        params.validate()
        channels = tuple(str(c) for c in header["channels"])
        stats = tuple(ChannelStats.from_dict(s) for s in header["channel_stats"])
        counts = {label: int(header["bundle_counts"][str(label)]) for label in Label}
        train_ids = tuple(str(i) for i in header["train_ids"])
        test_ids = tuple(str(i) for i in header["test_ids"])
        descriptors = list(header["arrays"])
        layout = _layout(params, len(channels))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed header field ({exc})") from exc
    if fmt != 1:
        raise ModelFormatError(f"{path}: unsupported snapshot format {fmt!r}")
    arrays, offset = [], 0
    for i, desc in enumerate(layout):
        name, shape = desc["name"], desc["shape"]
        if descriptors[i : i + 1] != [desc]:
            raise ModelFormatError(
                f"{path}: {name} shape and dtype must be {shape} {desc['dtype']}, "
                f"header has {descriptors[i : i + 1]}"
            )
        dtype = np.dtype(_ARRAY_DTYPES[desc["dtype"]])
        count = math.prod(shape)
        if len(payload) - offset < count * dtype.itemsize:
            raise ModelFormatError(f"{path}: truncated array {name}")
        arrays.append(np.frombuffer(payload, dtype, count, offset).reshape(shape))
        offset += count * dtype.itemsize
    if offset != len(payload):
        raise ModelFormatError(f"{path}: {len(payload) - offset} trailing bytes")
    item, level, proto_adhd, proto_control = arrays
    try:
        # The memories reject components other than +1 and -1.
        im = ItemMemory(channels, item)
        cim = ContinuousItemMemory(level)
        am = AssociativeMemory.from_state(proto_adhd, proto_control, counts, params.gate_threshold)
        # Each class must be able to score a window, or eval fails at the first.
        for label in Label:
            if not (counts[label] and am.prototype(label).any()):
                raise ValueError(
                    f"class {label} cannot score: bundle count {counts[label]}, "
                    f"{'nonzero' if am.prototype(label).any() else 'all-zero'} prototype"
                )
        # The model rejects channel stats for other channels and repeated
        # or overlapping split ids.
        model = TrainedModel(
            params=params,
            item_memory=im,
            level_memory=cim,
            memory=am,
            channel_stats=stats,
            train_ids=train_ids,
            test_ids=test_ids,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if _header_line(model) != line:
        raise ModelFormatError(f"{path}: header is not the one save_model writes for this model")
    return model
