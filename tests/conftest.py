import json
import os
from pathlib import Path

import numpy as np
import pytest

from hdeeg import Label, PipelineParams, SyntheticSpec, generate_synthetic
from hdeeg.model_io import MAGIC, _ARRAY_DTYPES


@pytest.fixture(scope="session", autouse=True)
def _without_caller_env():
    """Run the whole session without the shell's HDEEG_* variables.

    They would preset CLI flags and so change pinned outputs.  Session
    scope clears them before any module fixture runs a command;
    HDEEG_CLINICAL_MANIFEST, which names data rather than a flag, stays.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name in list(os.environ):
            if name.startswith("HDEEG_") and name != "HDEEG_CLINICAL_MANIFEST":
                mp.delenv(name)
        yield


@pytest.fixture(scope="session")
def small_params():
    """Shrunk pipeline for fast integration tests: 1792 raw samples become
    192 quantized samples, six 32-sample windows per channel."""
    return PipelineParams(
        dimension=2000,
        level_count=50,
        ngram_size=32,
        drop_samples=256,
        downsample_factor=8,
        seed=9,
    )


@pytest.fixture(scope="session")
def small_spec():
    return SyntheticSpec(patients_per_class=4, samples=1792, seed=21)


@pytest.fixture(scope="session")
def small_dataset(small_spec):
    return generate_synthetic(small_spec)


@pytest.fixture(scope="session")
def small_counts():
    train = {Label.ADHD: 2, Label.CONTROL: 2}
    test = {Label.ADHD: 2, Label.CONTROL: 2}
    return train, test


@pytest.fixture(scope="session")
def rewrite_snapshot():
    """``rewrite(src, dst, edit)``: copy a model snapshot through ``edit``.

    ``edit(header, arrays)`` may change the header dict and the dict of
    named arrays in place; array shapes in the header follow the arrays.
    """

    def rewrite(src, dst, edit):
        data = Path(src).read_bytes()
        newline = data.index(b"\n", len(MAGIC))
        header = json.loads(data[len(MAGIC):newline])
        arrays, offset = {}, newline + 1
        for desc in header["arrays"]:
            dtype = np.dtype(_ARRAY_DTYPES[desc["dtype"]])
            nbytes = int(np.prod(desc["shape"])) * dtype.itemsize
            chunk = data[offset : offset + nbytes]
            arrays[desc["name"]] = np.frombuffer(chunk, dtype).reshape(desc["shape"]).copy()
            offset += nbytes
        edit(header, arrays)
        for desc in header["arrays"]:
            desc["shape"] = list(arrays[desc["name"]].shape)
        blob = MAGIC + json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        Path(dst).write_bytes(blob + b"".join(arrays[d["name"]].tobytes() for d in header["arrays"]))

    return rewrite
