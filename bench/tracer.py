"""Layer spans for the hdeeg benchmark, recorded from outside the package.

:func:`install` replaces every public function (and every public method of
the public classes) of the traced layers with a wrapper that records a
span, at each place callers look the name up: the defining module, and
every ``hdeeg`` module that imported the name with ``from ... import``.
Classes are patched in place.  Nothing under ``src/`` knows about it.

A span is ``[name, layer, parent, start, end]``; ``parent`` is the index of
the enclosing span or -1, and the times come from ``time.perf_counter``,
which on Linux is CLOCK_MONOTONIC and so comparable across processes.
Spans stay in memory until :meth:`Tracer.dump` writes them once.

A span's self time is its duration minus the durations of its direct
children; the package runs single-threaded here (``--threads 1``), so
children never overlap.  :func:`summarize` turns traces into the per-layer
metrics that ``bench/run.py`` prints.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "hdeeg"
LAYERS = ("dataio", "preprocess", "encoder", "hv", "memories", "classifier", "model_io", "cli")
# Bookkeeping of the tracer itself inside a traced process.
TRACE_LAYER = "trace"

# Classifier self time is charged to the nearest of these enclosing spans,
# so the private sweep loop (_lenient_accuracy) lands in "sweep".
CLASSIFIER_GROUPS = {
    "classifier.train": "train",
    "classifier.evaluate": "evaluate",
    "classifier.incremental_sweep": "sweep",
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.originals = {}
        self._open = []

    def wrap(self, layer, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, open_[-1] if open_ else -1, clock(), 0.0]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                open_.pop()

        self.originals[name] = fn
        return traced

    @contextlib.contextmanager
    def span(self, layer, name):
        """One span around a block that is not a call."""
        record = [name, layer, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def doc(self):
        return {"spans": self.spans, "counters": self.counters}

    def dump(self, path):
        Path(path).write_text(json.dumps(self.doc(), separators=(",", ":")))


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is not None:
        return list(names)
    return [
        n for n, v in vars(module).items()
        if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__
    ]


def install(tracer):
    """Wrap the public API of every traced layer of the imported package."""
    with tracer.span(TRACE_LAYER, "trace.install"):
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    wrapped = _wrap(tracer, layer, f"{layer}.{name}", obj)
                    replaced[id(obj)] = wrapped
                    setattr(module, name, wrapped)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    _wrap_methods(tracer, layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(module, name, replaced[id(value)])


def _wrap_methods(tracer, layer, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(_wrap(tracer, layer, name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(tracer, layer, name, raw))


def _wrap(tracer, layer, name, fn):
    traced = tracer.wrap(layer, name, fn)
    if name not in _COUNTERS:
        return traced
    before, after = _COUNTERS[name]
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        with tracer.span(TRACE_LAYER, "trace.count"):
            bound = signature.bind(*args, **kwargs).arguments
            state = before(tracer, bound) if before else None
        result = traced(*args, **kwargs)
        with tracer.span(TRACE_LAYER, "trace.count"):
            after(tracer, bound, result, state)
        return result

    return counted


# Counters, taken at the layer boundary from arguments and results.


def _count_window(tracer, args, vector, _):
    """Windows, element operations and bytes written per encoded window.

    For C channels of n samples in dimension D with s-byte level vectors,
    the encoding multiplies (n - 1) * D elements per channel for the
    temporal binding and D for the channel binding, and adds C * D in the
    bundle: C * D * (n + 1) operations.  It writes, per channel, the n
    gathered level rows, n - 1 rotated copies, n - 1 products and one bound
    vector, then the stacked channel vectors and the bundled result.
    """
    windows = list(args["windows"])
    channels, n = len(windows), len(windows[0].levels)
    cim = args["cim"]
    row_bytes = cim.dimension * cim.vectors.itemsize
    tracer.count("encoder.windows")
    tracer.count("encoder.ops", channels * cim.dimension * (n + 1))
    tracer.count("encoder.bytes_computed", channels * (3 * n + 1) * row_bytes + vector.nbytes)


def _bundled(tracer, args):
    bundle_count = tracer.originals["memories.AssociativeMemory.bundle_count"]
    labels = importlib.import_module(f"{PACKAGE}.common").Label
    return sum(bundle_count(args["self"], label) for label in labels)


def _count_update(tracer, args, _, before):
    """Windows offered to the prototype gate and windows it admitted."""
    tracer.count("memories.updates_offered")
    tracer.count("memories.updates_admitted", _bundled(tracer, args) - before)


def _count_load(tracer, args, result, _):
    """Data rows parsed and bytes read by ``load_dataset``."""
    manifest, recordings = result
    path = Path(args["path"])
    root, manifest_file = (path, path / "manifest.json") if path.is_dir() else (path.parent, path)
    tracer.count("dataio.csv_rows", sum(rec.samples.shape[0] for rec in recordings))
    tracer.count(
        "dataio.csv_bytes_read",
        manifest_file.stat().st_size + sum((root / p.path).stat().st_size for p in manifest.patients),
    )


def _count_write(tracer, args, _, __):
    """Bytes written by ``write_dataset``."""
    root = Path(args["root"])
    files = [root / "manifest.json", *(root / p.path for p in args["manifest"].patients)]
    tracer.count("dataio.csv_bytes_written", sum(f.stat().st_size for f in files))


def _count_save(tracer, args, _, __):
    """Bytes of the snapshot ``save_model`` wrote."""
    tracer.count("model_io.snapshot_bytes", Path(args["path"]).stat().st_size)


# name -> (before, after); ``before`` may be None.
_COUNTERS = {
    "encoder.encode_window": (None, _count_window),
    "memories.AssociativeMemory.update": (_bundled, _count_update),
    "dataio.load_dataset": (None, _count_load),
    "dataio.write_dataset": (None, _count_write),
    "model_io.save_model": (None, _count_save),
}


def _spans_with_self(spans):
    """(name, layer, duration, self time, classifier group) per span."""
    durations = [end - start for _, _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for (_, _, parent, _, _), duration in zip(spans, durations):
        if parent >= 0:
            covered[parent] += duration
    out = []
    for i, (name, layer, _, _, _) in enumerate(spans):
        group = None
        if layer == "classifier":
            j = i
            while j >= 0 and group is None:
                group = CLASSIFIER_GROUPS.get(spans[j][0])
                j = spans[j][2]
        out.append((name, layer, durations[i], durations[i] - covered[i], group))
    return out


def summarize(steps):
    """Per-layer metrics and a per-step breakdown from traced steps.

    Each step is a dict with ``step``, ``untraced_s`` (wall time of the same
    step untraced), ``traced_s`` (its wall time traced) and ``doc`` (the
    tracer's spans and counters).  Everything of a step's traced wall time
    falls either in some span's self time or in ``unspanned_s``: process
    start-up and exit, and writing the spans out.
    """
    total, calls, layer_self, group_self, counters = {}, {}, {}, {}, {}
    breakdown = []
    unspanned = untraced = traced = covered = 0.0
    for step in steps:
        spans = step["doc"]["spans"]
        step_self = {}
        for name, layer, duration, self_s, group in _spans_with_self(spans):
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            key = "cli.import" if name == "cli.import" else layer
            step_self[key] = step_self.get(key, 0.0) + self_s
            if group:
                group_self[group] = group_self.get(group, 0.0) + self_s
        for key, value in step_self.items():
            layer_self[key] = layer_self.get(key, 0.0) + value
        for key, value in step["doc"]["counters"].items():
            counters[key] = counters.get(key, 0) + value
        roots = sum(end - start for _, _, parent, start, end in spans if parent < 0)
        step_unspanned = step["traced_s"] - roots
        unspanned += step_unspanned
        untraced += step["untraced_s"]
        traced += step["traced_s"]
        covered += roots
        breakdown.append({
            "step": step["step"],
            "untraced_s": step["untraced_s"],
            "traced_s": step["traced_s"],
            "overhead_s": step["traced_s"] - step["untraced_s"],
            "unspanned_s": step_unspanned,
            "self_s": dict(sorted(step_self.items(), key=lambda kv: -kv[1])),
        })

    def mean(name, scale):
        return scale * total[name] / calls[name] if calls.get(name) else 0.0

    def whole(name, scale=1.0):
        return scale * total.get(name, 0.0)

    load_s = whole("dataio.load_dataset")
    offered = counters.get("memories.updates_offered", 0)
    admitted = counters.get("memories.updates_admitted", 0)
    metrics = {
        "encoder.window_us": mean("encoder.encode_window", 1e6),
        "encoder.temporal_us": mean("encoder.encode_temporal", 1e6),
        "encoder.windows": counters.get("encoder.windows", 0),
        "encoder.ops": counters.get("encoder.ops", 0),
        "encoder.bytes_computed": counters.get("encoder.bytes_computed", 0),
        "hv.bind_us": mean("hv.bind", 1e6),
        "hv.bundle_us": mean("hv.bundle", 1e6),
        "hv.bind_calls": calls.get("hv.bind", 0),
        "hv.cosine_us": mean("hv.cosine_similarity", 1e6),
        "hv.cosine_calls": calls.get("hv.cosine_similarity", 0),
        "memories.query_us": mean("memories.AssociativeMemory.query", 1e6),
        "memories.queries": calls.get("memories.AssociativeMemory.query", 0),
        "memories.update_us": mean("memories.AssociativeMemory.update", 1e6),
        "memories.updates_offered": offered,
        "memories.updates_admitted": admitted,
        "memories.admit_ratio": admitted / offered if offered else 0.0,
        "memories.build_ms": whole("memories.ItemMemory.build", 1e3)
        + whole("memories.ContinuousItemMemory.build", 1e3),
        "dataio.load_dataset_s": load_s,
        "dataio.csv_rows_per_s": counters.get("dataio.csv_rows", 0) / load_s if load_s else 0.0,
        "dataio.csv_bytes_read": counters.get("dataio.csv_bytes_read", 0),
        "dataio.write_dataset_s": whole("dataio.write_dataset"),
        "dataio.csv_bytes_written": counters.get("dataio.csv_bytes_written", 0),
        "preprocess.channel_stats_ms": whole("preprocess.compute_channel_stats", 1e3),
        "preprocess.recording_ms": mean("preprocess.preprocess_recording", 1e3),
        "preprocess.recordings": calls.get("preprocess.preprocess_recording", 0),
        "classifier.train_self_s": group_self.get("train", 0.0),
        "classifier.evaluate_self_s": group_self.get("evaluate", 0.0),
        "classifier.sweep_self_s": group_self.get("sweep", 0.0),
        "model_io.save_ms": whole("model_io.save_model", 1e3),
        "model_io.load_ms": whole("model_io.load_model", 1e3),
        "model_io.snapshot_bytes": counters.get("model_io.snapshot_bytes", 0),
        "cli.import_s": whole("cli.import"),
        "process.unspanned_s": unspanned,
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.coverage": covered / traced if traced else 0.0,
    }
    for layer in (*LAYERS, TRACE_LAYER):
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics, breakdown
