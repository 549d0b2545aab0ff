"""Benchmark of the hdeeg command line on a paper-scale synthetic dataset.

    python3 bench/run.py --workload {trial,sweep,ingest} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs nothing built.  The seed makes
the dataset: ``generate_synthetic`` with 42 patients per class, trimmed to
37 ADHD and 42 control patients so the command line's default split
(27/32 train, 10/10 test) fits.  The program under test sees only that
dataset on disk.  Each command runs as one child process at a time
(``python -m hdeeg.cli ...`` with ``--threads`` left at 1), a closed loop
with one client.

Workloads (why each was chosen is in BENCHMARK.json and bench/README.md):

    trial   hdeeg train, hdeeg eval, then label every held-out patient
            in-process (preprocess_recording + classify_patient)
    sweep   hdeeg sweep --test-size 20 --max-train 59 --runs 2
    ingest  hdeeg gen-synth --patients 42, then hdeeg preprocess

With ``--trace 0`` the run sets the dataset up three times and reports the
median set-up time, then repeats the workload's pass until ``--seconds``
are used (at least three passes) and reports the mean pass time.  With ``--trace 1`` it makes one untraced and one traced
pass and reports per-layer metrics from the traced one (see tracer.py);
their difference in wall time is the tracing overhead.

Every operation is checked: a command must exit 0, and its outputs must
hash to the digests recorded in bench/reference.json for the seed (for a
seed not recorded there, every pass must give the first pass's digests and
held-out accuracy must be 100%).  A held-out patient labelled in-process
must get the label and window votes the eval report gives it.  A check
that fails makes the operation a failed one.

The last line of standard output is the JSON result; a fuller record,
including the machine, goes to
.bench_work/result-<workload>-seed<N>-trace<T>-paper.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"

# A command that runs longer than this is killed and counts as failed, so a
# run ends well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 120.0
# For a seed with no recorded reference: the synthetic classes separate
# perfectly at both scales.
UNRECORDED = {"accuracy_pct": 100.0, "sweep_acc_pct": 100.0}


@dataclass(frozen=True)
class Scale:
    """Dataset and command sizes.  PAPER is what the benchmark measures."""

    name: str
    patients_per_class: int  # generated per class
    adhd_dropped: int  # trimmed from the generated set so the split fits
    samples: int  # per recording, at 256 Hz
    dimension: int
    split_flags: tuple  # split counts for `hdeeg train`; () keeps its defaults
    sweep_flags: tuple
    setups: int  # dataset set-ups timed per run
    min_passes: int  # passes per run however long they take
    label_passes: int  # passes over the held-out patients per trial pass

    @property
    def pipeline_flags(self):
        return ("--dimension", str(self.dimension))


PAPER = Scale(
    name="paper",
    patients_per_class=42,
    adhd_dropped=5,
    samples=7680,
    dimension=10000,
    split_flags=(),
    sweep_flags=("--test-size", "20", "--max-train", "59", "--runs", "2"),
    setups=3,
    min_passes=3,
    label_passes=2,
)

# For the harness's smoke test: the same steps on a dataset a few seconds long.
TINY = Scale(
    name="tiny",
    patients_per_class=4,
    adhd_dropped=1,
    samples=1792,
    dimension=1000,
    split_flags=("--train-adhd", "1", "--train-control", "2", "--test-adhd", "2", "--test-control", "2"),
    sweep_flags=("--test-size", "2", "--max-train", "4", "--runs", "2"),
    setups=2,
    min_passes=2,
    label_passes=1,
)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digest(root):
    """sha256 over the relative paths and contents of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(root).as_posix()}\0{sha256_file(path)}\n".encode())
    return digest.hexdigest()


def remove_path(path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class Run:
    """Timings, operation outcomes and traces of one benchmark run."""

    def __init__(self, workload, seed, scale, expected):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.expected = dict(expected)
        self.observed = {}
        self.work = WORK / f"{workload}-seed{seed}-{scale.name}"
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.peak_rss_kib = 0
        self.traces = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("HDEEG_")}
        self.env["PYTHONPATH"] = str(SRC)

    def time(self, step, seconds):
        self.samples.setdefault(step, []).append(seconds)

    def outcome(self, step, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{step}: {p}" for p in problems)

    def expect(self, key, value):
        """Compare an output against the reference, or against the first pass."""
        self.observed[key] = value
        want = self.expected.setdefault(key, value)
        return [] if value == want else [f"{key} is {value!r}, expected {want!r}"]

    def cli(self, step, args, check, traced=False):
        """Run one hdeeg command as a child process; returns its wall time."""
        log = self.work / f"{step}.log"
        spans = self.work / f"{step}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *map(str, args)]
        else:
            cmd = [sys.executable, "-m", "hdeeg.cli", *map(str, args)]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            problems = [f"exit code {proc.returncode}: {' '.join(tail)}"]
        else:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable ({exc})"]
        self.time(step, wall)
        self.outcome(step, problems)
        if traced and spans.exists():
            self.traces.append({"step": step, "traced_s": wall, "doc": json.loads(spans.read_text())})
            spans.unlink()
        return wall


def make_dataset(scale, seed):
    """The benchmark dataset: generated, then the last ADHD patients dropped."""
    from hdeeg.common import Label
    from hdeeg.dataio import SyntheticSpec, generate_synthetic

    manifest, recordings = generate_synthetic(
        SyntheticSpec(patients_per_class=scale.patients_per_class, samples=scale.samples, seed=seed)
    )
    adhd = manifest.ids_for(Label.ADHD)
    dropped = set(adhd[len(adhd) - scale.adhd_dropped:])
    manifest = replace(manifest, patients=tuple(p for p in manifest.patients if p.id not in dropped))
    return manifest, [rec for rec in recordings if rec.patient_id not in dropped]


def setup(run, times):
    """Generate and write the dataset ``times`` times; returns recordings by id."""
    from hdeeg.dataio import write_dataset

    dataset = run.work / "dataset"
    for _ in range(times):
        remove_path(dataset)
        start = time.perf_counter()
        manifest, recordings = make_dataset(run.scale, run.seed)
        write_dataset(dataset, manifest, recordings)
        run.time("setup", time.perf_counter() - start)
    return manifest, {rec.patient_id: rec for rec in recordings}


def trial_pass(run, data, traced):
    scale, work = run.scale, run.work
    model, report = work / "model.bin", work / "report.json"
    walls = {}
    remove_path(model)
    walls["train"] = run.cli(
        "train",
        ["train", "--manifest", work / "dataset", "--out", model, *scale.pipeline_flags, *scale.split_flags],
        lambda: run.expect("model", sha256_file(model)),
        traced,
    )
    remove_path(report)

    def check_report():
        doc = json.loads(report.read_text())
        return run.expect("report", sha256_file(report)) + run.expect(
            "accuracy_pct", doc["report"]["accuracy_pct"]
        )

    walls["eval"] = run.cli(
        "eval", ["eval", "--manifest", work / "dataset", "--model", model, "--report", report], check_report, traced
    )
    walls["label"] = label_patients(run, data[1], model, report, traced)
    return walls


def label_patients(run, recordings, model_path, report_path, traced):
    """Label each held-out patient from its raw recording, in this process.

    Looks the functions up on their modules at call time, so the traced
    pass goes through the wrappers tracer.install puts there.
    """
    import hdeeg.classifier
    import hdeeg.model_io
    import hdeeg.preprocess

    try:
        model = hdeeg.model_io.load_model(model_path)
        expected = {p["id"]: p for p in json.loads(report_path.read_text())["report"]["patients"]}
    except (OSError, ValueError, KeyError) as exc:
        run.outcome("label_patient", [f"no model or report to label with ({exc})"])
        return 0.0
    params = model.params
    results = []
    start = time.perf_counter()
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for _ in range(run.scale.label_passes):
        for pid in model.test_ids:
            began = time.perf_counter()
            quantized = hdeeg.preprocess.preprocess_recording(
                recordings[pid],
                model.channel_stats,
                drop_samples=params.drop_samples,
                downsample_factor=params.downsample_factor,
                level_count=params.level_count,
            )
            prediction = hdeeg.classifier.classify_patient(model, quantized)
            results.append((pid, time.perf_counter() - began, prediction))
    wall = time.perf_counter() - start
    for pid, seconds, prediction in results:
        want = expected.get(pid, {})
        got = {
            "predicted_label": str(prediction.predicted_label),
            "correct_windows": prediction.correct_windows,
            "total_windows": prediction.total_windows,
        }
        problems = [f"{pid} labelled {got}, eval report says {want}"] if any(
            want.get(k) != v for k, v in got.items()
        ) else []
        run.time("label_patient", seconds)
        run.outcome("label_patient", problems)
    run.time("label", wall)
    if traced:
        run.traces.append({"step": "label", "traced_s": wall, "doc": tracer.doc()})
    return wall


def sweep_pass(run, data, traced):
    out = run.work / "sweep.csv"
    remove_path(out)

    def check():
        last = out.read_text().strip().splitlines()[-1].split(",")
        return run.expect("sweep", sha256_file(out)) + run.expect("sweep_acc_pct", float(last[1]))

    wall = run.cli(
        "sweep",
        ["sweep", "--manifest", run.work / "dataset", "--out", out, *run.scale.pipeline_flags, *run.scale.sweep_flags],
        check,
        traced,
    )
    return {"sweep": wall}


def ingest_pass(run, data, traced):
    scale, work = run.scale, run.work
    generated, conditioned = work / "generated", work / "preprocessed"
    walls = {}
    remove_path(generated)
    walls["gen_synth"] = run.cli(
        "gen_synth",
        [
            "gen-synth", "--out", generated, "--patients", scale.patients_per_class,
            "--samples", scale.samples, "--seed", run.seed,
        ],
        lambda: run.expect("gen_synth", tree_digest(generated)),
        traced,
    )
    remove_path(conditioned)
    walls["preprocess"] = run.cli(
        "preprocess",
        ["preprocess", "--manifest", work / "dataset", "--out", conditioned, *scale.pipeline_flags],
        lambda: run.expect("preprocess", tree_digest(conditioned)),
        traced,
    )
    return walls


PASSES = {"trial": trial_pass, "sweep": sweep_pass, "ingest": ingest_pass}


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    """The end-to-end metrics, and the per-step figures behind them."""
    s = run.samples
    label_ms = [1e3 * v for v in s.get("label_patient", [])]
    p90 = statistics.quantiles(label_ms, n=10, method="inclusive")[8] if len(label_ms) > 1 else _median(label_ms)
    accuracy = run.observed.get("sweep_acc_pct" if run.workload == "sweep" else "accuracy_pct")
    metrics = {
        "setup_s": _median(s["setup"]),
        # Mean, not median: total pass time over passes, the workload's
        # throughput inverted.  Across runs it spreads less than the median
        # of three or four passes does, because the host's speed drifts
        # between runs rather than jumping within one.
        "pass_s": statistics.fmean(s["pass"]),
        "peak_rss_mb": run.peak_rss_kib / 1024.0,
    }
    steps = {
        "train_s": ("s", s.get("train")),
        "eval_s": ("s", s.get("eval")),
        "label_patient_ms.p50": ("ms", label_ms),
        "label_patient_ms.p90": ("ms", label_ms),
        "sweep_s": ("s", s.get("sweep")),
        "gen_synth_s": ("s", s.get("gen_synth")),
        "preprocess_s": ("s", s.get("preprocess")),
    }
    details = {}
    for name, (unit, values) in steps.items():
        if values:
            value = p90 if name.endswith(".p90") else _median(values)
            details[name] = {"value": value, "unit": unit, "n": len(values)}
    if accuracy is not None:
        details["accuracy_pct"] = {"value": accuracy, "unit": "%", "n": 1}
    details["error_rate"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio", "n": run.attempted}
    return metrics, details


def machine():
    """What the numbers were measured on."""
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def dataset_shape(run, manifest):
    from hdeeg.classifier import PipelineParams

    params = PipelineParams(dimension=run.scale.dimension)
    windows = (run.scale.samples - params.drop_samples) // params.downsample_factor // params.ngram_size
    return params.to_dict(), {
        "patients": len(manifest.patients),
        "adhd": sum(1 for p in manifest.patients if str(p.label) == "ADHD"),
        "control": sum(1 for p in manifest.patients if str(p.label) == "CONTROL"),
        "samples": run.scale.samples,
        "channels": list(manifest.channels),
        "sample_rate_hz": manifest.sample_rate_hz,
        "windows_per_patient": windows,
        "windows": windows * len(manifest.patients),
    }


def prepare(run, setups):
    """A fresh work directory holding the dataset; returns (manifest, recordings by id)."""
    remove_path(run.work)
    run.work.mkdir(parents=True)
    data = setup(run, setups)
    # Compile and cache the package once, so no timed command pays for it.
    subprocess.run([sys.executable, "-c", "import hdeeg.cli"], env=run.env, cwd=run.work, check=True)
    return data


def execute(run, seconds, trace):
    """Set up, measure and check; returns (metrics, result-file record)."""
    data = prepare(run, 1 if trace else run.scale.setups)
    manifest = data[0]
    one_pass = PASSES[run.workload]
    record = {}
    if trace:
        untraced = one_pass(run, data, traced=False)
        one_pass(run, data, traced=True)
        for step in run.traces:
            step["untraced_s"] = untraced[step["step"]]
        metrics, record["breakdown"] = tracing.summarize(run.traces)
    else:
        start = time.perf_counter()
        while True:
            run.time("pass", sum(one_pass(run, data, traced=False).values()))
            passes = run.samples["pass"]
            if len(passes) >= run.scale.min_passes and (
                time.perf_counter() - start + _median(passes) > seconds
            ):
                break
        metrics, details = end_to_end(run)
        record["details"] = details
    record.update(
        {
            "workload": run.workload,
            "seed": run.seed,
            "seconds": seconds,
            "trace": int(trace),
            "scale": run.scale.name,
            "machine": machine(),
            "samples": run.samples,
            "problems": run.problems,
        }
    )
    record["params"], record["dataset"] = dataset_shape(run, manifest)
    return metrics, record


def result_line(run, metrics, spec_metrics):
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }


def report(run, metrics, record, spec, trace):
    """Human-readable lines, the result file, then the JSON result line."""
    spec_metrics = spec["per_layer"] if trace else spec["end_to_end"]
    for name, d in record.get("details", {}).items():
        print(f"{run.workload} {name}: {d['value']:.6g} {d['unit']} (n={d['n']})")
    for step in record.get("breakdown", []):
        parts = " + ".join(f"{k} {v:.3f}" for k, v in step["self_s"].items())
        print(
            f"{run.workload} trace {step['step']}: untraced {step['untraced_s']:.3f} s, traced "
            f"{step['traced_s']:.3f} s = {parts} + unspanned {step['unspanned_s']:.3f}; "
            f"overhead {step['overhead_s']:.3f} s"
        )
    for problem in run.problems:
        print(f"{run.workload} FAILED {problem}")
    line = result_line(run, metrics, spec_metrics)
    record["result"] = line
    out = WORK / f"result-{run.workload}-seed{run.seed}-trace{int(trace)}-{run.scale.name}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line))


def load_reference(scale, seed):
    if not REFERENCE.is_file():
        return dict(UNRECORDED)
    return json.loads(REFERENCE.read_text()).get(scale.name, {}).get(str(seed), dict(UNRECORDED))


def main(argv=None, scale=PAPER):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdeeg" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout of hdeeg; {SRC / 'hdeeg'} or {SPEC} is missing", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    run = Run(args.workload, args.seed, scale, load_reference(scale, args.seed))
    metrics, record = execute(run, args.seconds, bool(args.trace))
    report(run, metrics, record, spec, bool(args.trace))
    remove_path(run.work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
