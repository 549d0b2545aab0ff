"""Smoke test of the benchmark harness at a tiny scale.

    python -m pytest bench/tests -q

Runs every workload of bench/run.py, untraced and traced, on a dataset of
seven patients with D = 1,000, in a child process each (the traced run
patches the package in its own process).  Checks that every metric
BENCHMARK.json names is printed with its unit and that the output checks
pass, and that they fail when an output differs from the reference.  It
asserts no timings: those depend on the machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3  # recorded in bench/reference.json at the tiny scale


def run_tiny(workload, trace, reference=None):
    """bench/run.py at the tiny scale; returns (exit code, stdout lines)."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import run\n"
        + (f"run.REFERENCE = run.Path({str(reference)!r})\n" if reference else "")
        + f"sys.exit(run.main(['--workload', {workload!r}, '--seed', '{SEED}', "
        f"'--seconds', '1', '--trace', '{trace}'], scale=run.TINY))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_checks_pass(workload, trace):
    code, lines = run_tiny(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert any(f"{workload} trace " in line for line in lines)
    else:
        assert any(line.startswith(f"{workload} error_rate: 0 ") for line in lines)


def test_output_differing_from_reference_fails_the_operation(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["tiny"][str(SEED)]["preprocess"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, lines = run_tiny("ingest", 0, reference=path)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("FAILED preprocess" in line for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
