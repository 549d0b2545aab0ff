"""The timing scripts under scripts/ run, and print the keys BENCH files quote."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hdeeg
from hdeeg import dataio

SRC = Path(hdeeg.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"
QUARTILES = {"median_ms", "q1_ms", "q3_ms"}
# Seed 1's admitted windows and prototype digest per gate: the gate's bytes.
GATED = {
    "gate 0.5": ({"ADHD": 12, "CONTROL": 11},
                 "5ddb22d8790d8c675cdfb4ff2a565b23579a056c7272c50de02cc722a3afa491"),
    "gate 2.0": ({"ADHD": 1036, "CONTROL": 1176},
                 "61aa43a23771606217b4b38f6dbc35ee30169436b28813ddd37eb8a714d6bc72"),
}


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env
    )


def test_gate_timing_prints_admitted_counts_and_digests():
    proc = run_script("gate_timing.py", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert (result["patients"], result["windows"], result["repeats"]) == (79, 2212, 2)
    for gate, (admitted, sha256) in GATED.items():
        assert QUARTILES <= set(result[gate])
        assert (result[gate]["admitted"], result[gate]["sha256"]) == (admitted, sha256)


def test_csv_block_timing_prints_quartiles_per_block():
    proc = run_script("csv_block_timing.py", "--repeats", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["default_block_values"] == dataio._CSV_BLOCK_VALUES
    for channels in ("2 channels", "19 channels"):
        blocks = result[channels]["blocks"]
        assert set(blocks) == {"1024 rows", "4096 values", "8192 values", "16384 values"}
        for block in blocks.values():
            assert QUARTILES <= set(block["write"]) and QUARTILES <= set(block["read"])


@pytest.mark.parametrize("name", ["gate_timing.py", "csv_block_timing.py"])
def test_scripts_refuse_one_repeat_before_any_work(name):
    proc = run_script(name, "--repeats", "1")
    assert proc.returncode == 2
    assert "quartiles need at least 2 repeats" in proc.stderr
    assert not proc.stdout
