"""map_forked: the serial loop's results and errors at any CPU count, its
children's fate and output, and its call sites' bytes."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from hdeeg import common, dataio, incremental_sweep, load_dataset, write_dataset
from hdeeg.cli import EXIT_IO, EXIT_OK, main
from hdeeg.common import DataValidationError, map_forked

SMALL = ["--dimension", "2000", "--levels", "50", "--drop", "256", "--seed", "9"]
PARENT = os.getpid()


def use_cpus(monkeypatch, n):
    """Make map_forked see ``n`` usable CPUs; returns the pids it forks."""
    monkeypatch.setattr(common, "_usable_cpus", lambda: n)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_bytes(root):
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def in_child():
    return os.getpid() != PARENT


# ------------------------------------------------------------------ helper


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_map_forked_keeps_item_order_in_contiguous_chunks(monkeypatch, cpus, n):
    forked = use_cpus(monkeypatch, cpus)
    assert map_forked(lambda x: x * x, range(n)) == [x * x for x in range(n)]
    pids = map_forked(lambda x: os.getpid(), range(n))
    workers = min(cpus, n) if n >= 2 else 1
    assert len(forked) == 2 * (workers - 1)
    assert pids[: n // workers] == [PARENT] * (n // workers)
    assert sum(a != b for a, b in zip(pids, pids[1:])) == max(workers - 1, 0)
    assert set(pids) <= {PARENT, *forked}
    assert_no_children()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_map_forked_is_serial_where_the_os_cannot_fork_or_say(monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    assert common._usable_cpus() == 1
    assert map_forked(lambda x: os.getpid(), range(4)) == [PARENT] * 4


@pytest.mark.parametrize(
    "cpus, bad, message",
    [
        (2, {2, 4}, "bad 2"),  # chunks [0, 1, 2] and [3, 4, 5]
        (2, {4, 5}, "bad 4"),
        (3, {3, 5}, "bad 3"),  # chunks [0, 1], [2, 3] and [4, 5]
        (3, {1, 3}, "bad 1"),
    ],
)
def test_map_forked_raises_the_serial_loops_error(monkeypatch, cpus, bad, message):
    def fn(x):
        if x in bad:
            raise DataValidationError(f"bad {x}")
        return x

    use_cpus(monkeypatch, cpus)
    with pytest.raises(DataValidationError) as info:
        map_forked(fn, range(6))
    assert str(info.value) == message
    assert_no_children()


def test_a_killed_worker_raises_child_process_error(monkeypatch):
    def fn(x):
        if in_child():
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    use_cpus(monkeypatch, 3)
    with pytest.raises(ChildProcessError, match=r"worker process \d+ was killed by signal 9"):
        map_forked(fn, range(6))
    assert_no_children()


def test_an_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    def fn(x):
        if in_child():
            time.sleep(60)
        raise KeyboardInterrupt

    use_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_forked(fn, range(6))
    assert time.monotonic() - start < 30
    assert_no_children()


def test_map_forked_beside_a_live_thread_raises_no_fork_warning(monkeypatch):
    # CPython 3.12+ warns from os.fork() in a process with more threads
    # than one; map_forked ignores that warning and no other.
    use_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert map_forked(abs, [-1, -2, -3]) == [1, 2, 3]
    finally:
        stop.set()
        thread.join()


def test_workers_write_nothing_to_stdout(tmp_path):
    # Output still buffered when a worker forks is the parent's to write.
    script = (
        "from hdeeg import common\n"
        "from hdeeg.cli import main\n"
        "common._usable_cpus = lambda: 3\n"
        "print('before')\n"
        f"code = main(['gen-synth', '--out', {str(tmp_path)!r}, '--patients', '2',"
        " '--samples', '600'])\n"
        "print('after', code)\n"
    )
    # Block-buffered stdout, as a pipe gets by default.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(common.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout == f"before\nwrote 4 patients to {tmp_path}\nafter 0\n"
    assert proc.stderr == ""


# ------------------------------------------------------------- call sites


@pytest.fixture(scope="module")
def dataset_root(small_dataset, tmp_path_factory):
    """small_dataset, written serially."""
    root = tmp_path_factory.mktemp("forked-dataset")
    with pytest.MonkeyPatch.context() as mp:
        use_cpus(mp, 1)
        write_dataset(root, *small_dataset)
    return root


def recording_bytes(recordings):
    return [
        (r.patient_id, r.label, r.channels, r.sample_rate_hz, r.samples.tobytes())
        for r in recordings
    ]


@pytest.mark.parametrize("ids", [None, ["control-004", "adhd-001"], ["adhd-003"]])
def test_load_dataset_forked_matches_serial(monkeypatch, dataset_root, ids):
    loads = []
    for cpus in (1, 2, 3):
        forked = use_cpus(monkeypatch, cpus)
        manifest, recordings = load_dataset(dataset_root, ids=ids)
        loads.append((manifest, recording_bytes(recordings)))
        assert len(forked) == cpus - 1
    assert loads[1] == loads[0] and loads[2] == loads[0]
    assert len(loads[0][1]) == len(ids or loads[0][0].patients)


@pytest.mark.parametrize("cpus", [2, 3])
def test_write_dataset_forked_matches_serial(monkeypatch, small_dataset, dataset_root, tmp_path, cpus):
    forked = use_cpus(monkeypatch, cpus)
    write_dataset(tmp_path, *small_dataset)
    assert len(forked) == cpus - 1
    assert tree_bytes(tmp_path) == tree_bytes(dataset_root)


@pytest.mark.parametrize("runs", [1, 2, 3])
def test_sweep_forked_matches_serial(monkeypatch, small_dataset, small_params, runs):
    def sweep():
        return incremental_sweep(
            *small_dataset, test_size=2, max_train=4, runs=runs, params=replace(small_params, seed=5)
        )

    results = []
    for cpus in (1, 2, 3):
        forked = use_cpus(monkeypatch, cpus)
        results.append(sweep())
        assert len(forked) == min(cpus, runs) - 1
    assert results[1] == results[0] and results[2] == results[0]
    assert len(results[0].runs) == runs


def test_preprocess_forked_matches_serial(monkeypatch, dataset_root, tmp_path):
    trees = []
    for cpus in (1, 2, 3):
        forked = use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["preprocess", "--manifest", str(dataset_root), "--out", str(out), *SMALL]) == EXIT_OK
        assert len(forked) == 2 * (cpus - 1)  # for the load, then the writes
        trees.append(tree_bytes(out))
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert len(trees[0]) == 2 * 8 + 1


@pytest.mark.parametrize("bad", [("adhd-002", "control-003"), ("adhd-004", "control-001")])
def test_load_dataset_raises_the_serial_error_with_bad_files_in_two_chunks(
    monkeypatch, dataset_root, tmp_path, bad
):
    # Of 8 patients, 2 CPUs take 4 and 4 and 3 CPUs take 2, 3 and 3: the
    # bad files fall in two chunks, or at 3 CPUs in one worker's chunk.
    root = tmp_path / "dataset"
    write_dataset(root, *load_dataset(dataset_root))
    first, second = (root / f"patients/{pid}.csv" for pid in bad)
    first.write_bytes(first.read_bytes().replace(b"\n", b"\nx,1.0\n", 1))
    second.write_bytes(b"Cz,F4" + second.read_bytes()[len(b"F4,Cz") :])
    use_cpus(monkeypatch, 1)
    with pytest.raises(DataValidationError) as serial:
        load_dataset(root)
    assert str(serial.value) == f"{bad[0]}: row 2 holds a non-numeric value"
    for cpus in (2, 3):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(DataValidationError) as info:
            load_dataset(root)
        assert str(info.value) == str(serial.value)
    assert_no_children()


def test_cli_exits_4_when_a_worker_is_killed(monkeypatch, dataset_root, tmp_path, capsys):
    read_patient = dataio._read_patient

    def killed_in_child(path, patient, channels, parse):
        if in_child():
            os.kill(os.getpid(), signal.SIGKILL)
        return read_patient(path, patient, channels, parse)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(dataio, "_read_patient", killed_in_child)
    argv = ["sweep", "--manifest", str(dataset_root), "--out", str(tmp_path / "s.csv"),
            "--test-size", "2", "--max-train", "2", "--runs", "1", *SMALL]
    assert main(argv) == EXIT_IO
    assert "was killed by signal 9" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    assert_no_children()
