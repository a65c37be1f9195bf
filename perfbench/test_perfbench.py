"""Self-tests of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_declares_the_workloads():
    assert [w["name"] for w in _benchmark()["workloads"]] == \
        list(workloads.WORKLOADS)


def _tiny_caller():
    from repro.fs.filesystem import OutsourcedFileSystem
    run = workloads.Run(ROOT, "point-large", 3, 1.0, False, workloads.TINY)
    caller = workloads.Caller(run, OutsourcedFileSystem(), run.rng("ops"))
    caller.create("g/f0", [bytes([i]) * 8 for i in range(16)])
    caller.point_step((("delete", 1),), 8)
    return caller


def _check(caller):
    return workloads.check_callers([caller], hostspeed.HostSpeed())


def test_model_matches_program():
    caller = _tiny_caller()
    [(nbytes, _seconds, _factor)] = _check(caller)
    assert nbytes == 15 * 8


def test_corrupted_record_fails_the_check():
    caller = _tiny_caller()
    caller.files["g/f0"][3][1] = b"corrupt!"
    with pytest.raises(workloads.CheckFailed, match=r"g/f0\[3\]"):
        _check(caller)


def test_live_record_listed_as_deleted_fails_the_check():
    caller = _tiny_caller()
    name, file_id, _item = caller.deleted[0]
    caller.deleted.append((name, file_id, caller.files[name][0][0]))
    with pytest.raises(workloads.CheckFailed, match="still reads"):
        _check(caller)


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "point-large", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
