"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600, check=False,
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if trace == "0":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_corrupted_expected_digest_is_a_failed_operation(tmp_path):
    expected = json.loads((ROOT / "perfbench/expected.json").read_text())
    key = "SHIP|RB_8|sms|8x8x1|b2|seed0|scaleNone"
    digest = expected["digests"][key]
    expected["digests"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    proc = _run("--workload", "config-sweep", "--seed", "0", "--seconds",
                "0.1", "--trace", "0", "--tiny", "--expected", str(corrupted))
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "expected digest" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "config-sweep", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
