"""Smoke tests of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_declared_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert "matches the reference" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = _bench(tmp_path, "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _tampered(value):
    if isinstance(value, str):
        return "0" * len(value)
    if isinstance(value, list):
        return [_tampered(value[0])] + value[1:]
    if isinstance(value, float):
        return value * (1 + 1e-6) + 1e-6
    return value + 1


def test_every_reference_field_is_checked(tmp_path):
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from spans import NULL
    from workloads import WORKLOADS

    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["tiny"]["0"]
    for name, cls in WORKLOADS.items():
        wl = cls("tiny", 0, tmp_path)
        ref = refs[name]
        assert wl.setup(NULL) == ref["input_sha"]
        out = wl.run_pass(NULL)
        assert wl.check(out, ref) == []
        for key in ref.keys() - {"input_sha", "stride"}:
            assert wl.check(out, {**ref, key: _tampered(ref[key])}), f"{name}: {key} unchecked"
