"""The committed benchmark records: every root BENCH_*.json says what it measured and where."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT = {"blas", "blas_threads", "cpu", "nproc", "numpy", "python"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_parses_with_required_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert {"what", "environment", "end_to_end", "per_layer"} <= record.keys()
    assert isinstance(record["what"], str) and record["what"]
    assert ENVIRONMENT <= record["environment"].keys()
