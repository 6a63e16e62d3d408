"""Every committed BENCH_*.json speed record says what it measured, against
which commit, how, and on what machine, so that a claim can be read and
repeated without the session that took it."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("title", "parent_commit", "method", "claim", "end_to_end")
ENVIRONMENT = ("python", "numpy", "blas", "cpu_count")


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_claim_method_and_environment(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in FIELDS if key not in record] == []
    assert all(isinstance(record[key], str) and record[key]
               for key in ("title", "parent_commit", "method"))
    assert isinstance(record["end_to_end"], dict) and record["end_to_end"]
    environment = record.get("environment")
    assert isinstance(environment, dict)
    assert [key for key in ENVIRONMENT if key not in environment] == []
    assert isinstance(environment["cpu_count"], int) and environment["cpu_count"] > 0
