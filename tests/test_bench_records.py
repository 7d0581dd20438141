"""The committed ``BENCH_*.json`` files at the repository root are
append-only records: each is one list of entries, and every entry says how
it was measured (``command``) and on what machine (``host``)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_a_list_of_entries(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert isinstance(entry, dict)
        assert "command" in entry and "host" in entry
