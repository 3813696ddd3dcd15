"""The committed trajectory files, BENCH_<commit>.json, keep one layout.

Each records one run per workload of BENCHMARK.json, untraced and
traced, on the commit it is named after.  Tracing must not change what
the program computes, so both runs of a workload carry the same digests.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
}


def test_trajectory_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_trajectory_file_layout(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert {"commit", "machine", "seed", "runs", "accuracy"} <= data.keys()
    assert path.name == f"BENCH_{data['commit']}.json"
    assert set(data["runs"]) == WORKLOADS
    for runs in data["runs"].values():
        untraced, traced = runs["untraced"], runs["traced"]
        assert set(untraced["digests"]) == {"predictions_sha256", "snapshot_sha256"}
        assert traced["digests"] == untraced["digests"]
