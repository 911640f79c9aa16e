"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench
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
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _deterministic(unit):
    """Everything a traced unit reports except times."""
    counts = {k: v for k, v in unit["layers"].items() if run.layer_unit(k) != "s"}
    keep = ("budget_nodes", "spans", "digest", "attempted", "failed", "items", "unwrapped")
    counts.update({k: unit[k] for k in keep})
    return counts


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_counts_repeat_exactly(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    env = run.child_env(os.path.join(ROOT, "src"))
    requests = workloads.make_requests(workload, 7)
    first, second = (run.run_unit(workload, requests, env, True, 170) for _ in range(2))
    assert first is not None and second is not None
    assert first["failed"] == 0, first["reasons"]
    assert first["unwrapped"]
    assert _deterministic(first) == _deterministic(second)


def test_query_seed_orders_one_family():
    a, b = (workloads.make_requests("query", s) for s in (1, 2))
    assert a == workloads.make_requests("query", 1)
    assert a != b and sorted(a) == sorted(b)
    assert len(a) == 3 * len(workloads.query_family())


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    import unit
    reported = {f"{q}.{s}" for q, stats in unit.LAYER_STATS.items() for s in stats}
    reported |= {"budget.nodes", "trace.spans", "trace.overhead_s"}
    assert declared == reported


def test_refuses_a_directory_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
