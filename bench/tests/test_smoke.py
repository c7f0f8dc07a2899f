"""Smoke test of the benchmark at tiny sizes (bound 4, 3 seeds).

    python3 -m pytest bench/tests -q

Every workload, untraced and traced, must finish correctly and emit
exactly the metrics BENCHMARK.json declares, and no traced span may have
children that took longer than the span itself.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from reference import REF_S, Sampler  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["trace.nesting_errors"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_runs_every_workload():
    proc = _run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    assert all(r["correct"] for r in results)


def test_children_never_outlast_parent():
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        leaf()
    root = tr.wrap("root", tr.wrap("middle", middle))
    root()
    root()
    calls, _, leaf_total = tr.span("leaf")
    _, middle_self, middle_total = tr.span("middle")
    _, root_self, root_total = tr.span("root")
    assert calls == 4 and tr.nesting_errors == 0 and not tr.stack
    assert leaf_total <= middle_total <= root_total
    assert middle_self == pytest.approx(middle_total - leaf_total)
    assert root_self + middle_self + tr.span("leaf")[1] == pytest.approx(
        root_total)


def test_correction_scales_by_reference_loop():
    # The loop took twice REF_S throughout: the box ran at half speed.
    s = Sampler()
    s.samples = [(i * 0.03, 2 * REF_S) for i in range(40)]
    s.samples[5] = (0.15, 50 * REF_S)   # one sample lost the CPU
    corrected, wall = s.correct(0.0, 0.885)   # holds samples 0 to 29
    assert wall == pytest.approx(0.885 - 29 * 2 * REF_S - 50 * REF_S)
    # the outlier is capped at three times the median loop time
    mean = (29 * 2 * REF_S + 6 * REF_S) / 30
    assert corrected == pytest.approx(wall * REF_S / mean)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(str(tmp_path), "explore-fig1-full", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
