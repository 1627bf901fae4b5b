"""Self-tests of the benchmark at tiny input sizes.

Run from the root of the source tree::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

run.import_path()

import layers  # noqa: E402
import workloads  # noqa: E402
from qbm1d import channel  # noqa: E402
from qbm1d.errors import NegativeEigenvalueBeyondTolerance  # noqa: E402
from tracing import Tracer  # noqa: E402


def _main(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny"]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _patched_sites():
    tracer = Tracer()
    layers.instrument(tracer)
    sites = [(owner, attr, original) for owner, attr, original in tracer._patches]
    tracer.restore()
    return sites


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert e2e == ([("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
                   + list(workloads.ACCURACY_UNITS.items()))
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _main(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    """Per-layer metrics printed, span tree well formed, patches undone."""
    sites = _patched_sites()
    for old in run.WORK.glob(f"spans-{workload}-s3-t1-tiny-rep*.npz"):
        old.unlink()
    result = _main(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for owner, attr, original in sites:
        assert owner.__dict__[attr] is original, (owner, attr)
    shares = [result["metrics"][f"{layer}.share"]["value"] for layer in layers.LAYERS]
    assert all(s >= 0 for s in shares) and sum(shares) <= 1.0
    busy_layer = {"collision": "exact_collision", "channel": "channel",
                  "ensemble": "trajectories"}[workload]
    assert result["metrics"][f"{busy_layer}.share"]["value"] > 0

    files = sorted(run.WORK.glob(f"spans-{workload}-s3-t1-tiny-rep*.npz"))
    assert files
    for path in files:
        spans = np.load(path)
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        assert len(start) > 0 and np.all(end >= start)
        child = parent >= 0
        assert np.all(parent[child] < np.flatnonzero(child))
        assert np.all(start[parent[child]] <= start[child])
        assert np.all(end[child] <= end[parent[child]])
        own = end - start
        np.subtract.at(own, parent[child], (end - start)[child])
        assert np.all(own >= -1e-9)


def test_failure_counted_once_and_patches_restored():
    sites = _patched_sites()
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        grid = channel.SpatialGrid(n=16, length=8.0)
        bad = channel.OperatorGrid(-np.eye(16, dtype=complex), grid)
        with pytest.raises(NegativeEigenvalueBeyondTolerance):
            channel.operator_sqrt(bad)
    finally:
        tracer.restore()
    assert tracer.counts["channel.fail"] == 1
    assert tracer.counts["channel.operator_sqrt.calls"] == 1
    for owner, attr, original in sites:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
