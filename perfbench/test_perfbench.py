"""The benchmark's own tests.  They run the benchmark end to end, so they
take a few minutes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_reports_every_metric_and_no_failure(workload):
    out = result(bench(workload, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_canaries_exit_1(tmp_path):
    from fhalg import cli
    manifest = make_inputs("spec-verify", 7, str(tmp_path))
    canaries = [c for c in manifest["commands"] if c["expect"]["exit"] == 1]
    assert len(canaries) == 2
    for cmd in canaries:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(cmd["argv"]) == 1, cmd["argv"]


def counts(out: dict) -> dict:
    return {k: v["value"] for k, v in out["metrics"].items()
            if v["unit"] in ("count", "cells")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = result(bench(workload, trace=1))
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        units(SPEC["per_layer"])
    if workload == "double-build":
        # the symmetry search is seeded, so the counts repeat exactly
        assert counts(result(bench(workload, trace=1))) == counts(out)


def test_sampler_samples_and_accounts_its_time():
    with hostspeed.Sampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 4 * hostspeed.TICK_S + 0.1:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0
    assert hostspeed.scale(sampler.samples) > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench("double-build", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
