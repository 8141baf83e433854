"""Tests of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Smoke runs at tiny sizes check that every metric BENCHMARK.json names is
emitted with its unit; corrupted outputs must be counted as failed tasks.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "points/call", "orders/flux"}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _small_run(name, tmp_path, trace, seed=5):
    return run.run(name, seed, seconds=0.3, trace=trace, workdir=tmp_path, small=True, probes=2)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_end_to_end(name, tmp_path):
    result, meta = _small_run(name, tmp_path, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    for key, unit in (("task_p50_s", "s"), ("task_tail_s", "s"), ("points_per_s", "1/s")):
        assert meta[key]["unit"] == unit and meta[key]["value"] > 0
    assert len(meta["setup_samples"]) == 2
    for key in ("nproc", "cpu_count", "cpu_model", "python", "numpy", "blas", "commit",
                "seed", "task_samples", "tail_percentile", "tail_samples_beyond"):
        assert key in meta


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced_counts_repeat(name, tmp_path):
    first, meta = _small_run(name, tmp_path, trace=True)
    second, _ = _small_run(name, tmp_path, trace=True)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    counts = {k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS
              or k.endswith("points_per_input_point")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert (tmp_path / Path(meta["trace_file"]).name).is_file()


def _corrupt_sweep(result):
    code, text = result
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index("e12")
    row = lines[1].split(",")
    row[col] = repr(float(row[col]) * (1 + 1e-6))
    return code, "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"


def _corrupt_stokes(result):
    fluxes, phases, total = result
    return [fluxes[0] + 1e-2, *fluxes[1:]], phases, total


def _corrupt_routes(result):
    return {**result, "transported": [result["transported"][0] * (1 + 1e-8),
                                      *result["transported"][1:]]}


def _corrupt_monopole(fluxes):
    return [fluxes[0] * 1.02, *fluxes[1:]]


CORRUPTIONS = {"sweep": _corrupt_sweep, "stokes": _corrupt_stokes,
               "routes": _corrupt_routes, "monopole": _corrupt_monopole}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    make = workloads.make_workload

    def corrupted(*args, **kwargs):
        workload = make(*args, **kwargs)
        return dataclasses.replace(
            workload, run=lambda task: CORRUPTIONS[name](workload.run(task)))

    monkeypatch.setattr(workloads, "make_workload", corrupted)
    result, meta = _small_run(name, tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert meta["failed_frac"]["value"] == 1.0
    assert "CheckFailed" in meta["failures"][0]


def test_raised_error_counts_as_failed(tmp_path, monkeypatch):
    make = workloads.make_workload

    def failing(*args, **kwargs):
        def boom(task):
            raise ValueError("injected")
        return dataclasses.replace(make(*args, **kwargs), run=boom)

    monkeypatch.setattr(workloads, "make_workload", failing)
    result, meta = _small_run("routes", tmp_path, trace=False)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert meta["failures"][0] == "ValueError: injected"


def test_tail_percentile():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and percentile == pytest.approx(89.9, abs=0.1)
    value, percentile, beyond = run.tail([float(i) for i in range(9)])
    assert (value, percentile, beyond) == (4.0, 50.0, 4)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "routes",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
