"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402  (needs the engine on sys.path)
import workloads  # noqa: E402

KNOWN_DEFECT = "Laurent source cannot map to a bounded target"


@pytest.fixture(autouse=True)
def at_checkout_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def tiny_run(name: str, seed: int, slots: int, tmp_path: Path) -> run.Run:
    r = run.Run(name, seed)
    r.workload = dataclasses.replace(r.workload, slots=slots, trace_jobs=slots)
    r.workdir = tmp_path / name
    r.setup()
    return r


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_completes_at_a_tiny_size(name, tmp_path):
    r = tiny_run(name, seed=3, slots=4, tmp_path=tmp_path)
    for i in range(len(r.jobs)):
        r.execute(i)
    result = r.verify()
    assert result["attempted"] == 4
    assert result["correct"], result["failures"]
    for failure in result["failures"]:
        assert KNOWN_DEFECT in failure["message"]


def test_self_times_sum_to_the_traced_wall_time(tmp_path):
    r = tiny_run("toral-ext", seed=5, slots=3, tmp_path=tmp_path)
    values, extra = run.measure_traced(r, "toral-ext", 5)
    assert extra["spans"] > 3
    assert values["trace.wall_s"] == pytest.approx(extra["self_time_sum_s"], rel=1e-9, abs=1e-9)
    layers = sum(v for k, v in values.items() if k.count(".") == 1 and k.endswith(".self_s"))
    total = layers + values["bench.job.self_s"]
    assert total == pytest.approx(values["trace.wall_s"], rel=1e-9, abs=1e-9)
    run.ROOT.joinpath(extra["spans_file"]).unlink()


def test_tracer_reaches_names_bound_by_from_imports():
    from so3alg import graded, toral

    tracer = tracing.Tracer()
    orig = graded.cokernel_of_map
    tracer.install(extra_modules=[workloads])
    try:
        assert toral.cokernel_of_map is graded.cokernel_of_map is not orig
        assert workloads.homology_Ch.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert toral.cokernel_of_map is orig
    assert not hasattr(workloads.homology_Ch, "__wrapped__")


def test_attempted_and_failed_count_distinct_jobs(tmp_path):
    r = tiny_run("toral-ext", seed=1, slots=2, tmp_path=tmp_path)
    for i in (0, 1, 0, 1, 0):
        r.execute(i)
    job = r.jobs[1]
    honest = job.report
    job.report = lambda raw: honest(raw) + b"altered"
    r.execute(1)
    result = r.verify()
    assert (result["attempted"], result["failed"], result["executions"]) == (2, 1, 6)
    assert result["failures"][0]["executions"] == 1


def test_an_altered_report_fails_the_digest_check(tmp_path):
    r = tiny_run("dihedral-cones", seed=7, slots=2, tmp_path=tmp_path)
    r.execute(0)
    assert r.verify()["failed"] == 0
    job = r.jobs[1]
    honest = job.report
    job.report = lambda raw: honest(raw).replace(b'"weq":[true', b'"weq":[false')
    r.execute(1)
    result = r.verify()
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["failures"][0]["message"] == "report differs from the recorded digest"


@pytest.mark.parametrize("field, message", [
    ("key", "no recorded digest for this job"),
    ("input", "input differs from the recorded input"),
])
def test_a_job_unlike_the_recorded_one_fails_the_digest_check(field, message, tmp_path):
    r = tiny_run("dihedral-cones", seed=7, slots=2, tmp_path=tmp_path)
    setattr(r.jobs[1], field, "altered")
    r.execute(0)
    r.execute(1)
    result = r.verify()
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["failures"][0]["message"] == message


def test_a_timed_run_covers_every_job_and_ends_on_a_block_boundary(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    r = tiny_run("toral-ext", seed=11, slots=42, tmp_path=tmp_path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 50)
    values, extra = run.measure(r, "toral-ext", 11, seconds=0, setup_s=1.0)
    assert extra["latency_samples"] == 42  # one mean time per job
    result = r.verify()
    assert result["executions"] == 63  # the first multiple of 21 from 50
    assert result["attempted"] == 42  # distinct jobs, whatever the executions
    assert result["correct"], result["failures"]
    first, cold = extra["setup_samples_s"]
    assert first == 1.0 and cold > 0
    assert values["setup_s"] != extra["wall_clock"]["setup_s"]  # scaled to reference speed


def test_job_times_are_scaled_to_reference_speed(monkeypatch, tmp_path):
    r = tiny_run("dihedral-cones", seed=2, slots=8, tmp_path=tmp_path)
    monkeypatch.setattr(run, "MIN_SAMPLES", 0)
    monkeypatch.setattr(run.calibrate, "sample", lambda: 2 * run.calibrate.REFERENCE_S)
    wall, scaled, speed = run.job_times(r, seconds=0)
    assert len(wall) == 8
    assert scaled == pytest.approx([t / 2 for t in wall])
    assert speed == pytest.approx(0.5)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
