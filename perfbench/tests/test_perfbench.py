"""Tests of the benchmark itself: job generation, the output gate, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402


def _job_keys_in_fresh_process(workload: str, seed: int, hashseed: str) -> list:
    code = ("import json, jobs; "
            f"print(json.dumps([j.key for j in jobs.jobs_for({workload!r}, {seed})]))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONHASHSEED=hashseed))
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_generator_is_stable_per_seed(workload):
    keys = [j.key for j in jobs.jobs_for(workload, 11)]
    assert keys == [j.key for j in jobs.jobs_for(workload, 11)]
    assert keys == _job_keys_in_fresh_process(workload, 11, "123")
    other = [j.key for j in jobs.jobs_for(workload, 12)]
    assert other != keys
    if workload != "requests":
        assert sorted(other) == sorted(keys)


def test_requests_follow_the_mix_and_the_seed():
    pool = jobs.request_pool()
    category = {job: name for name, items in pool.items() for job in items}
    a, b = jobs.jobs_for("requests", 1), jobs.jobs_for("requests", 2)
    assert a != b
    for stream in (a, b):
        counts = {}
        for job in stream:
            counts[category[job]] = counts.get(category[job], 0) + 1
        assert counts == dict(jobs.REQUEST_MIX)


def test_every_job_has_a_recorded_output():
    assert {job.key for job in jobs.all_jobs()} == set(jobs.load_golden())


def test_every_job_passes_its_gate():
    from worker import run_job

    golden = jobs.load_golden()
    failures = []
    for job in jobs.all_jobs():
        code, out, _, error = run_job(job)
        reason = error or jobs.gate(job, code, out, golden)
        if reason:
            failures.append((job.argv, reason))
    assert failures == []


def test_gate_rejects_wrong_output_and_wrong_exit_code():
    from worker import run_job

    golden = jobs.load_golden()
    tau = jobs.Job(("table", "tau", "--max", "10"))
    code, out, _, _ = run_job(tau)
    assert jobs.gate(tau, code, out, golden) is None
    wrong = out.replace("\t-24\n", "\t24\n")
    assert jobs.tau_mismatch(tau, wrong) == "tau(2) = 24, expected -24"
    assert jobs.gate(tau, code, wrong, golden) is not None
    assert jobs.gate(tau, 1, out, golden) is not None
    failing = jobs.Job(("verify", "selftest-fail"), 1)
    code, out, _, _ = run_job(failing)
    assert code == 1 and jobs.gate(failing, code, out, golden) is None
    assert jobs.gate(failing, 0, out, golden) is not None


def _public_bindings() -> dict:
    import qfgl.cli  # noqa: F401
    from tracer import OPERATORS

    found = {}
    for name, mod in sys.modules.items():
        if name == "qfgl" or name.startswith("qfgl."):
            for attr, obj in vars(mod).items():
                found[(name, attr)] = obj
                if isinstance(obj, type):
                    for op in OPERATORS:
                        if op in obj.__dict__:
                            found[(name, attr, op)] = obj.__dict__[op]
    return found


def test_tracer_wraps_copies_and_restores_the_originals():
    import qfgl.fgl
    import qfgl.scalar
    import qfgl.series
    import qfgl.varieties
    from tracer import Tracer

    before = _public_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert qfgl.fgl.bi_compose is qfgl.series.bi_compose
        assert qfgl.fgl.bi_compose is not before[("qfgl.fgl", "bi_compose")]
        assert qfgl.varieties.cp_image is not before[("qfgl.varieties", "cp_image")]
        assert qfgl.varieties.cp_image is qfgl.fgl.cp_image
        assert qfgl.scalar.Scalar.__dict__["__mul__"] is not \
            before[("qfgl.scalar", "Scalar", "__mul__")]
        qfgl.varieties.cp_image(3)
    after = _public_bindings()
    assert {k: v for k, v in after.items() if k in before} == before
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"fgl.cp_image", "fgl.log_chi", "scalar.Scalar.__mul__"} <= names


def test_host_speed_scales_by_the_probes_near_a_window_and_stops():
    import signal
    import time

    from hostspeed import MIN_PROBES, HostSpeed

    host = HostSpeed()
    host.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    host.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    at, speed = host.at, host.speed
    assert len(at) == len(speed) > 2 * MIN_PROBES and at == sorted(at)
    assert all(v > 0 for v in speed)
    assert host.scale(at[0], at[-1]) == pytest.approx(sum(speed) / len(speed))
    # A window holding no probe takes the nearest MIN_PROBES.
    mid = len(at) // 2
    nearest = speed[mid - MIN_PROBES // 2:mid + MIN_PROBES // 2]
    assert host.scale(at[mid] - 1e-9, at[mid] - 1e-9) == \
        pytest.approx(sum(nearest) / len(nearest))


def _traced_run(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "requests",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    line = json.loads(out.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    return {name: m["value"] for name, m in line["metrics"].items()}


def test_traced_runs_repeat_their_counts_and_self_times_fit_the_wall():
    first, second = _traced_run(5), _traced_run(5)
    counted = [n for n in first
               if not n.endswith("_s") and n != "trace.overhead_ratio"]
    assert counted and {n: first[n] for n in counted} == {n: second[n] for n in counted}
    for metrics in (first, second):
        layers = sum(v for n, v in metrics.items() if n.endswith(".self_s"))
        assert 0 < layers <= metrics["trace.wall_s"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_benchmark_json_names_the_metrics_the_runs_report():
    import run
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [tracer.unit(n) for n in tracer.metric_names()]
    result = {"setup_samples_s": [1.0, 2.0], "walls": [1.0], "latencies_ms": [1.0, 2.0],
              "peak_rss_kb": 1024}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in run._end_to_end(result).items()}
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
