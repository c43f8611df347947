"""One workload process: a closed loop with one client over a job list.

    python3 worker.py setup
    python3 worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH

``run.py`` starts this with ``PYTHONHASHSEED`` pinned and ``PYTHONPATH``
set to the checkout's ``src``.  It prints one JSON object on stdout.
``setup`` only measures ``import qfgl.cli`` plus ``build_parser()``.
``run`` also does one warm-up pass, which fills the program's caches, and
then measured passes until SECONDS have gone; the next job starts only
when the previous one has returned.  Between passes it starts ``setup``
probes, one at a time.  With TRACE 1 the measured passes
alternate between untraced and traced, and the spans are written to
SPANS_PATH.

``run`` pins itself, and so its set-up probes, to one CPU, and samples
the host's speed all through (``hostspeed.py``).  Every pass, job and
set-up time it reports is scaled by the host speed over its own window;
the raw times are reported too, under ``raw_``.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import jobs as jobs_mod
from hostspeed import MIN_PROBES, HostSpeed

_t0 = time.perf_counter()
import qfgl.cli  # noqa: E402
qfgl.cli.build_parser()
SETUP_S = time.perf_counter() - _t0

import qfgl.expr  # noqa: E402
import qfgl.fgl  # noqa: E402
import qfgl.scalar  # noqa: E402
import qfgl.series  # noqa: E402

PROBES_PER_PASS = 2


def _verify_fgl_from_log(order: str) -> int:
    n = int(order)
    rep = qfgl.fgl.verify_fgl(qfgl.fgl.f_chi_from_log(n), n, assoc="generic")
    print(rep)
    return 0 if rep.all_passed else 1


def _reverse_log_chi(order: str) -> int:
    n = int(order)
    same = qfgl.series.reverse(qfgl.fgl.log_chi(n)) == qfgl.fgl.exp_chi(n)
    print(same)
    return 0 if same else 1


def _membership(text: str) -> int:
    print(qfgl.scalar.membership(qfgl.expr.evaluate(text)))
    return 0


# Library jobs: the public calls are looked up when the job runs, so a
# traced pass sees them through the tracer's wrappers.
LIBRARY = {
    "@verify_fgl_from_log": _verify_fgl_from_log,
    "@reverse_log_chi": _reverse_log_chi,
    "@membership": _membership,
}


def run_job(job):
    """Exit code, captured stdout, seconds taken and an error text or None."""
    out = io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if job.argv[0].startswith("@"):
                code = LIBRARY[job.argv[0]](*job.argv[1:])
            else:
                code = qfgl.cli.main(list(job.argv))
        except Exception:
            code = -1
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed, error


class Loop:
    def __init__(self, jobs: list, seed: int):
        self.jobs = jobs
        self.rng = random.Random(f"passes {seed}")
        self.golden = jobs_mod.load_golden()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []      # the first few, with their reasons
        self.order = list(jobs)

    def run_pass(self, latencies=None, tracer=None) -> tuple:
        """Run every job once in this pass's order; return its start and end.

        ``latencies`` gets the start, end and time taken of every job.
        """
        t0 = time.perf_counter()
        for i, job in enumerate(self.order):
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            code, out, elapsed, error = run_job(job)
            self.attempted += 1
            if tracer is not None and not job.argv[0].startswith("@"):
                tracer.count_exit(code)
            if latencies is not None:
                latencies.append((start, time.perf_counter(), elapsed))
            reason = error or jobs_mod.gate(job, code, out, self.golden)
            if reason:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"job": list(job.argv), "reason": reason})
        t1 = time.perf_counter()
        self.rng.shuffle(self.order)
        return t0, t1


def _setup_probe(host: HostSpeed) -> tuple:
    """Start, end and setup_s of a fresh process that only imports
    qfgl.cli and builds the parser.

    The process shares this one's CPU, so the timer is off while it runs,
    lest the host-speed probes time the child too; the host speed is
    sampled right before and after it instead.
    """
    host.stop()
    for _ in range(MIN_PROBES):
        host.sample()
    start = time.perf_counter()
    out = subprocess.run([sys.executable, __file__, "setup"], check=True,
                         capture_output=True, text=True, timeout=60)
    end = time.perf_counter()
    for _ in range(MIN_PROBES):
        host.sample()
    host.start()
    return start, end, json.loads(out.stdout)["setup_s"]


def _scaled(host: HostSpeed, windows: list) -> list:
    """Each (start, end, time) window's time at the reference host speed."""
    return [t * host.scale(a, b) for a, b, t in windows]


def _measure(loop: Loop, seconds: float, host: HostSpeed) -> dict:
    """Passes until ``seconds`` have gone, with set-up probes between them.

    The probes are spread over the whole run rather than taken in one
    burst, so that they meet the host in every state the passes meet it.
    """
    passes, latencies, setups = [], [], []
    start = time.perf_counter()
    while True:
        passes.append(loop.run_pass(latencies))
        setups += [_setup_probe(host) for _ in range(PROBES_PER_PASS)]
        a, b = passes[-1]
        if time.perf_counter() - start + (b - a) > seconds:
            break
    host.stop()
    passes = [(a, b, b - a) for a, b in passes]
    return {"walls": _scaled(host, passes),
            "latencies_ms": [t * 1e3 for t in _scaled(host, latencies)],
            "setup_samples_s": _scaled(host, setups),
            "raw_walls": [t for *_, t in passes],
            "raw_latencies_ms": [t * 1e3 for *_, t in latencies],
            "raw_setup_samples_s": [t for *_, t in setups]}


def _measure_traced(loop: Loop, seconds: float, spans_path: str,
                    host: HostSpeed) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, marks = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(loop.run_pass())
        begin = tracer.mark()
        with tracer.installed():
            traced.append(loop.run_pass(tracer=tracer))
        marks.append((begin, tracer.mark()))
        last = (plain[-1][1] - plain[-1][0]) + (traced[-1][1] - traced[-1][0])
        if time.perf_counter() - start + last > seconds:
            break
    host.stop()
    tracer.write_spans(spans_path)
    per_pass = []
    for (a, b), (begin, end) in zip(traced, marks):
        scale = host.scale(a, b)
        metrics = tracer.pass_metrics(begin, end)
        per_pass.append({name: value * scale if name.endswith("_s") else value
                         for name, value in metrics.items()})
    plain_walls = _scaled(host, [(a, b, b - a) for a, b in plain])
    traced_walls = _scaled(host, [(a, b, b - a) for a, b in traced])
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / statistics.median(plain_walls)
    return {"walls": plain_walls, "traced_walls": traced_walls, "layers": metrics,
            "raw_walls": [b - a for a, b in plain],
            "raw_traced_walls": [b - a for a, b in traced],
            "spans": len(tracer.span_name)}


def main(argv: list) -> int:
    result = {"setup_s": SETUP_S, "module": qfgl.cli.__file__}
    if argv[0] == "run":
        workload, seed, seconds, trace, spans_path = argv[1:6]
        loop = Loop(jobs_mod.jobs_for(workload, int(seed)), int(seed))
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        host = HostSpeed()
        host.start()
        loop.run_pass()
        if trace == "1":
            result.update(_measure_traced(loop, float(seconds), spans_path, host))
        else:
            result.update(_measure(loop, float(seconds), host))
        result.update(
            attempted=loop.attempted, failed=loop.failed, failures=loop.failures,
            jobs=[list(job.argv) for job in loop.jobs],
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            python=sys.version, nproc=os.cpu_count(), cpu=cpu,
            host_probes=len(host.at),
            hashseed=os.environ.get("PYTHONHASHSEED"))
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
