"""The qfgl benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload law --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded process (``worker.py``) that imports qfgl from the
checkout's ``src``, with ``PYTHONHASHSEED`` pinned.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  The full result (Python
version, nproc, seed, job list, every pass time) goes to
``perfbench/out/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

DEADLINE_S = 170


class BenchError(Exception):
    pass


def _worker(args: list, timeout: float) -> dict:
    # Bytecode caching stays on, as it is for an installed qfgl, so
    # setup_s measures importing, not compiling, once the first import has
    # written the cache.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["module"]).resolve() != (SRC / "qfgl" / "cli.py").resolve():
        raise BenchError(f"qfgl was imported from {result['module']}, not {SRC}")
    return result


def _quantile(samples: list, q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _end_to_end(result: dict) -> dict:
    # Every time is at the reference host speed (hostspeed.py): the host
    # switches between a fast state and one up to twice as slow, and raw
    # times follow it (README.md, "Host drift").
    lat = result["latencies_ms"]
    return {
        "setup_s": (statistics.median(result["setup_samples_s"]), "s"),
        "wall_s": (statistics.median(result["walls"]), "s"),
        "job_p50_ms": (statistics.median(lat), "ms"),
        "job_p99_ms": (_quantile(lat, 99), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def _per_layer(result: dict) -> dict:
    layers = result["layers"]
    return {name: (layers[name], tracer.unit(name)) for name in tracer.metric_names()}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (SRC / "qfgl" / "cli.py").is_file():
        raise BenchError(f"no qfgl source at {SRC}: run from the root of a checkout")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    result = _worker(["run", workload, str(seed), str(seconds), str(trace),
                      f"{stem}.spans.tsv.gz"], DEADLINE_S)
    metrics = _per_layer(result) if trace else _end_to_end(result)

    attempted, failed = result["attempted"], result["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:32s} {value:14.6g} {unit}")
    print(f"{workload}  {'fail_ratio':32s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} jobs)")
    if not trace:
        n = len(result["latencies_ms"])
        print(f"{workload}  job latency samples {n}, of which about {n // 100} "
              f"above p99; {len(result['walls'])} passes; "
              f"{len(result['setup_samples_s'])} set-up probes")
        print(f"{workload}  raw, at the host's own speed: "
              f"wall_s {statistics.median(result['raw_walls']):.6g} s, "
              f"job_p50_ms {statistics.median(result['raw_latencies_ms']):.6g} ms, "
              f"setup_s {statistics.median(result['raw_setup_samples_s']):.6g} s")
    for failure in result["failures"]:
        print(f"{workload}  FAILED {failure['job']}: {failure['reason']}")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   **result},
                  fh, indent=1)
    print(f"{workload}  results in {stem}.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        line = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
