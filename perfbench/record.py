"""Record the exit code and stdout digest of every job into golden.json.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record.py

Run at the commit whose outputs are the reference.  A job whose exit code
is not the one it declares, or a ``table tau`` whose first values are not
the hand-written ones, stops the recording.
"""

from __future__ import annotations

import json
import sys

from jobs import GOLDEN_PATH, all_jobs, digest, tau_mismatch
from worker import run_job


def main() -> int:
    golden, bad = {}, []
    for job in all_jobs():
        code, out, _, error = run_job(job)
        reason = error or (f"exit code {code}, expected {job.expect}"
                           if code != job.expect else tau_mismatch(job, out))
        if reason:
            bad.append(f"{list(job.argv)}: {reason}")
        golden[job.key] = [code, digest(out)]
    if bad:
        print("not recorded:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"jobs": golden}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} jobs in {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
