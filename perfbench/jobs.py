"""Job lists of the three workloads and the gate every job's output must pass.

A job is an argument vector.  ``("expand", "log_chi", ...)`` is a call of
``qfgl.cli.main(argv)``; an argument vector whose first entry starts with
``@`` is a call of a public library function (see ``LIBRARY`` in
``worker.py``).  Each job carries the exit code it must return.

``law`` and ``qseries`` are fixed lists whose order the seed shuffles per
pass.  ``requests`` is a stream the seed draws, by category, from a fixed
pool of small requests.  The pool is fixed so that every job it can draw
has an expected stdout digest in ``golden.json``, recorded at the seed
commit by ``record.py``.

This module imports nothing from qfgl: the same job lists can be made
without the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import NamedTuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("law", "qseries", "requests")


class Job(NamedTuple):
    argv: tuple
    expect: int = 0

    @property
    def key(self) -> str:
        return json.dumps(list(self.argv))


def _cli(text: str) -> Job:
    return Job(tuple(text.split()))


# Group law at doubled orders: the work sits in ``series`` and ``scalar``.
LAW_JOBS = (
    _cli("verify proposition --order 16"),
    _cli("expand fgl_inverse --order 20"),
    _cli("verify cartier --t-order 8 --order 24"),
    _cli("verify fgl-axioms --order 16"),
    _cli("expand exp_chi --order 40"),
    _cli("expand log_chi --order 40"),
    _cli("expand f_chi --order 24"),
    _cli("expand drinfeld --order 20"),
    Job(("@verify_fgl_from_log", "12")),
    Job(("@reverse_log_chi", "32")),
)

# q-series at 2-10x the default q-order: ``qcomb`` rows and ``lambda_ring``.
QSERIES_JOBS = (
    _cli("expand pochhammer --t-order 8 --q-order 80"),
    _cli("verify pochhammer-identity --t-order 8 --q-order 80"),
    _cli("expand discriminant --q-order 300"),
    _cli("table tau --max 300"),
    _cli("verify lambda-k --q-order 40"),
    _cli("verify adams --q-order 60"),
    _cli("verify exercise32 --q-order 100"),
    _cli("expand thom_class --q-order 80"),
    _cli("expand lambda_t --t-order 8 --q-order 60"),
)

SUITES = ("lemma21", "fgl-axioms", "mishchenko", "adams", "pochhammer-identity",
          "lambda-k", "cartier", "exercise32", "diagram", "proposition")

# Requests that must fail: exit 1 is a failing check, exit 2 a usage or
# evaluation error.
ERROR_JOBS = (
    Job(("verify", "selftest-fail"), 1),
    Job(("verify", "selftest-fail", "--format", "json"), 1),
    Job(("eval", "1/(1-1)"), 2),
    Job(("eval", "q/(q - q)"), 2),
    Job(("eval", "foo(3)"), 2),
    Job(("eval", "qint(2, 3)"), 2),
    Job(("eval", "qint(-1)"), 2),
    Job(("eval", "0^-1"), 2),
    Job(("eval", "adams(s, 2)"), 2),
    Job(("eval", "(q + 1"), 2),
    Job(("expand", "log_chi", "--order", "0"), 2),
    Job(("verify", "adams", "--q-order", "0"), 2),
    Job(("table", "qint", "--t-order", "0"), 2),
    Job(("diagram",), 2),
    Job(("expand", "no_such_target"), 2),
)

# Jobs per pass of ``requests``, by category: 45% eval, 20% diagram,
# 10% table, 10% expand, 5% verify, 5% library membership, 5% errors.
REQUEST_MIX = (("eval", 270), ("diagram", 120), ("table", 60), ("expand", 60),
               ("verify", 30), ("membership", 30), ("error", 30))

# Ramanujan tau(1..10), written out independently of the program.
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

_POOL_SEED = 20250527
_EVAL_POOL_SIZE = 600
_MEMBERSHIP_POOL_SIZE = 150


# ---------------------------------------------------------------------------
# random scalar expressions over the ``qfgl eval`` grammar

def _gen_expr(rng: random.Random, depth: int, nonzero: bool, q_only: bool) -> str:
    """An expression of nesting depth at most ``depth``.

    With ``nonzero`` the value is provably nonzero (no sums or
    differences), so it can be a divisor or a base with a negative
    exponent.  With ``q_only`` it lives in ``q`` (no ``s``), as ``adams``
    requires.  Integer arguments stay at most 12.
    """
    kinds = ["atom", "mul", "div", "pow", "call"]
    if not nonzero:
        kinds += ["add", "sub"]
    kind = "atom" if depth <= 0 else rng.choice(kinds)
    if kind == "atom":
        choices = ["q", "q", str(rng.randint(1, 12))]
        if not q_only:
            choices.append("s")
        return rng.choice(choices)
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        lhs = _gen_expr(rng, depth - 1, nonzero, q_only)
        rhs = _gen_expr(rng, depth - 1, nonzero, q_only)
        return f"({lhs} {op} {rhs})"
    if kind == "div":
        lhs = _gen_expr(rng, depth - 1, nonzero, q_only)
        rhs = _gen_expr(rng, depth - 1, True, q_only)
        return f"({lhs} / {rhs})"
    if kind == "pow":
        k = rng.randint(-2, 3)
        base = _gen_expr(rng, depth - 1, nonzero or k < 0, q_only)
        return f"({base}^{k})"
    name = rng.choice(("qint", "qfact", "qbinom", "cyclotomic", "adams"))
    if name == "qint":
        return f"qint({rng.randint(1, 12)})"
    if name == "qfact":
        return f"qfact({rng.randint(0, 6)})"
    if name == "qbinom":
        n = rng.randint(1, 12)
        return f"qbinom({n}, {rng.randint(0, min(n, 3))})"
    if name == "cyclotomic":
        return f"cyclotomic({rng.randint(1, 12)})"
    inner = _gen_expr(rng, depth - 1, nonzero, True)
    return f"adams({inner}, {rng.randint(1, 4)})"


def _membership_expr(rng: random.Random) -> str:
    """A q-only value divided by a product that is often cromulent."""
    num = _gen_expr(rng, rng.randint(0, 2), False, True)
    factors = []
    for _ in range(rng.randint(1, 3)):
        factors.append(rng.choice((
            f"qint({rng.randint(2, 12)})", f"cyclotomic({rng.randint(1, 12)})",
            f"qfact({rng.randint(1, 5)})", "q", str(rng.randint(2, 6)),
            f"(1 + {rng.randint(2, 5)}*q)")))
    return f"({num}) / ({' * '.join(factors)})"


def _formats(*argv) -> list:
    return [Job(tuple(argv)), Job(tuple(argv) + ("--format", "json"))]


def request_pool() -> dict:
    """Every request the ``requests`` stream can draw, by category."""
    rng = random.Random(_POOL_SEED)
    pool = {}

    evals = []
    for _ in range(_EVAL_POOL_SIZE):
        evals += _formats("eval", _gen_expr(rng, rng.randint(1, 4), False, False))
    pool["eval"] = evals

    diagrams = []
    for r in range(1, 5):
        for dims in _sorted_tuples(r, 6):
            diagrams += _formats("diagram", *map(str, dims))
    pool["diagram"] = diagrams

    tables = []
    for name in ("qint", "qfact", "cyclotomic", "cp_image", "tau"):
        for m in range(1, 21):
            tables += _formats("table", name, "--max", str(m))
    pool["table"] = tables

    expands = []
    for target in ("log_chi", "exp_chi", "f_chi", "drinfeld", "fgl_inverse"):
        for n in range(2, 11):
            expands += _formats("expand", target, "--order", str(n))
    for target in ("euler_phi", "discriminant", "thom_class"):
        for n in range(5, 31, 5):
            expands += _formats("expand", target, "--q-order", str(n))
    for t in (2, 4, 6):
        for n in (10, 20, 30):
            expands += _formats("expand", "pochhammer", "--t-order", str(t),
                                "--q-order", str(n))
            for element in ("1/(1-q)", "1 + q", "2*q", "qint(3)"):
                expands += _formats("expand", "lambda_t", "--element", element,
                                    "--t-order", str(t), "--q-order", str(n))
    pool["expand"] = expands

    pool["verify"] = [job for suite in SUITES for job in _formats("verify", suite)]
    pool["membership"] = [Job(("@membership", _membership_expr(rng)))
                          for _ in range(_MEMBERSHIP_POOL_SIZE)]
    pool["error"] = list(ERROR_JOBS)
    return pool


def _sorted_tuples(r: int, top: int):
    if r == 0:
        yield ()
        return
    for rest in _sorted_tuples(r - 1, top):
        for n in range(rest[-1] if rest else 0, top + 1):
            yield rest + (n,)


def _draw(rng: random.Random, category: str, items: list, count: int) -> list:
    """``count`` jobs of one category.

    Suites and error requests are few and their costs differ widely, so
    every one of them appears equally often and the seed picks only the
    output format (verify) or the order (error).  The other pools are
    ordered by a proxy of cost (target and order, or expression length),
    cut into ``count`` runs of neighbours, and one job is drawn from each
    run, so that every seed gets the same mix of cheap and costly jobs.
    """
    if category == "verify":
        reps = count // len(SUITES)
        return [rng.choice(items[2 * i: 2 * i + 2])
                for i in range(len(SUITES)) for _ in range(reps)]
    if category == "error":
        return [items[i % len(items)] for i in range(count)]
    if category in ("eval", "membership"):
        items = sorted(items, key=lambda job: len(job.argv[1]))
    bounds = [i * len(items) // count for i in range(count + 1)]
    return [items[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one pass, in the order of the first pass."""
    rng = random.Random(seed)
    if workload == "law":
        jobs = list(LAW_JOBS)
    elif workload == "qseries":
        jobs = list(QSERIES_JOBS)
    elif workload == "requests":
        pool = request_pool()
        jobs = []
        for category, count in REQUEST_MIX:
            jobs += _draw(rng, category, pool[category], count)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list:
    """Every job any seed can produce, each once."""
    jobs = list(LAW_JOBS) + list(QSERIES_JOBS)
    for items in request_pool().values():
        jobs += items
    return list(dict.fromkeys(jobs))


# ---------------------------------------------------------------------------
# the output gate

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def tau_mismatch(job: Job, stdout: str):
    """First wrong tau(k), k <= 10, in the output of ``table tau``, or None."""
    if job.argv[:2] != ("table", "tau"):
        return None
    if "json" in job.argv:
        rows = [(c["degree"], int(c["value"]))
                for c in json.loads(stdout)["coefficients"]]
    else:
        rows = [tuple(map(int, line.split("\t")))
                for line in stdout.splitlines() if not line.startswith("#")]
    want = int(job.argv[job.argv.index("--max") + 1]) if "--max" in job.argv else 10
    got = dict(rows)
    for k in range(1, min(want, len(TAU)) + 1):
        if got.get(k) != TAU[k - 1]:
            return f"tau({k}) = {got.get(k)}, expected {TAU[k - 1]}"
    return None


def gate(job: Job, code: int, stdout: str, golden: dict):
    """None when the job's output is right, else the reason it is not."""
    if code != job.expect:
        return f"exit code {code}, expected {job.expect}"
    recorded = golden.get(job.key)
    if recorded is None:
        return "no recorded output for this job"
    if [code, digest(stdout)] != recorded:
        return "stdout differs from the recorded output"
    try:
        return tau_mismatch(job, stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable tau table: {exc}"
