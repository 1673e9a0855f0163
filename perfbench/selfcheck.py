"""Checks of the benchmark itself, run on demand (a few minutes).

    python3 perfbench/selfcheck.py [--workload NAME ...]

1. Resource guard: a cheap request under a 1 MB address-space ceiling, and
   under a 1 ms time ceiling, fails as one request while the worker goes on
   and reports; the same request passes without the small limits.
2. Count determinism: two traced runs of the same code and seed give
   identical per-layer counts.
3. Pools: every value in a q pool gives the same per-layer operation counts
   (units count and ratio).  Payload sizes may differ: 3/5 prints longer
   rationals than 2/3; such differences are listed, not failed.
4. Tracer accounting: for each request, the self times beneath its span sum
   to its traced duration within ACCOUNTING_TOLERANCE.
5. Layer contrasts the workloads were chosen for: no elimination outside
   tits-linalg and some inside it, no antipode work outside antipodes, and
   the higher-compatibility check as the largest span on axioms.

Exits non-zero and names each failed check.
"""

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

ACCOUNTING_TOLERANCE = 1e-3  # relative
GUARD_REQUEST = "idempotents 5"
COUNT_UNITS = ("count", "ratio")


def worker(*args):
    cmd = [sys.executable, os.path.join(run.HERE, "worker.py"), "--seconds", "1", *args]
    proc = subprocess.run(cmd, env=run.pinned_env(), cwd=run.ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result, units=COUNT_UNITS):
    return {k: v for k, v in result["layers"].items() if run.unit_of(k) in units}


def traced(workload, seed=0, requests=()):
    args = ["--workload", workload, "--seed", str(seed), "--trace", "1"]
    for r in requests:
        args += ["--request", r]
    return worker(*args)


def check_guard(problems):
    base = ["--workload", "tits-linalg", "--seed", "0", "--request", GUARD_REQUEST]
    for extra, reason in ((["--limit-mb", "1"], "resource limit: MemoryError"),
                          (["--limit-s", "0.001"], "resource limit: ResourceLimit")):
        res = worker(*base, *extra)
        if res["failures"] != [[GUARD_REQUEST, reason]]:
            problems.append(f"guard {extra}: expected one '{reason}', got {res['failures']}")
    res = worker(*base)
    if res["failed"]:
        problems.append(f"guard control: {res['failures']}")


def diff(a, b):
    return {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}


def check_workload(workload, problems, results):
    first, second = traced(workload), traced(workload)
    results[workload] = first
    if first["failed"] or second["failed"]:
        problems.append(f"{workload}: failed requests {first['failures'] + second['failures']}")
    d = diff(counts(first, COUNT_UNITS + ("bytes",)), counts(second, COUNT_UNITS + ("bytes",)))
    if d:
        problems.append(f"{workload}: counts differ between two traced runs: {d}")
    for label, duration, self_sum in first["accounting"]:
        if abs(self_sum - duration) > ACCOUNTING_TOLERANCE * duration:
            problems.append(f"{workload}: {label}: self times sum to {self_sum}, span is {duration}")
    for template in workloads.WORKLOADS[workload]:
        pools = [p for p in workloads.POOLS if "{" + p + "}" in template]
        if not pools:
            continue
        variants = [workloads.expand(template, {pools[0]: v}) for v in workloads.POOLS[pools[0]]]
        ref = traced(workload, requests=[variants[0]])
        for v in variants[1:]:
            res = traced(workload, requests=[v])
            d = diff(counts(ref), counts(res))
            if d:
                problems.append(f"pool: {v!r} counts differ from {variants[0]!r}: {d}")
            d = diff(counts(ref, ("bytes",)), counts(res, ("bytes",)))
            if d:
                print(f"note: {v!r} payload size differs from {variants[0]!r}: {d}")


def check_contrasts(results, problems):
    for workload, res in results.items():
        layers = res["layers"]
        if (layers["exactlin.rref_calls"] > 0) != (workload == "tits-linalg"):
            problems.append(f"{workload}: exactlin.rref_calls = {layers['exactlin.rref_calls']}")
        if workload != "antipodes":
            busy = {k: v for k, v in layers.items() if k.startswith("antipode.") and v}
            if busy:
                problems.append(f"{workload}: antipode work outside antipodes: {busy}")
        if workload == "axioms":
            top = max(res["span_totals"].items(), key=lambda kv: kv[1])[0]
            if top != "species.check_higher_compatibility":
                problems.append(f"axioms: largest span is {top}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    problems, results = [], {}
    check_guard(problems)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        check_workload(workload, problems, results)
        print(f"checked {workload}", flush=True)
    check_contrasts(results, problems)
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
