"""species-forge benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): axioms, antipodes, tits-linalg.  The run
starts fresh interpreters pinned to PYTHONHASHSEED=0 and the pure kernel
backend, measures set-up (import plus build_model for every model the
workload names) several times and reports the median, then runs the
workload in a worker process under a time and memory guard.  Every request
is checked by the oracle in workloads.py.

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb, ok_rate); with --trace 1 they are the per-layer ones from a
traced pass.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A record with the recorded
environment (backend, Python version, nproc, git commit, source digest)
and the raw figures goes to .perfbench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Process start-up on a shared box is noisy: set-up is measured this many
# times, half before and half after the workload, and the median reported.
SETUP_REPEATS = 16
WORKER_CEILING_S = 160  # leaves time for the late set-up probes inside 180 s
HASH_SEED = "0"

# prints the monotonic clock when ready, so interpreter shutdown is not timed
SETUP_PROBE = ("import sys, time, species_forge\n"
               "for name in sys.argv[1:]:\n"
               "    species_forge.build_model(name)\n"
               "print(time.perf_counter())\n")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "fraction"}


def pinned_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED=HASH_SEED, SPECIES_FORGE_BACKEND="py",
               PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SPECIES_FORGE_MAX_N", None)
    return env


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "species_forge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def measure_setup(models, env, repeats):
    """Seconds from starting a fresh interpreter to ready, once per repeat.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, *models], env=env, cwd=ROOT,
                             check=True, timeout=60, stdout=subprocess.PIPE, text=True).stdout
        times.append(float(out.split()[-1]) - t0)
    return times


def run_worker(args, env, timeout, trace_out):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "run time ceiling reached"
    if proc.returncode != 0:
        return None, f"worker exited with {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "species_forge", "__init__.py")):
        print("error: no species_forge sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = pinned_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    models = workloads.models_named(args.workload)
    half = 0 if args.trace else SETUP_REPEATS // 2
    setup = measure_setup(models, env, half)
    trace_out = os.path.join(OUT_DIR, f"spans-{tag}.json") if args.trace else None
    res, error = run_worker(args, env, WORKER_CEILING_S - (time.perf_counter() - start), trace_out)
    setup += measure_setup(models, env, half)
    if res is None:
        print(f"error: {error}", file=sys.stderr)
        n = len(workloads.WORKLOADS[args.workload])
        res = {"attempted": n, "failed": n, "failures": [["*", error]], "walls": [],
               "peak_rss_mb": 0.0, "backend": None, "python": None}

    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res.get("layers", {}).items()}
    else:
        values = {"wall_s": statistics.median(res["walls"]) if res["walls"] else 0.0,
                  "setup_s": statistics.median(setup), "peak_rss_mb": res["peak_rss_mb"],
                  "ok_rate": (res["attempted"] - res["failed"]) / res["attempted"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for request, reason in res["failures"]:
        print(f"FAILED {request}: {reason}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "env": {"backend": res["backend"], "python": res["python"],
                      "nproc": os.cpu_count(), "git_commit": git_commit(),
                      "source_sha256": source_digest()},
              "metrics": metrics,
              "raw": dict({k: v for k, v in res.items() if k not in ("layers", "backend", "python")},
                          setup_s=setup)}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record["env"], sort_keys=True), file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def unit_of(name):
    if name == "trace_overhead":
        return "x"
    if name == "cli.payload_bytes":
        return "bytes"
    if name.endswith("_share"):
        return "fraction"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
