"""Run one workload in a fresh interpreter; print the result as one JSON line.

run.py starts this with the environment pinned (PYTHONHASHSEED, the pure
kernel backend, PYTHONPATH=src).  Requests are issued back to back by one
client on one thread.  Each request runs under a memory ceiling (the
address-space limit) and a time ceiling (an interval timer), so a runaway
request fails on its own instead of taking the machine down.

Without --trace, whole passes over the workload are timed until the next
pass would end after --seconds.  With --trace, one pass runs untraced and
the same pass again traced, for the per-layer numbers and the tracing
overhead.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import sys
import time

import workloads
from tracer import Tracer

perf = time.perf_counter


class ResourceLimit(Exception):
    """A request ran past its time ceiling."""


def _on_alarm(signum, frame):
    raise ResourceLimit("time ceiling reached")


def execute(request):
    """Run one request; return (exit code, payload, stdout bytes)."""
    from species_forge import build_model, cli, titsops

    words = request.split()
    if words[0] == "primitive":
        return 0, titsops.primitive_dimension_ranks(build_model(words[1]), int(words[2])), 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(words)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    return code, json.loads(text), len(text.encode())


def guarded(request, limit_mb, limit_s):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    ceiling = limit_mb << 20
    if hard != resource.RLIM_INFINITY:
        ceiling = min(ceiling, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return execute(request)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class Client:
    """Issues requests, checks each against the oracle, counts failures."""

    def __init__(self, expected, limit_mb, limit_s):
        self.expected = expected
        self.limit_mb = limit_mb
        self.limit_s = limit_s
        self.attempted = 0
        self.failures = []
        self.payload_bytes = 0
        self.timings = []

    def run_pass(self, requests, tracer=None):
        t0 = perf()
        for request in requests:
            self.attempted += 1
            t_request = perf()
            call = lambda: guarded(request, self.limit_mb, self.limit_s)
            try:
                code, payload, nbytes = tracer.request(request, call) if tracer else call()
                reason = workloads.check(request, code, payload, self.expected)
                self.payload_bytes += nbytes
            except (MemoryError, ResourceLimit) as exc:
                reason = f"resource limit: {type(exc).__name__}"
            except Exception as exc:  # any crash is a failed request, never a retry
                reason = f"exception: {type(exc).__name__}: {exc}"
            self.timings.append([request, perf() - t_request])
            if reason:
                self.failures.append([request, reason])
        return perf() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write spans and leaves here")
    ap.add_argument("--request", action="append", default=None,
                    help="run these requests once instead of the workload")
    ap.add_argument("--limit-mb", type=int, default=2048, help="address-space ceiling per request")
    ap.add_argument("--limit-s", type=float, default=120.0, help="time ceiling per request")
    args = ap.parse_args(argv)

    import species_forge

    if species_forge.BACKEND != "python":
        print(f"error: kernel backend is {species_forge.BACKEND!r}, not the pinned 'python'",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    client = Client(workloads.load_expected(), args.limit_mb, args.limit_s)
    rng = random.Random(args.seed)
    next_pass = (lambda: list(args.request)) if args.request else (
        lambda: workloads.make_pass(args.workload, rng))
    result = {"backend": species_forge.BACKEND, "python": sys.version.split()[0]}

    if args.trace:
        requests = next_pass()
        plain = client.run_pass(requests)
        tracer = Tracer()
        tracer.install()
        client.payload_bytes = 0
        try:
            traced = client.run_pass(requests, tracer)
        finally:
            tracer.uninstall()
        # Layer times are reported as shares of the traced pass: a layer a
        # workload never enters would otherwise read exactly 0 s on every
        # run, and traced seconds are inflated by the tracer anyway.
        seconds = tracer.metrics()
        layers = {k: v for k, v in seconds.items() if not k.endswith("_s")}
        layers.update({k[:-2] + "_share": v / traced for k, v in seconds.items() if k.endswith("_s")})
        layers["cli.payload_bytes"] = client.payload_bytes
        layers["trace_overhead"] = traced / plain
        result.update(walls=[plain], traced_wall=traced, layers=layers, layer_seconds=seconds,
                      span_totals=tracer.span_totals(), accounting=tracer.accounting())
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(dict(tracer.dump(), workload=args.workload, seed=args.seed), fh)
    else:
        walls = []
        start = perf()
        while True:
            walls.append(client.run_pass(next_pass()))
            if args.request or perf() - start + walls[-1] > args.seconds:
                break
        result["walls"] = walls

    result.update(attempted=client.attempted, failed=len(client.failures),
                  failures=client.failures, request_s=client.timings,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
