#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Two workloads exercise the hot paths: a raw sweep over Tits products,
restrictions and distances, and two end-to-end tasks (the alternating-sum
antipode and one higher-compatibility axiom sweep).

The backend is pinned per process, so this script re-launches itself once
with SPECIES_FORGE_BACKEND=py and prints both columns.  Without an
importable compiled kernel (species_forge._ckernels, built from the .pyx
with Cython) both columns would be the pure kernel, so the script says so
and exits 1 instead.

    python benchmarks/bench_kernels.py [--degree 5] [--repeat 3]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def bench_raw(kernels, compositions, n):
    full = (1 << n) - 1
    comps = compositions(full)
    t0 = time.perf_counter()
    acc = 0
    for f in comps:
        for g in comps:
            fg = kernels.comp_tits(f, g)
            acc += len(fg)
            acc += kernels.area(f, g[0], full ^ g[0])
    t1 = time.perf_counter()
    for f in comps:
        for g in comps:
            acc += kernels.dist(f, g)
    t2 = time.perf_counter()
    return {"tits+area": t1 - t0, "dist": t2 - t1, "pairs": len(comps) ** 2, "sink": acc}


def bench_tasks(n):
    from species_forge import build_model
    from species_forge.antipode import antipode_family
    from species_forge.species import check_higher_compatibility

    model = build_model("Sigma")
    t0 = time.perf_counter()
    antipode_family(model, n, "takeuchi")
    t1 = time.perf_counter()
    bad = check_higher_compatibility(model, min(n, 4))
    t2 = time.perf_counter()
    assert not bad
    return {"takeuchi": t1 - t0, "higher-compat": t2 - t1}


def run(args):
    from species_forge import kernels
    from species_forge.setcomb import compositions_of

    results = {"backend": kernels.BACKEND}
    raw = {"tits+area": [], "dist": []}
    task = {"takeuchi": [], "higher-compat": []}
    for _ in range(args.repeat):
        r = bench_raw(kernels, compositions_of, args.degree)
        raw["tits+area"].append(r["tits+area"])
        raw["dist"].append(r["dist"])
        t = bench_tasks(args.degree)
        task["takeuchi"].append(t["takeuchi"])
        task["higher-compat"].append(t["higher-compat"])
    results["raw"] = {k: min(v) for k, v in raw.items()}
    results["tasks"] = {k: min(v) for k, v in task.items()}
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--degree", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json-only", action="store_true")
    args = parser.parse_args()

    from species_forge import kernels

    if not args.json_only and kernels.BACKEND == "python":
        sys.exit("the compiled kernel is not in use: species_forge._ckernels is not "
                 "importable (build it with Cython) or SPECIES_FORGE_BACKEND=py is set")

    mine = run(args)
    if args.json_only:
        print(json.dumps(mine))
        return

    env = dict(os.environ, SPECIES_FORGE_BACKEND="py")
    proc = subprocess.run(
        [sys.executable, __file__, "--degree", str(args.degree),
         "--repeat", str(args.repeat), "--json-only"],
        env=env, capture_output=True, text=True, check=True)
    other = json.loads(proc.stdout)

    rows = [
        ("tits+area sweep", mine["raw"]["tits+area"], other["raw"]["tits+area"]),
        ("dist sweep", mine["raw"]["dist"], other["raw"]["dist"]),
        ("takeuchi antipode", mine["tasks"]["takeuchi"], other["tasks"]["takeuchi"]),
        ("higher-compat sweep", mine["tasks"]["higher-compat"], other["tasks"]["higher-compat"]),
    ]
    print(f"degree {args.degree}, best of {args.repeat}")
    print(f"{'workload':<22}{mine['backend']:>12}{other['backend']:>12}{'speedup':>10}")
    for name, a, b in rows:
        print(f"{name:<22}{a:>11.3f}s{b:>11.3f}s{b / a:>9.2f}x")


if __name__ == "__main__":
    main()
