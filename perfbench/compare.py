"""Summarise or compare sets of benchmark records.

    python3 perfbench/compare.py DIR            # medians and spreads
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A DIR holds result-*.json records written by run.py (.perfbench_out/ after
a series of runs).  For every workload and end-to-end metric it prints the
median, the quartile spread as a share of the median, and with two sets the
change of the median against the bound in BENCHMARK.json.  Records whose
kernel backend or Python version differ are refused: either one changes
every number.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} and the set of environments seen."""
    series, envs = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        envs.add((rec["env"]["backend"], rec["env"]["python"]))
        for name, m in rec["metrics"].items():
            series.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return series, envs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = [load(d) for d in argv]
    envs = set().union(*(e for _, e in sets))
    if len(envs) != 1:
        print(f"refusing to compare records from different environments: {sorted(envs, key=str)}",
              file=sys.stderr)
        return 3
    base = sets[0][0]
    worst = 0
    for workload in sorted(base):
        for name, values in sorted(base[workload].items()):
            bound = spec[name]["bound"]
            line = (f"{workload:12s} {name:12s} n={len(values):2d} median={statistics.median(values):.6g}"
                    f" spread={spread(values):.4f} (bound {bound})")
            if len(sets) == 2:
                new = sets[1][0].get(workload, {}).get(name)
                if not new:
                    line += "  missing in the second set"
                    worst = 1
                else:
                    change = statistics.median(new) / statistics.median(values) - 1
                    worse = change if spec[name]["better"] == "lower" else -change
                    verdict = "worse beyond bound" if worse > bound else "within bound"
                    worst = max(worst, worse > bound)
                    line += (f"  new median={statistics.median(new):.6g} spread={spread(new):.4f}"
                             f" change={change:+.4f} {verdict}")
            print(line)
    return int(worst)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
