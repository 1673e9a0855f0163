"""Record the payload digests the oracle compares against (expected.json).

    python3 perfbench/record.py

Runs every request of every workload once, for every pool value, under the
pinned environment, and stores the SHA-256 of each canonical JSON payload.
Run it only on a commit whose outputs are trusted: the digests in the
repository were recorded on the seed commit, and a later change that alters
a payload must show up as a digest mismatch, not be re-recorded away.
A request whose own verdict is false is refused.
"""

import json
import os
import subprocess
import sys

import run
import workloads


def main():
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        return subprocess.run([sys.executable, os.path.abspath(__file__)],
                              env=run.pinned_env(), cwd=run.ROOT).returncode
    from worker import execute

    digests = {}
    for workload in workloads.WORKLOADS:
        for request in workloads.all_requests(workload):
            code, payload, _ = execute(request)
            reason = workloads.verdict_failure(request, payload) if code == 0 else f"exit {code}"
            if reason:
                print(f"refusing to record {request!r}: {reason}", file=sys.stderr)
                return 1
            digests[request] = workloads.digest(payload)
            print(f"{digests[request]}  {request}", flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
