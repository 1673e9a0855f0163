"""The benchmark's workloads and the correctness oracle for every request.

A workload is a fixed list of request templates.  A request is either a CLI
invocation (``species_forge.cli.main(argv)``, run in-process) or
``primitive <model> <n>``, a call of the library function
``titsops.primitive_dimension_ranks``.  The seed shuffles the order of the
requests in each pass and draws every ``{pool}`` placeholder from its pool.
All values in a pool do the same work: the same code paths and the same
operation counts, only the coefficients differ.
"""

import hashlib
import json
import os

POOLS = {
    # integral braiding coefficients
    "sigma_q": ("2", "3", "5"),
    # non-integral braiding coefficients
    "l_q": ("2/3", "3/2", "3/5"),
}

WORKLOADS = {
    # time to an axiom verdict: the E 5 composition-pair sweep, integral and
    # non-integral q-twists, and the generic (non-monomial) mu/delta path
    "axioms": (
        "verify E 5",
        "verify Sigmaq:{sigma_q} 4",
        "verify Lq:{l_q} 4",
        "verify dual:L 4",
    ),
    # antipode tables with every method cross-checked and the convolution
    # identity verified; no elimination, no Tits algebra
    "antipodes": (
        "antipode Sigma 5 Q closed --cross-check",
        "antipode Lq:{l_q} 5 H takeuchi --cross-check",
        "antipode Pi 5 H closed --cross-check",
        "antipode G 4 H closed --cross-check",
    ),
    # the Tits algebra, characteristic operations and exact elimination; no
    # axiom sweep, no antipode
    "tits-linalg": (
        "idempotents 5",
        "idempotents 4 --check-orthogonality --check-decomposition L",
        "idempotents 4 --check-decomposition Pi",
        "primitive L 5",
        "primitive Sigma 4",
        "primitive G 4",
        "series exp-log --model Sigma --nmax 4",
    ),
}

# dim P[n] from the literature, independent of the code under test:
# L[n]: (n-1)! primitive Lie elements; Sigma[4]: 26; G[4]: connected
# labelled graphs on 4 vertices.
KNOWN_PRIMITIVE_DIMS = {("L", 5): 24, ("Sigma", 4): 26, ("G", 4): 38}

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def expand(template, values):
    return template.format(**values)


def all_requests(workload):
    """Every request a workload can issue, one per pool value."""
    out = []
    for template in WORKLOADS[workload]:
        pools = [p for p in POOLS if "{" + p + "}" in template]
        if not pools:
            out.append(template)
        for p in pools:
            out.extend(expand(template, {p: v}) for v in POOLS[p])
    return out


def make_pass(workload, rng):
    """One pass: every template once, pool values drawn and order shuffled."""
    requests = [expand(t, {p: rng.choice(v) for p, v in POOLS.items()})
                for t in WORKLOADS[workload]]
    rng.shuffle(requests)
    return requests


def models_named(workload):
    """Every model a workload's requests build, for the set-up measurement."""
    names = []
    for request in all_requests(workload):
        words = request.split()
        if words[0] in ("verify", "antipode", "primitive"):
            names.append(words[1])
        for flag in ("--model", "--check-decomposition"):
            if flag in words:
                names.append(words[words.index(flag) + 1])
    return sorted(set(names))


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def verdict_failure(request, payload):
    """Why the payload's own verdict is not a pass, or None."""
    command = request.split()[0]
    if command in ("verify", "series"):
        ok = payload.get("pass") is True
    elif command == "antipode":
        cc = payload.get("cross_check", {})
        ok = cc.get("agree") is True and cc.get("convolution_identity") is True
    elif command == "idempotents":
        checks = payload.get("checks", {})
        ok = all(v is True for k, v in checks.items() if k != "decomposition_ranks")
        ok = ok and all(e["rank"] == e["expected"] for e in checks.get("decomposition_ranks", ()))
    elif command == "primitive":
        _, model, n = request.split()
        known = KNOWN_PRIMITIVE_DIMS[(model, int(n))]
        ok = all(v == known for v in payload.values()) and len(payload) == 3
    else:
        return f"no verdict rule for {command!r}"
    return None if ok else "false verdict"


def check(request, exit_code, payload, expected):
    """Failure reason for one completed request, or None when it is correct.

    Every request in the workloads is expected to exit 0, return a true
    verdict and reproduce the payload digest recorded in expected.json."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    reason = verdict_failure(request, payload)
    if reason:
        return reason
    if request not in expected:
        return "no recorded digest"
    if digest(payload) != expected[request]:
        return "payload digest mismatch"
    return None
