"""Command-line front end.

Subcommands: verify (axiom suite), antipode (tables, with optional
cross-checking of every method), gf (dimension-sequence transforms),
idempotents (coefficient tables and structural checks), series (round-trip
reports), dump (structure constants).

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 unsupported
structure.  Output is deterministic: canonical basis orders, sorted keys.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import graphs
from .antipode import METHODS, antipode, has_closed_form, verify_antipode
from .exactlin import rational_str
from .gf import sequence_transform_report
from .models import (
    UnknownModelError,
    build_model,
    degree_budget,
    q_view,
)
from .series import (
    cauchy,
    euler_series,
    exp_log_bijection_check,
    log_series,
    power_series,
    uni_series,
)
from .setcomb import encode_comp, encode_dec, encode_partition, full_mask, submasks
from .species import NotHopfError, run_axiom_suite
from .titsops import (
    TitsElement,
    dynkin,
    euler_first,
    euler_higher,
    eulerian_decomposition,
    garsia_reutenauer,
    h_power,
    tits_multiply,
    tits_unit,
)
from .setcomb import partitions_of

SCHEMA = "species-forge/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


class UsageError(Exception):
    pass


def key_encoder(model, n):
    """Text encoding of basis keys, chosen by model family."""
    family = getattr(model, "family", None)
    if family in ("Sigma", "QSigma", "L"):
        return encode_comp
    if family in ("Pi", "QPi"):
        return encode_partition
    if family == "SigmaHat":
        return encode_dec
    if family in ("G", "QG"):
        return lambda g: graphs.encode_graph(g, n)
    if family == "E":
        return lambda mask: encode_comp((mask,) if mask else ())
    return repr


def lincomb_json(lc, enc):
    return {enc(k): rational_str(c) for k, c in
            sorted(lc.terms.items(), key=lambda kv: enc(kv[0]))}


def lincomb_text(lc, enc):
    if not lc.terms:
        return "0"
    bits = []
    for k, c in sorted(lc.terms.items(), key=lambda kv: enc(kv[0])):
        coef = rational_str(c)
        label = enc(k) or "()"
        if coef == "1":
            bits.append(f"+ {label}")
        elif coef == "-1":
            bits.append(f"- {label}")
        elif c < 0:
            bits.append(f"- {rational_str(-c)}*{label}")
        else:
            bits.append(f"+ {coef}*{label}")
    text = " ".join(bits)
    return text[2:] if text.startswith("+ ") else text


def _build(args):
    name = args.model
    if name is None:
        raise UsageError("a model is required")
    if getattr(args, "q", None) is not None:
        if name == "L":
            name = f"Lq:{args.q}"
        elif name == "Sigma":
            name = f"Sigmaq:{args.q}"
        else:
            raise UsageError(f"--q applies to L and Sigma, not {name}")
    return name, _build_named(name)


def _build_named(name):
    try:
        return build_model(name)
    except (UnknownModelError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in the model {name!r}") from None


def _check_budget(name, n):
    cap = degree_budget(name)
    override = os.environ.get("SPECIES_FORGE_MAX_N")
    if override:
        try:
            cap = max(cap, int(override))
        except ValueError:
            raise UsageError(f"SPECIES_FORGE_MAX_N must be an integer, not {override!r}") from None
    if n > cap:
        raise UsageError(f"degree {n} exceeds the budget {cap} for {name}")


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    name, model = _build(args)
    nmax = args.nmax
    _check_budget(name, nmax)
    dec_blocks = getattr(model, "max_blocks", None)
    reports = run_axiom_suite(model, nmax, dec_blocks=dec_blocks)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "model": name,
        "nmax": nmax,
        "pass": all(r.ok() for r in reports),
        "reports": [
            {"degree": r.degree, "axioms": r.counts()} for r in reports
        ],
    }
    if not model.connected:
        payload["advisory"] = ["not-hopf"]
    if args.format == "table":
        for r in reports:
            status = "pass" if r.ok() else "FAIL"
            print(f"{name} n={r.degree}: {status} " +
                  " ".join(f"{a}={c}" for a, c in sorted(r.counts().items())))
    else:
        _emit(payload, args)
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def cmd_antipode(args):
    name, model = _build(args)
    n = args.n
    _check_budget(name, n)
    if not model.connected:
        print(f"error: {name} is not a Hopf monoid", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.method == "closed" and not has_closed_form(model):
        raise UsageError(f"no closed antipode form registered for {name}")
    try:
        table = antipode(model, n, args.method, args.basis)
    except NotHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    enc = key_encoder(model, n)
    payload = {
        "schema": SCHEMA,
        "command": "antipode",
        "model": name,
        "n": n,
        "basis": args.basis,
        "method": args.method,
        "columns": {enc(k): lincomb_json(table(k), enc) for k in table.domain},
    }
    status = EXIT_PASS
    if args.cross_check:
        methods = ["takeuchi", "mm-left", "mm-right"]
        if has_closed_form(model) or (args.basis == "Q"):
            methods.append("closed")
        tables = {m: table if m == args.method else antipode(model, n, m, args.basis)
                  for m in methods}
        agree = all(tables[m] == table for m in methods)
        checked = model if args.basis == "H" else q_view(model)
        conv_ok = not verify_antipode(checked, n, candidate=table)
        payload["cross_check"] = {"methods": methods, "agree": agree,
                                  "convolution_identity": conv_ok}
        if not (agree and conv_ok):
            status = EXIT_FAIL
    if args.format == "table":
        for k in table.domain:
            print(f"{enc(k) or '()'}: {lincomb_text(table(k), enc)}")
    else:
        _emit(payload, args)
    return status


def cmd_gf(args):
    name, model = _build(args)
    if not model.connected:
        print(f"error: {name} is not a Hopf monoid", file=sys.stderr)
        return EXIT_UNSUPPORTED
    report = sequence_transform_report(model, args.nmax)
    payload = {"schema": SCHEMA, "command": "gf"}
    for k, v in report.items():
        payload[k] = [str(x) for x in v] if isinstance(v, list) else v
    verdicts = [report.get("boolean_nonneg"), report.get("binomial_nonneg"),
                report.get("log_egf_nonneg"), report.get("type_ratio_nonneg", True),
                report.get("type_weakly_increasing", True)]
    _emit(payload, args)
    return EXIT_PASS if all(v is not False for v in verdicts) else EXIT_FAIL


def cmd_idempotents(args):
    n = args.n
    if n < 1:
        raise UsageError("idempotent tables need n >= 1")
    _check_budget("Sigma", n)
    model = None
    if args.check_decomposition:
        model = _build_named(args.check_decomposition)
        _check_budget(args.check_decomposition, n)
    parts = partitions_of(full_mask(n))
    payload = {"schema": SCHEMA, "command": "idempotents", "n": n, "tables": {}}
    enc = encode_comp
    payload["tables"]["euler1"] = lincomb_json(euler_first(n).coeffs, enc)
    payload["tables"]["dynkin"] = lincomb_json(dynkin(n).coeffs, enc)
    for p in (2, -1):
        payload["tables"][f"h_power:{p}"] = lincomb_json(h_power(p, n).coeffs, enc)
    for k in range(1, n + 1):
        payload["tables"][f"euler:{k}"] = lincomb_json(euler_higher(k, n).coeffs, enc)
    for X in parts:
        payload["tables"][f"gr:{encode_partition(X)}"] = lincomb_json(
            garsia_reutenauer(X, n).coeffs, enc)
    checks = {}
    failed = False
    if args.check_orthogonality:
        grs = {X: garsia_reutenauer(X, n) for X in parts}
        ortho = all(
            tits_multiply(grs[X], grs[Y]) == (grs[X] if X == Y else TitsElement(n, {}))
            for X in parts for Y in parts)
        complete = sum(grs.values(), TitsElement(n, {})) == tits_unit(n)
        checks["orthogonality"] = ortho
        checks["completeness"] = complete
        failed = failed or not (ortho and complete)
    if model is not None:
        rep = eulerian_decomposition(model, n)
        checks["decomposition"] = rep["ok"]
        checks["decomposition_ranks"] = [
            {"partition": encode_partition(e["partition"]), "rank": e["rank"],
             "expected": e["expected"]} for e in rep["entries"]]
        failed = failed or not rep["ok"]
    payload["checks"] = checks
    _emit(payload, args)
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_series(args):
    op = args.op
    nmax = args.nmax
    payload = {"schema": SCHEMA, "command": "series", "op": op, "nmax": nmax}
    ok = True
    if op == "log-uni":
        _check_budget("Sigma", nmax)
        model = build_model("Sigma")
        uni = uni_series(model, nmax)
        logu = log_series(uni)
        ok = logu == euler_series(model, nmax)
        payload["components"] = {
            str(m): lincomb_json(logu.comps[m], encode_comp) for m in range(nmax + 1)}
        payload["equals_euler"] = ok
    elif op == "exp-log":
        name, model = _build(args)
        _check_budget(name, nmax)
        rep = exp_log_bijection_check(model, nmax)
        payload["report"] = rep["cases"]
        payload["model"] = name
        ok = rep["ok"]
    elif op == "power-laws":
        _check_budget("Sigma", nmax)
        model = build_model("Sigma")
        uni = uni_series(model, nmax)
        cases = []
        for c in (Fraction(1, 2), Fraction(-1), Fraction(2)):
            for d in (Fraction(1, 2), Fraction(-1), Fraction(2)):
                good = cauchy(power_series(uni, c), power_series(uni, d)) == \
                    power_series(uni, c + d)
                cases.append({"c": str(c), "d": str(d), "ok": good})
                ok = ok and good
        payload["cases"] = cases
    else:
        raise UsageError(f"unknown series op {op!r}")
    payload["pass"] = ok
    _emit(payload, args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_dump(args):
    name, model = _build(args)
    n = args.n
    _check_budget(name, n)
    enc = key_encoder(model, n)
    full = full_mask(n)
    product = []
    coproduct = []
    for S in submasks(full):
        T = full ^ S
        for x in model.basis_on(S):
            for y in model.basis_on(T):
                product.append({
                    "S": encode_comp((S,) if S else ()),
                    "T": encode_comp((T,) if T else ()),
                    "x": enc(x), "y": enc(y),
                    "out": lincomb_json(model.product(S, T, x, y), enc),
                })
        for z in model.basis_on(full):
            coproduct.append({
                "S": encode_comp((S,) if S else ()),
                "T": encode_comp((T,) if T else ()),
                "z": enc(z),
                "out": {f"{enc(a)}(x){enc(b)}": rational_str(c)
                        for (a, b), c in sorted(
                            model.coproduct(S, T, z).terms.items(),
                            key=lambda kv: (enc(kv[0][0]), enc(kv[0][1])))},
            })
    payload = {
        "schema": SCHEMA,
        "command": "dump",
        "model": name,
        "n": n,
        "unit": enc(model.unit_key()),
        "counit": {enc(k): rational_str(model.counit(k)) for k in model.basis_on(0)},
        "product": product,
        "coproduct": coproduct,
    }
    _emit(payload, args)
    return EXIT_PASS


# ---------------------------------------------------------------------------


def make_parser():
    parser = argparse.ArgumentParser(
        prog="species-forge",
        description="Exact computations in Hopf monoids on set-indexed components",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("model", nargs="?", default=None)
            p.add_argument("--model", dest="model_flag", default=None)
            p.add_argument("--q", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("verify", help="run the axiom suite")
    common(p)
    p.add_argument("nmax", nargs="?", type=int, default=None)
    p.add_argument("--nmax", dest="nmax_flag", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("antipode", help="antipode tables")
    common(p)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("basis", nargs="?", choices=("H", "Q"), default=None)
    p.add_argument("method", nargs="?", choices=METHODS, default=None)
    p.add_argument("--n", dest="n_flag", type=int, default=None)
    p.add_argument("--basis", dest="basis_flag", choices=("H", "Q"), default=None)
    p.add_argument("--method", dest="method_flag", choices=METHODS, default=None)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("gf", help="dimension-sequence transforms")
    common(p)
    p.add_argument("nmax", nargs="?", type=int, default=None)
    p.add_argument("--nmax", dest="nmax_flag", type=int, default=None)
    p.set_defaults(fn=cmd_gf)

    p = sub.add_parser("idempotents", help="idempotent tables and checks")
    common(p, model=False)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("--n", dest="n_flag", type=int, default=None)
    p.add_argument("--check-orthogonality", action="store_true")
    p.add_argument("--check-decomposition", metavar="MODEL", default=None)
    p.set_defaults(fn=cmd_idempotents)

    p = sub.add_parser("series", help="series calculus reports")
    common(p, model=False)
    p.add_argument("op", nargs="?", default=None)
    p.add_argument("--op", dest="op_flag", default=None)
    p.add_argument("--model", dest="model", default=None)
    p.add_argument("--q", dest="q", default=None)
    p.add_argument("--nmax", dest="nmax", type=int, default=3)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("dump", help="structure-constant dump")
    common(p)
    p.add_argument("n", nargs="?", type=int, default=None)
    p.add_argument("--n", dest="n_flag", type=int, default=None)
    p.set_defaults(fn=cmd_dump)

    return parser


def _merge_flag(args, positional, flag):
    v = getattr(args, flag, None)
    if v is not None:
        setattr(args, positional, v)


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    _merge_flag(args, "model", "model_flag")
    _merge_flag(args, "nmax", "nmax_flag")
    _merge_flag(args, "n", "n_flag")
    _merge_flag(args, "basis", "basis_flag")
    _merge_flag(args, "method", "method_flag")
    _merge_flag(args, "op", "op_flag")
    if hasattr(args, "basis") and args.basis is None:
        args.basis = "H"
    if hasattr(args, "method") and args.method is None:
        args.method = "takeuchi"
    try:
        if getattr(args, "nmax", None) is None and args.command in ("verify", "gf"):
            raise UsageError("nmax is required")
        if getattr(args, "n", None) is None and args.command in ("antipode", "idempotents", "dump"):
            raise UsageError("n is required")
        if getattr(args, "op", None) is None and args.command == "series":
            raise UsageError("a series op is required")
        for degree in ("nmax", "n"):
            if (getattr(args, degree, None) or 0) < 0:
                raise UsageError(f"{degree} must be >= 0")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
