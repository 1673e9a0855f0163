"""Command-line front end.

Subcommands: verify (axiom suite), antipode (tables, with optional
cross-checking of every method), gf (dimension-sequence transforms),
idempotents (coefficient tables and structural checks), series (round-trip
reports), dump (structure constants).

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 unsupported
structure.  Output is deterministic: canonical basis orders, sorted keys.
"""

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction

from . import graphs
from .antipode import METHODS, antipode_families, has_closed_form, verify_antipode
from .exactlin import lc_sum, rational_str
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
from .setcomb import (
    MAX_DEGREE,
    encode_comp,
    encode_dec,
    encode_partition,
    full_mask,
    partitions_of,
    submasks,
)
from .species import DualModel, HadamardModel, NotHopfError, run_axiom_suite, sweep_instances
from .titsops import (
    TitsElement,
    dynkin,
    euler_first,
    eulerian_decomposition,
    garsia_reutenauer,
    h_power,
    tits_left_products,
    tits_unit,
)

SCHEMA = "species-forge/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

GF_MAX_KEYS = 10 ** 6  # basis keys gf may enumerate to count types
SIGMAHAT_MAX_BLOCKS = 3  # SigmaHat:<k> with more blocks needs SPECIES_FORGE_MAX_N >= k
# sweep_instances(Sigma, 5); more needs SPECIES_FORGE_MAX_N >= n.  It sizes the
# worst case, the sweep that verify runs for a model failing a bimonoid axiom
SWEEP_MAX_INSTANCES = 2435041


class UsageError(Exception):
    pass


def key_encoder(model, n):
    """Text encoding of basis keys, chosen by model family.  A dual reuses
    its primal's keys and encoding; a Hadamard key is its factors' keys
    joined by `&`, which no other encoding uses."""
    if isinstance(model, DualModel):
        return key_encoder(model.primal, n)
    if isinstance(model, HadamardModel):
        left, right = key_encoder(model.left, n), key_encoder(model.right, n)
        return lambda k: f"{left(k[0])}&{right(k[1])}"
    family = model.family
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


def _encoded_terms(lc, enc):
    """(encoded key, coefficient) pairs sorted by the encoded key, each key
    encoded once."""
    return sorted(((enc(k), c) for k, c in lc.terms.items()), key=lambda kv: kv[0])


def lincomb_json(lc, enc):
    return {label: rational_str(c) for label, c in _encoded_terms(lc, enc)}


def lincomb_text(lc, enc):
    if not lc.terms:
        return "0"
    bits = []
    for label, c in _encoded_terms(lc, enc):
        coef = rational_str(c)
        label = label or "()"
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
    if args.q is not None:
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


def _max_n_override():
    """The degree set by SPECIES_FORGE_MAX_N, or -1 when it is unset."""
    override = os.environ.get("SPECIES_FORGE_MAX_N")
    if not override:
        return -1
    try:
        return int(override)
    except ValueError:
        raise UsageError(f"SPECIES_FORGE_MAX_N must be an integer, not {override!r}") from None


def _check_budget(name, model, n):
    """The degree budget of the spec `name`; the block budget of SigmaHat:
    SigmaHat:<k> has k + 1 degree-0 keys, and a model with more than
    SigmaHat:3's 4 (a larger k, or a Hadamard product of SigmaHat factors)
    is refused; and the sweep budget: a model whose full higher-compatibility
    sweep at degree n has more instances than Sigma's at degree 5 (a
    Hadamard product, whose components are products of its factors') is
    refused.  That is the worst case: verify runs the sweep only for a model
    that fails a bimonoid axiom.  SPECIES_FORGE_MAX_N lifts all three."""
    override = _max_n_override()
    cap = max(degree_budget(name), override)
    if n > cap:
        raise UsageError(f"degree {n} exceeds the budget {cap} for {name}")
    blocks = model.dim(0) - 1
    if blocks > max(SIGMAHAT_MAX_BLOCKS, override):
        raise UsageError(f"{name} has {blocks + 1} degree-0 keys, over the "
                         f"{SIGMAHAT_MAX_BLOCKS + 1} of SigmaHat:{SIGMAHAT_MAX_BLOCKS}; "
                         f"set SPECIES_FORGE_MAX_N={blocks} to run it")
    if n > override and (size := sweep_instances(model, n)) > SWEEP_MAX_INSTANCES:
        raise UsageError(f"{name} at degree {n} has {size} sweep instances, over the "
                         f"{SWEEP_MAX_INSTANCES} of Sigma at degree 5; "
                         f"set SPECIES_FORGE_MAX_N={n} to run it")


def _write(text):
    """Print to stdout.  A reader that closes the pipe early (`| head`) ends
    the output, not the command: stdout then points at devnull, so the
    interpreter's final flush cannot raise again."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_out(path):
    """Refuse an --out that cannot be written before the work starts: a
    directory, a missing directory, or no write permission.  The file is not
    opened, so a run that fails later leaves an existing file as it was."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(folder):
        err = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        err = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write --out {path}: {os.strerror(err)}")


def _emit(payload, args, table=None):
    """Write the command's output: under --format table the text that
    table() builds, else the JSON payload; to the file named by --out, else
    to stdout."""
    if getattr(args, "format", "json") == "table":
        text = table()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        _write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    name, model = _build(args)
    nmax = args.nmax
    _check_budget(name, model, nmax)
    reports = run_axiom_suite(model, nmax)
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
    _emit(payload, args, lambda: "\n".join(
        f"{name} n={r.degree}: {'pass' if r.ok() else 'FAIL'} " +
        " ".join(f"{a}={c}" for a, c in sorted(r.counts().items())) for r in reports))
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def cmd_antipode(args):
    name, model = _build(args)
    n = args.n
    _check_budget(name, model, n)
    if not model.connected:
        raise NotHopfError(f"{name} is not a Hopf monoid")
    if args.method == "closed" and not has_closed_form(model):
        raise UsageError(f"no closed antipode form registered for {name}")
    checked = model if args.basis == "H" else q_view(model)
    methods = [args.method]
    if args.cross_check:
        methods = ["takeuchi", "mm-left", "mm-right"]
        if has_closed_form(model) or (args.basis == "Q"):
            methods.append("closed")
    fams = antipode_families(checked, n, methods)
    table = fams[args.method][n]
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
        agree = all(fams[m][n] == table for m in methods)
        conv_ok = not verify_antipode(checked, {**fams["takeuchi"], n: table}, n)
        payload["cross_check"] = {"methods": methods, "agree": agree,
                                  "convolution_identity": conv_ok}
        if not (agree and conv_ok):
            status = EXIT_FAIL
    _emit(payload, args, lambda: "\n".join(f"{enc(k) or '()'}: {lincomb_text(table(k), enc)}"
                                            for k in table.domain))
    return status


def cmd_gf(args):
    name, model = _build(args)
    nmax = args.nmax
    if nmax > MAX_DEGREE:
        raise UsageError(f"degree {nmax} exceeds the maximum degree {MAX_DEGREE}")
    if not model.connected:
        raise NotHopfError(f"{name} is not a Hopf monoid")
    # orbit counting enumerates every degree-nmax key of a set-theoretic model
    if model.set_theoretic and nmax > _max_n_override() and model.dim(nmax) > GF_MAX_KEYS:
        raise UsageError(f"type counts of {name} at degree {nmax} would enumerate "
                         f"{model.dim(nmax)} keys, over {GF_MAX_KEYS}; "
                         f"set SPECIES_FORGE_MAX_N={nmax} to run them")
    report = sequence_transform_report(model, nmax)
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
    _check_budget("Sigma", build_model("Sigma"), n)
    model = None
    if args.check_decomposition:
        model = _build_named(args.check_decomposition)
        _check_budget(args.check_decomposition, model, n)
    parts = partitions_of(full_mask(n))
    grs = {X: garsia_reutenauer(X, n) for X in parts}
    payload = {"schema": SCHEMA, "command": "idempotents", "n": n, "tables": {}}
    enc = functools.cache(encode_comp)  # per command, so no cache outlives it
    payload["tables"]["euler1"] = lincomb_json(euler_first(n).coeffs, enc)
    payload["tables"]["dynkin"] = lincomb_json(dynkin(n).coeffs, enc)
    for p in (2, -1):
        payload["tables"][f"h_power:{p}"] = lincomb_json(h_power(p, n).coeffs, enc)
    for k in range(1, n + 1):  # euler_higher(k, n), from the idempotents built above
        payload["tables"][f"euler:{k}"] = lincomb_json(
            lc_sum([grs[X].coeffs for X in parts if len(X) == k]), enc)
    for X in parts:
        payload["tables"][f"gr:{encode_partition(X)}"] = lincomb_json(grs[X].coeffs, enc)
    checks = {}
    failed = False
    if args.check_orthogonality:
        zero, ys = TitsElement(n, {}), list(grs.values())  # every E_Y a column of each E_X's walk
        ortho = all(product == (grs[X] if X == Y else zero)
                    for X, products in zip(parts, tits_left_products(ys, ys))
                    for Y, product in zip(parts, products))
        complete = sum(ys, zero) == tits_unit(n)
        checks["orthogonality"] = ortho
        checks["completeness"] = complete
        failed = failed or not (ortho and complete)
    if model is not None:
        rep = eulerian_decomposition(model, n, grs)
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
    sigma_only = op in ("log-uni", "power-laws")
    if sigma_only and (args.q is not None or args.model not in (None, "Sigma")):
        raise UsageError(f"series {op} runs on Sigma only; it takes no --q and no other --model")
    if op == "log-uni":
        model = build_model("Sigma")
        _check_budget("Sigma", model, nmax)
        uni = uni_series(model, nmax)
        logu = log_series(uni)
        ok = logu == euler_series(model, nmax)
        payload["components"] = {
            str(m): lincomb_json(logu.comps[m], encode_comp) for m in range(nmax + 1)}
        payload["equals_euler"] = ok
    elif op == "exp-log":
        name, model = _build(args)
        _check_budget(name, model, nmax)
        rep = exp_log_bijection_check(model, nmax)
        payload["report"] = rep["cases"]
        payload["model"] = name
        ok = rep["ok"]
    elif op == "power-laws":
        model = build_model("Sigma")
        _check_budget("Sigma", model, nmax)
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
    _check_budget(name, model, n)
    enc = key_encoder(model, n)
    unit = lincomb_json(model.unit(), enc)  # one key with coefficient 1 prints as that key
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
        "unit": next(iter(unit)) if list(unit.values()) == ["1"] else unit,
        "counit": {enc(k): rational_str(model.counit(k)) for k in model.basis_on(0)},
        "product": product,
        "coproduct": coproduct,
    }
    _emit(payload, args)
    return EXIT_PASS


# ---------------------------------------------------------------------------


# Each command's positional slots, in order, with the converter or the
# choices of each.  A slot is filled by its positional word or by its
# --<slot> flag (`_fill_slots`).
SLOTS = {
    "verify": {"model": str, "nmax": int},
    "antipode": {"model": str, "n": int, "basis": ("H", "Q"), "method": METHODS},
    "gf": {"model": str, "nmax": int},
    "idempotents": {"n": int},
    "series": {"op": str},
    "dump": {"model": str, "n": int},
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="species-forge",
        description="Exact computations in Hopf monoids on set-indexed components",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fn, about in (
            ("verify", cmd_verify, "run the axiom suite"),
            ("antipode", cmd_antipode, "antipode tables"),
            ("gf", cmd_gf, "dimension-sequence transforms"),
            ("idempotents", cmd_idempotents, "idempotent tables and checks"),
            ("series", cmd_series, "series calculus reports"),
            ("dump", cmd_dump, "structure-constant dump")):
        slots = SLOTS[command]
        p = sub.add_parser(command, help=about,
                           usage=f"%(prog)s {' '.join(slots)} [options]")
        for slot, kind in slots.items():
            p.add_argument(f"--{slot}", **{"type" if callable(kind) else "choices": kind})
        if command != "idempotents":
            p.add_argument("--q")
        p.add_argument("--out")
        p.set_defaults(fn=fn)
    for command in ("verify", "antipode"):
        sub.choices[command].add_argument("--format", choices=("json", "table"), default="json")
    sub.choices["antipode"].add_argument("--cross-check", action="store_true")
    p = sub.choices["idempotents"]
    p.add_argument("--check-orthogonality", action="store_true")
    p.add_argument("--check-decomposition", metavar="MODEL")
    p = sub.choices["series"]
    p.add_argument("--model")
    p.add_argument("--nmax", type=int, default=3)
    parser.commands = sub.choices
    return parser


def _is_int(word):
    return word.removeprefix("-").isdigit()


def _fill_slots(p, args, words):
    """Fill the command's slots from the words argparse left over, in order.
    A flag may repeat its positional only with the same value.  A model name
    is never an integer, so when --model is given an integer first word
    fills the slot after the model's (`verify --model Pi 2`).  basis
    defaults to H and method to takeuchi; every other slot is required, and
    a degree must be >= 0.  A word that looks like an option and comes
    before `--` is one that argparse did not know, and it exits as argparse
    does."""
    cut = words.index("--") if "--" in words else len(words)
    for word in words[:cut]:
        if word.startswith("-") and not _is_int(word):
            p.error(f"unrecognized arguments: {word}")
    words = words[:cut] + words[cut + 1:]
    slots = dict(SLOTS[args.command])
    if "model" in slots and args.model is not None and words and _is_int(words[0]):
        del slots["model"]
    if len(words) > len(slots):
        p.error(f"unrecognized arguments: {' '.join(words[len(slots):])}")
    for (slot, kind), word in zip(slots.items(), words):
        if not callable(kind) and word not in kind:
            p.error(f"argument {slot}: invalid choice: {word!r} "
                    f"(choose from {', '.join(map(repr, kind))})")
        try:
            value = kind(word) if callable(kind) else word
        except ValueError:
            p.error(f"argument {slot}: invalid {kind.__name__} value: {word!r}")
        if getattr(args, slot) not in (None, value):
            raise UsageError(f"{slot} given as {value} and as --{slot} {getattr(args, slot)}")
        setattr(args, slot, value)
    defaults = {"basis": "H", "method": "takeuchi"}
    for slot in SLOTS[args.command]:
        if getattr(args, slot) is None:
            if slot not in defaults:
                raise UsageError(f"{slot} is required")
            setattr(args, slot, defaults[slot])
    for degree in ("nmax", "n"):
        if (getattr(args, degree, None) or 0) < 0:
            raise UsageError(f"{degree} must be >= 0")


def main(argv=None):
    """Run one command; every error ends here in its exit code.  argparse
    reads the flags wherever they stand, and `_fill_slots` the rest."""
    parser = make_parser()
    args, words = parser.parse_known_args(sys.argv[1:] if argv is None else argv)
    try:
        _fill_slots(parser.commands[args.command], args, words)
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, UnknownModelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
