"""Generating-function transforms and the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge import build_model
from species_forge import cli
from species_forge.cli import main
from species_forge.gf import (
    binomial_transform,
    boolean_transform,
    log_egf,
    sequence_transform_report,
    series_multiply,
)
from species_forge.species import sweep_instances


def poly_inverse_oracle(dims, nterms):
    """Brute-force inversion: multiply out a candidate until it matches."""
    inv = [Fraction(1)]
    for n in range(1, nterms):
        # choose inv[n] so the n-th coefficient of dims*inv vanishes
        acc = sum(Fraction(dims[k]) * inv[n - k] for k in range(1, n + 1) if n - k < len(inv))
        inv.append(-acc)
    return inv


def test_boolean_transform_checkpoint():
    dims = [1, 1, 2, 6, 24, 120]
    bt = boolean_transform(dims)
    assert bt[:5] == [1, 1, 3, 13, 71]
    inv = poly_inverse_oracle(dims, 6)
    assert series_multiply(dims, inv) == [1, 0, 0, 0, 0, 0]
    assert bt == [-v for v in inv[1:]]


def test_binomial_transform_of_bell_numbers():
    bells = [1, 1, 2, 5, 15]
    bt = binomial_transform(bells)
    assert all(v >= 0 for v in bt)
    assert bt[0] == 1 and bt[1] == 0
    # alternating-sum definition, recomputed directly
    from math import comb

    for n in range(5):
        assert bt[n] == sum((-1) ** (n - k) * comb(n, k) * bells[k] for k in range(n + 1))


def test_log_egf_of_exponential_model():
    assert log_egf([1, 1, 1, 1]) == [1, 0, 0]


def test_type_sequences():
    report = sequence_transform_report(build_model("Pi"), 5)
    # orbit counts on partitions are integer partitions
    assert report["type_dims"] == [1, 1, 2, 3, 5, 7]
    assert report["type_ratio_nonneg"]
    assert report["type_weakly_increasing"]
    report = sequence_transform_report(build_model("L"), 4)
    assert report["type_dims"] == [1, 1, 1, 1, 1]
    report = sequence_transform_report(build_model("E"), 4)
    assert report["type_dims"] == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("name,nmax", [("E", 6), ("L", 6), ("Pi", 6), ("Sigma", 6), ("G", 4)])
def test_all_transform_verdicts(name, nmax):
    report = sequence_transform_report(build_model(name), nmax)
    assert report["boolean_nonneg"]
    assert report["binomial_nonneg"]
    assert report["log_egf_nonneg"]
    if report["model"] in ("E", "L", "Pi", "Sigma", "G"):
        assert report.get("type_ratio_nonneg", True)
        assert report.get("type_weakly_increasing", True)


# ---------------------------------------------------------------------------
# CLI contract


def test_cli_verify_pass(capsys):
    assert main(["verify", "Pi", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "species-forge/1"
    assert payload["pass"] is True


def test_cli_verify_not_hopf_advisory(capsys):
    assert main(["verify", "SigmaHat:3", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["advisory"] == ["not-hopf"]


def test_cli_verify_hadamard_of_non_connected_factors(capsys):
    # the Hadamard unit is the pair of units, its counit the product of counits
    for spec in ("had:SigmaHat:2,L", "had:SigmaHat:1,SigmaHat:1"):
        assert main(["verify", spec, "2"]) == 0, spec
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_cli_budget_guard(capsys):
    assert main(["verify", "G", "5"]) == 2
    assert main(["verify", "SigmaHat:3", "4"]) == 2


def test_cli_unknown_model():
    assert main(["verify", "Bogus", "2"]) == 2


def _assert_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "Traceback" not in err
    return err


def test_cli_zero_denominator_q_is_usage_error(capsys):
    _assert_usage_error(capsys, ["verify", "Sigmaq:1/0", "2"])


def test_cli_negative_degree_is_usage_error(capsys):
    _assert_usage_error(capsys, ["verify", "Pi", "-1"])
    _assert_usage_error(capsys, ["antipode", "L", "-2"])


def test_cli_bad_degree_override_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SPECIES_FORGE_MAX_N", "x")
    _assert_usage_error(capsys, ["verify", "E", "2"])


def test_cli_exponent_form_q_is_bounded(capsys):
    # Fraction would expand 10^999999999 into a billion-digit integer
    _assert_usage_error(capsys, ["verify", "Lq:1e999999999", "1"])
    _assert_usage_error(capsys, ["verify", "Sigma", "1", "--q", "1e-999999999"])


def test_cli_sigmahat_block_budget(capsys, monkeypatch):
    # SigmaHat:1000 has 250500250000 keys in degree 3
    for argv in (["verify", "SigmaHat:4", "3"], ["dump", "SigmaHat:1000", "3"],
                 ["verify", "dual:SigmaHat:9", "1"]):
        _assert_usage_error(capsys, argv)
    monkeypatch.setenv("SPECIES_FORGE_MAX_N", "4")
    assert main(["dump", "SigmaHat:4", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "SigmaHat:4"


def test_cli_sweep_budget(capsys, monkeypatch):
    # A Hadamard product keeps its factors' degree budget, but its components
    # are products of theirs, so its sweep outgrows Sigma's at degree 5.
    refused = [["verify", "had:L,Pi", "5"], ["verify", "had:Pi,Pi", "5"],
               ["antipode", "had:L,L", "5", "H", "takeuchi"],
               ["antipode", "had:Pi,Sigma", "5", "H", "mm-left"], ["dump", "had:L,L", "5"]]
    for argv in refused:
        _assert_usage_error(capsys, argv)
    assert cli.SWEEP_MAX_INSTANCES == sweep_instances(build_model("Sigma"), 5)
    # accepted pins are checked without running them
    accepted = [("had:E,Sigma", 5), ("had:L,E", 5), ("had:L,L", 4), ("had:Sigma,Sigma", 4),
                ("had:L,G", 4), ("had:G,G", 4), ("had:Pi,Sigma", 4)]
    for name in ("E", "L", "Lq:2", "Pi", "Sigma", "Sigmaq:2", "Q:Pi", "Q:Sigma"):
        accepted += [(name, 5), (f"dual:{name}", 5)]
    accepted += [("G", 4), ("dual:G", 4), ("Q:G", 4), ("SigmaHat:3", 3), ("dual:SigmaHat:3", 3)]
    for name, n in accepted:
        cli._check_budget(name, build_model(name), n)
    with pytest.raises(cli.UsageError, match="SPECIES_FORGE_MAX_N=5"):
        cli._check_budget("had:L,Pi", build_model("had:L,Pi"), 5)
    monkeypatch.setenv("SPECIES_FORGE_MAX_N", "5")
    cli._check_budget("had:L,Pi", build_model("had:L,Pi"), 5)


def test_cli_closed_stdout_is_not_a_traceback():
    # the payload of dump Sigma 4 (about 178 kB) overflows the pipe buffer,
    # so the reader closes the pipe while the command is still writing
    proc = subprocess.Popen([sys.executable, "-m", "species_forge.cli", "dump", "Sigma", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err


def test_cli_decomposition_model_is_validated(capsys):
    _assert_usage_error(capsys, ["idempotents", "3", "--check-decomposition", "Bogus"])
    _assert_usage_error(capsys, ["idempotents", "5", "--check-decomposition", "G"])


def test_cli_antipode_table(capsys):
    assert main(["antipode", "Pi", "2", "H", "takeuchi", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "01: 2*0.1 - 01" in out


def test_cli_antipode_closed_l(capsys):
    assert main(["antipode", "L", "3", "H", "closed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"]["0|1|2"] == {"2|1|0": "-1"}


def test_cli_antipode_cross_check(capsys):
    assert main(["antipode", "Pi", "2", "H", "takeuchi", "--cross-check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cross_check"]["agree"] is True
    assert payload["cross_check"]["convolution_identity"] is True


def test_cli_antipode_q_flag(capsys):
    assert main(["antipode", "L", "2", "H", "closed", "--q", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "Lq:2"
    assert payload["columns"]["0|1"] == {"1|0": "2"}


def test_cli_antipode_not_hopf():
    assert main(["antipode", "SigmaHat:2", "2", "H", "takeuchi"]) == 3


def test_cli_boundary_inputs_end_in_exit_codes(capsys):
    for argv in (["antipode", "dual:L", "2", "Q", "takeuchi"],
                 ["antipode", "had:L,L", "2", "Q", "takeuchi"],
                 ["idempotents", "2", "--check-decomposition", "Q:dual:Sigma"],
                 ["antipode", "E", "2", "Q", "takeuchi"],
                 ["antipode", "Lq:2", "2", "Q", "closed"]):
        _assert_usage_error(capsys, argv)
    assert main(["series", "exp-log", "--model", "SigmaHat:2", "--nmax", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_gf(capsys):
    assert main(["gf", "L", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["boolean_transform"][:5] == ["1", "1", "3", "13", "71"]


def test_cli_gf_not_hopf(capsys):
    assert main(["gf", "SigmaHat:3", "2"]) == 3
    assert "is not a Hopf monoid" in capsys.readouterr().err


def test_cli_gf_budget(capsys):
    # orbit counting would enumerate 12!, 2^21 keys; degree 61 has no masks
    for argv in (["gf", "L", "12"], ["gf", "G", "7"], ["gf", "E", "61"]):
        _assert_usage_error(capsys, argv)


def test_cli_gf_dimensions_only_for_linearized_models(capsys):
    assert main(["gf", "dual:L", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"][12] == "479001600"
    assert "type_dims" not in payload


def test_cli_gf_budget_override(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GF_MAX_KEYS", 100)
    _assert_usage_error(capsys, ["gf", "L", "6"])
    monkeypatch.setenv("SPECIES_FORGE_MAX_N", "6")
    assert main(["gf", "L", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["type_dims"][6] == "1"


def test_cli_idempotents(capsys):
    assert main(["idempotents", "3", "--check-orthogonality"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["orthogonality"] is True
    assert payload["checks"]["completeness"] is True
    assert payload["tables"]["euler1"]["012"] == "1"


def test_cli_idempotents_orthogonality_detects_a_scaled_idempotent(capsys, monkeypatch):
    # 2E is not idempotent: its square is 4E, so a check that always
    # passed would show here
    full = cli.full_mask(3)
    doubled = cli.partitions_of(full)[1]
    gr = cli.garsia_reutenauer
    monkeypatch.setattr(cli, "garsia_reutenauer",
                        lambda X, n: gr(X, n).scale(2) if X == doubled else gr(X, n))
    assert main(["idempotents", "3", "--check-orthogonality"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["orthogonality"] is False


def test_cli_idempotents_decomposition(capsys):
    assert main(["idempotents", "3", "--check-decomposition", "L"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["decomposition"] is True


def test_cli_series_ops(capsys):
    assert main(["series", "log-uni", "--nmax", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equals_euler"] is True
    assert main(["series", "exp-log", "--model", "Pi", "--nmax", "3"]) == 0
    assert main(["series", "power-laws", "--nmax", "3"]) == 0


def test_cli_sigma_only_series_ops_refuse_other_models(capsys):
    for argv in (["series", "power-laws", "--model", "L", "--nmax", "2"],
                 ["series", "log-uni", "--model", "dual:Sigma", "--nmax", "2"],
                 ["series", "log-uni", "--q", "2", "--nmax", "2"],
                 ["series", "power-laws", "--model", "Sigma", "--q", "2", "--nmax", "2"]):
        _assert_usage_error(capsys, argv)
    assert main(["series", "power-laws", "--model", "Sigma", "--nmax", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_cli_table_format_and_out_go_through_one_writer(tmp_path, capsys):
    table = tmp_path / "verify.txt"
    assert main(["verify", "E", "2", "--format", "table", "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert table.read_text().splitlines()[0].startswith("E n=0: pass ")
    table = tmp_path / "antipode.txt"
    assert main(["antipode", "Pi", "2", "H", "takeuchi", "--format", "table",
                 "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert "01: 2*0.1 - 01" in table.read_text()
    # only verify and antipode have a table view
    for argv in (["dump", "E", "0"], ["gf", "E", "2"], ["idempotents", "2"],
                 ["series", "log-uni"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "table"])
        assert exc.value.code == 2, argv


def test_cli_dump(capsys):
    assert main(["dump", "E", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit"] == ""
    assert {"S": "01", "T": "", "x": "01", "y": "", "out": {"01": "1"}} in payload["product"]
    # a unit of several keys is written as a linear combination
    assert main(["dump", "dual:SigmaHat:1", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["unit"] == {"": "1", "|": "1"}


def test_cli_dual_and_hadamard_keys_are_in_the_wire_format(capsys):
    # a dual key is written as its primal's, a Hadamard key as its factors'
    # joined by &
    assert main(["antipode", "dual:Sigma", "2", "H", "takeuchi"]) == 0
    assert json.loads(capsys.readouterr().out)["columns"]["0|1"] == {"01": "1", "1|0": "1"}
    assert main(["antipode", "had:L,Pi", "2", "H", "takeuchi"]) == 0
    columns = json.loads(capsys.readouterr().out)["columns"]
    assert sorted(columns) == ["0|1&0.1", "0|1&01", "1|0&0.1", "1|0&01"]
    assert columns["0|1&0.1"] == {"1|0&0.1": "1"}
    assert main(["dump", "had:E,dual:Pi", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit"] == "&"
    assert payload["coproduct"][0]["out"] == {"&(x)0&0": "1"}


# each flag spelling, and a flag repeating its positional value, gives the
# positional spelling's stdout
@pytest.mark.parametrize("positional, flags", [
    ("verify Pi 2", "verify --model Pi --nmax 2"),
    ("verify Pi 2", "verify Pi 2 --nmax 2"),
    ("antipode Pi 2 Q closed", "antipode --model Pi --n 2 --basis Q --method closed"),
    ("antipode Pi 2 H mm-left", "antipode Pi 2 H mm-left --model Pi --method mm-left"),
    ("idempotents 2", "idempotents --n 2"),
    ("gf L 3", "gf L --nmax 3"),
    ("dump E 1", "dump E --n 1"),
    ("series log-uni --nmax 2", "series --op log-uni --nmax 2"),
    # a degree after --model is the degree, not the model
    ("verify Pi 2", "verify --model Pi 2"),
    ("gf L 6", "gf --model L 6"),
    ("dump E 2", "dump --model E 2"),
    ("antipode Pi 2 H closed", "antipode --model Pi 2 H closed"),
    # a positional after an interleaved flag
    ("verify Pi 2", "verify Pi --model Pi 2"),
    # argparse reads every flag: abbreviations, --flag=value, and --
    ("verify Pi 2", "verify --mod Pi 2"),
    ("verify Pi 2", "verify --model=Pi --nmax=2"),
    ("antipode Pi 2 H closed", "antipode --method closed --basis H --n 2 --model Pi"),
    ("idempotents 2", "idempotents --n=2"),
    ("verify Pi 2", "verify -- Pi 2"),
])
def test_cli_flag_spellings(capsys, positional, flags):
    assert main(positional.split()) == 0
    expected = capsys.readouterr().out
    assert main(flags.split()) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, values", [
    ("verify Pi 2 --model L", ("Pi", "L")),
    ("verify Pi 2 --nmax 3", ("2", "3")),
    ("antipode Pi 2 H closed --n 3", ("2", "3")),
    ("antipode Pi 2 H closed --basis Q", ("H", "Q")),
    ("antipode Pi 2 H closed --method takeuchi", ("closed", "takeuchi")),
    ("series log-uni --op power-laws", ("log-uni", "power-laws")),
])
def test_cli_conflicting_spellings_are_usage_errors(capsys, argv, values):
    err = _assert_usage_error(capsys, argv.split())
    assert all(v in err for v in values), err


@pytest.mark.parametrize("argv", ["verify Pi", "antipode Pi", "series"])
def test_cli_missing_arguments_are_usage_errors(capsys, argv):
    _assert_usage_error(capsys, argv.split())


# an extra word, a word that does not convert, and a word in a slot whose
# flag holds another value (H lands in the model slot)
@pytest.mark.parametrize("argv", ["verify Pi 2 3", "verify Pi x", "antipode Pi 2 X",
                                  "antipode --model Pi --n 2 H closed"])
def test_cli_bad_slot_words_exit_2(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse's own exit
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_unwritable_out_is_usage_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        err = _assert_usage_error(capsys, ["verify", "E", "2", "--out", str(out)])
        assert str(out) in err


def test_cli_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "Sigma", "2", "--out", str(a)]) == 0
    assert main(["verify", "Sigma", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert main(["antipode", "Sigma", "3", "H", "takeuchi", "--out", str(c)]) == 0
    assert main(["antipode", "Sigma", "3", "H", "takeuchi", "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "species_forge.cli", "verify", "E", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


# every input of the grammar below ends in a documented exit code

Q_STRINGS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from(["", "x", "1/0", "1e999999999", "1e-999999999"]))
BASE_MODELS = st.one_of(
    st.sampled_from(["E", "L", "Pi", "G", "Sigma", "SigmaHat:0", "SigmaHat:2",
                     "SigmaHat:x", "Bogus", ""]),
    st.builds(str.__add__, st.sampled_from(["Lq:", "Sigmaq:"]), Q_STRINGS))


def _models(depth):
    if depth == 0:
        return BASE_MODELS
    inner = _models(depth - 1)
    return st.one_of(
        BASE_MODELS,
        st.builds("dual:{}".format, inner),
        st.builds("Q:{}".format, inner),
        st.builds("had:{},{}".format, inner, inner))


MODELS = _models(2)
DEGREES = st.integers(-1, 2).map(str)
FORMAT = st.sampled_from([[], ["--format", "table"]])
MISSING_DIR_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "no-such-directory", "out.json")
# --n and --op have no unambiguous abbreviation (--op beside --out)
ABBREVIATIONS = {"model": "--mod", "nmax": "--nm", "n": "--n", "basis": "--ba",
                 "method": "--met", "op": "--op"}


@st.composite
def slot_words(draw, slots):
    """Each (slot, value) as a positional word, as --slot v, as --slot=v, or
    under an abbreviated flag; the positional words in slot order."""
    positional, flags = [], []
    for slot, value in slots:
        spelling = draw(st.sampled_from(["word", "flag", "flag=", "abbreviated"]))
        if spelling == "word":
            positional.append(value)
        elif spelling == "flag=":
            flags.append(f"--{slot}={value}")
        else:
            flags += [ABBREVIATIONS[slot] if spelling == "abbreviated" else f"--{slot}", value]
    return positional + flags


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(["verify", "antipode", "gf", "idempotents",
                                    "series", "dump"]))
    if command == "idempotents":
        argv = [command] + draw(slot_words([("n", draw(DEGREES))]))
        if draw(st.booleans()):
            argv.append("--check-orthogonality")
        if draw(st.booleans()):
            argv += ["--check-decomposition", draw(MODELS)]
    elif command == "series":
        op = draw(st.sampled_from(["log-uni", "exp-log", "power-laws", "bogus"]))
        argv = [command] + draw(slot_words([("op", op)]))
        argv += ["--model", draw(MODELS), "--nmax", draw(DEGREES)]
    else:
        slots = [("model", draw(MODELS)), ("nmax" if command in ("verify", "gf") else "n",
                                           draw(DEGREES))]
        if command == "antipode":
            slots += [("basis", draw(st.sampled_from(["H", "Q"]))),
                      ("method", draw(st.sampled_from(["takeuchi", "mm-left", "mm-right",
                                                       "closed"])))]
        argv = [command] + draw(slot_words(slots))
        if command == "antipode" and draw(st.booleans()):
            argv.append("--cross-check")
    if command != "idempotents" and draw(st.sampled_from([False, False, False, True])):
        argv += ["--q", draw(Q_STRINGS)]
    if draw(st.sampled_from([False, False, False, True])):
        argv += ["--out", MISSING_DIR_OUT]
    return argv + draw(FORMAT)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(cli_inputs())
def test_cli_inputs_end_in_documented_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
