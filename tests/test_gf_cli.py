"""Generating-function transforms and the command-line interface."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from species_forge import build_model
from species_forge.cli import main
from species_forge.gf import (
    binomial_transform,
    boolean_transform,
    log_egf,
    sequence_transform_report,
    series_multiply,
)


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


def test_cli_zero_denominator_q_is_usage_error(capsys):
    _assert_usage_error(capsys, ["verify", "Sigmaq:1/0", "2"])


def test_cli_negative_degree_is_usage_error(capsys):
    _assert_usage_error(capsys, ["verify", "Pi", "-1"])
    _assert_usage_error(capsys, ["antipode", "L", "-2"])


def test_cli_bad_degree_override_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SPECIES_FORGE_MAX_N", "x")
    _assert_usage_error(capsys, ["verify", "E", "2"])


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


def test_cli_gf(capsys):
    assert main(["gf", "L", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["boolean_transform"][:5] == ["1", "1", "3", "13", "71"]


def test_cli_gf_not_hopf(capsys):
    assert main(["gf", "SigmaHat:3", "2"]) == 3
    assert "is not a Hopf monoid" in capsys.readouterr().err


def test_cli_idempotents(capsys):
    assert main(["idempotents", "3", "--check-orthogonality"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["orthogonality"] is True
    assert payload["checks"]["completeness"] is True
    assert payload["tables"]["euler1"]["012"] == "1"


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


def test_cli_dump(capsys):
    assert main(["dump", "E", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unit"] == ""
    assert {"S": "01", "T": "", "x": "01", "y": "", "out": {"01": "1"}} in payload["product"]


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
