"""Command-line interface: grammar, exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys

import pytest

from nsg import cli
from nsg.cli import (EXIT_BUDGET, EXIT_OK, EXIT_USAGE,
                     CliParseError, parse_semigroup)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# ----- input grammar --------------------------------------------------------


def test_parse_generators():
    assert parse_semigroup("5,6,7").generators == (5, 6, 7)
    assert parse_semigroup(" 5, 6 , 7 ").generators == (5, 6, 7)


def test_parse_gaps():
    s = parse_semigroup("gaps:1,2,4")
    assert s.gaps == (1, 2, 4)


def test_parse_families():
    assert parse_semigroup("H:6").gaps == (1, 2, 3, 4, 5)
    assert parse_semigroup("T:9").gap_set == {1, 2, 3, 4, 9}
    assert parse_semigroup("I:7").generators == (2, 9)


def test_parse_errors_report_position():
    with pytest.raises(CliParseError) as ei:
        parse_semigroup("5,x,7")
    assert ei.value.pos == 2
    with pytest.raises(CliParseError) as ei:
        parse_semigroup("gaps:1,,4")
    assert ei.value.pos == 7
    with pytest.raises(CliParseError):
        parse_semigroup("H:abc")


# ----- commands and exit codes ----------------------------------------------


def test_info(capsys):
    code, doc, _ = run_json(capsys, "info", "3,5,7")
    assert code == EXIT_OK
    r = doc["result"]
    assert r["multiplicity"] == 3
    assert r["frobenius"] == 4 and r["genus"] == 3
    assert r["gaps"] == [1, 2, 4]
    assert r["classification"] == "pseudosymmetric"
    assert r["pseudo_frobenius"] == [2, 4]
    assert r["special_gaps"] == [4]


def test_info_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "info", "5,x")
    assert code == EXIT_USAGE and "position" in err


def test_info_gcd_error_exits_2(capsys):
    code, out, err = run(capsys, "info", "4,6")
    assert code == EXIT_USAGE and "gcd" in err


def test_lengths(capsys):
    code, doc, _ = run_json(capsys, "lengths", "5,11,13,19")
    assert code == EXIT_OK
    assert doc["result"]["lengths"] == [2, 3]
    wit = doc["result"]["witnesses"]
    assert set(wit) == {"2", "3"} and len(wit["3"]) == 3


def test_decompose(capsys):
    code, doc, _ = run_json(capsys, "decompose", "gaps:1,2,3,4,5")
    assert code == EXIT_OK
    for entry in doc["result"]["decompositions"]:
        assert entry["length"] == len(entry["components"])


def test_ordinary_summary_and_family(capsys):
    code, doc, _ = run_json(capsys, "ordinary", "8")
    assert code == EXIT_OK
    assert doc["result"]["special_gaps"] == [7, 6, 5, 4]

    code, doc, _ = run_json(capsys, "ordinary", "8", "--all")
    assert doc["result"]["lengths"] == [3, 4]

    code, doc, _ = run_json(capsys, "ordinary", "28", "--ell", "0")
    assert doc["result"]["length"] == 5

    code, doc, _ = run_json(capsys, "ordinary", "28", "--min")
    assert doc["result"]["minimum_length"] == 4
    assert doc["result"]["family_minimum"] == 5


def test_check_interval(capsys):
    code, doc, _ = run_json(capsys, "check", "4", "14", "--interval")
    assert code == EXIT_OK
    assert doc["result"]["semigroups"] == 37
    assert doc["result"]["counterexamples"] == []


def test_check_msbound(capsys):
    code, doc, _ = run_json(capsys, "check", "5", "14", "--msbound")
    assert code == EXIT_OK
    assert doc["result"]["violations"] == []


def test_verify_tables(capsys):
    code, doc, _ = run_json(capsys, "verify", "all")
    assert code == EXIT_OK
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] > 30


def test_verify_alias(capsys):
    code, doc, _ = run_json(capsys, "verify-paper", "example-3.6")
    assert code == EXIT_OK and doc["result"]["failed"] == 0


def test_verify_range_selector(capsys):
    code, doc, _ = run_json(capsys, "verify", "theorem-4.3:4..12")
    assert code == EXIT_OK and doc["result"]["passed"] == 9


def test_verify_sweep_selector(capsys):
    code, doc, _ = run_json(capsys, "verify", "sweep:4:12")
    assert code == EXIT_OK and doc["result"]["mismatches"] == []


def test_verify_unknown_selector(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE


# ----- budget ----------------------------------------------------------------


def test_budget_flag_exits_4(capsys):
    code, _, err = run(capsys, "--budget", "3", "lengths", "6,13,14,15,16,17")
    assert code == EXIT_BUDGET and "budget" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("NSG_BUDGET", "3")
    code, _, _ = run(capsys, "lengths", "6,13,14,15,16,17")
    assert code == EXIT_BUDGET


def test_budget_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("NSG_BUDGET", "3")
    code, _, _ = run(capsys, "--budget", "100000", "lengths", "6,13,14,15,16,17")
    assert code == EXIT_OK


# ----- output discipline -----------------------------------------------------


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--json", "info", "H:9")
    _, second, _ = run(capsys, "--json", "info", "H:9")
    assert first == second


def test_json_top_level_shape(capsys):
    code, doc, _ = run_json(capsys, "lengths", "5,6,7")
    assert set(doc) == {"schema_version", "command", "input", "result", "stats"}
    assert doc["schema_version"] == "1"
    assert doc["command"] == "lengths"
    assert doc["input"] == {"spec": "5,6,7"}
    assert set(doc["stats"]) == {"budget_limit", "budget_used"}


def test_timing_only_when_requested(capsys):
    _, doc, _ = run_json(capsys, "info", "5,6,7")
    assert "seconds" not in doc["stats"]
    code, out, _ = run(capsys, "--json", "--timing", "info", "5,6,7")
    assert "seconds" in json.loads(out)["stats"]


# ----- one parser per process -------------------------------------------------


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    """main() reuses one argparse parser; options of one request must not leak
    into the next, so a mixed sequence prints what fresh interpreters print."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)

    sequence = [
        ("--json", "ordinary", "10", "--all"),
        ("--json", "ordinary", "10"),
        ("--json", "ordinary", "10", "--ell", "2"),
        ("--json", "--budget", "3", "lengths", "6,13,14,15,16,17"),
        ("--json", "lengths", "6,13,14,15,16,17"),
        ("--json", "check", "4", "12", "--msbound"),
        ("--json", "check", "4", "12", "--interval"),
        ("--json", "verify-paper", "example-3.6"),
        ("info", "5,11,13,19"),
        ("--json", "decompose", "gaps:1,2,4"),
        ("--json", "check", "4", "12"),  # usage error from argparse
    ]
    in_process = []
    for argv in sequence:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "nsg.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout), argv
