"""Command-line interface: grammar, exit codes, JSON shape, determinism."""

import contextlib
import gc
import io
import json
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsg import (cli, core, decompose, from_generators, is_decomposition, length_spectrum,
                 ordinary)
from nsg.cli import (EXIT_BUDGET, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE,
                     CliParseError, parse_semigroup)
from nsg.core import VALUE_CAP, NumericalSemigroup
from nsg.errors import BudgetExceeded, InternalAssertion, NsgError, SearchFailed


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
    # the message quotes the whole spec that the position counts in
    with pytest.raises(CliParseError) as ei:
        parse_semigroup("gaps:1,x")
    assert str(ei.value) == "expected a positive integer at position 7: 'gaps:1,x'"
    with pytest.raises(CliParseError):
        parse_semigroup("H:abc")
    # a digit that int() rejects is a parse error too, not int()'s message
    with pytest.raises(CliParseError) as ei:
        parse_semigroup("5,\u00b2")
    assert ei.value.pos == 2
    with pytest.raises(CliParseError):
        parse_semigroup("T:\u00b2")
    # an empty list is one empty part, which is not a positive integer
    for spec, pos in (("", 0), ("gaps:", 5)):
        with pytest.raises(CliParseError, match="expected a positive integer") as ei:
            parse_semigroup(spec)
        assert ei.value.pos == pos


# Specs near the 2**40 cap, family bodies, and malformed text.  Numbers in
# the malformed parts stay small: a large multiplicity is an unbounded input
# on its own (the Apery vector takes O(m) memory).
_big = st.integers(min_value=0, max_value=VALUE_CAP + 2)
_small = st.integers(min_value=0, max_value=60)
_junk_part = st.one_of(
    _small.map(str),
    st.sampled_from(["", " ", "-3", "+4", "1.5", "x", "\u0663", "\u00b2",
                     "\U0001d7d7", "1\u00b2", " 7 ", "0x1f"]))
_specs = st.one_of(
    st.builds(lambda m, rest: ",".join(map(str, [m] + rest)),
              st.integers(min_value=1, max_value=60), st.lists(_big, max_size=5)),
    st.lists(st.one_of(_small, _big), max_size=8).map(
        lambda xs: "gaps:" + ",".join(map(str, xs))),
    st.builds(lambda p, n: f"{p}{n}", st.sampled_from(["H:", "T:", "I:"]),
              st.integers(min_value=0, max_value=300)),
    st.builds(lambda p, parts: p + ",".join(parts),
              st.sampled_from(["", "gaps:", "H:", "T:", "I:", "gaps", "h:", ":"]),
              st.lists(_junk_part, max_size=5)),
)


@settings(max_examples=300, deadline=None)
@given(_specs)
def test_parse_semigroup_fuzz(spec):
    """Every spec yields a semigroup, a usage error (exit 2) or, past the
    default budget, BudgetExceeded; never MemoryError or another exception.
    Library level only: `info` prints every gap, so a large F means
    unbounded output there."""
    try:
        s = parse_semigroup(spec)
    except (NsgError, ValueError):
        return
    assert isinstance(s, NumericalSemigroup)


def test_parse_semigroup_meters_its_budget():
    """The genus is ticked into the budget given, or into a fresh default
    one, so a budget-less parse of a genus past 5,000,000 raises."""
    b = decompose.Budget()
    assert parse_semigroup("5,6,7", b).genus == b.used == 6
    assert parse_semigroup("2,10000001").genus == 5_000_000
    with pytest.raises(BudgetExceeded, match="5000001 > 5000000"):
        parse_semigroup("2,10000003")


# Whole commands, as `main` sees them: numbers of either sign up to 1e10,
# family bodies up to 1e9, and selectors that are junk or malformed.
_nums = st.one_of(st.integers(min_value=-3, max_value=40),
                  st.integers(min_value=-10**10, max_value=10**10)).map(str)
_spec_commands = st.tuples(
    st.sampled_from(["info", "lengths", "decompose"]),
    st.one_of(_specs, st.builds(lambda p, n: f"{p}{n}", st.sampled_from(["H:", "T:", "I:"]),
                                st.integers(min_value=0, max_value=10**9))))
_ordinary_commands = st.builds(
    lambda m, opt: ("ordinary", m, *opt), _nums,
    st.one_of(st.just(()), st.just(("--min",)), st.just(("--all",)),
              _nums.map(lambda n: ("--ell", n))))
_check_commands = st.builds(lambda m, f, mode: ("check", m, f, mode), _nums, _nums,
                            st.sampled_from(["--interval", "--msbound"]))
# argparse reads a leading "-" as an option ("-h" prints its help)
_junk_selectors = st.text(max_size=12).filter(lambda sel: not sel.startswith("-"))
_verify_commands = st.one_of(
    st.just("all"),
    st.builds(lambda a, b: f"theorem-4.3:{a}..{b}", _nums, _nums),
    st.builds(lambda a, b: f"sweep:{a}:{b}", _nums, _nums),
    _junk_selectors,
).map(lambda sel: ("verify", sel))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_spec_commands, _ordinary_commands, _check_commands, _verify_commands),
       st.sampled_from(["1", "2"]))
@example(("check", "2000", "2001", "--msbound"), "1")
@example(("check", "3000000000", "5", "--interval"), "1")
@example(("check", "100000", "99998", "--interval"), "1")
def test_whole_command_fuzz(argv, threads):
    """Every command ends in an answer (0, or 3 for a mismatch), a usage
    error (2) or the budget (4): never an uncaught exception or a theory
    failure.  The examples once raised RecursionError or MemoryError.
    Derandomized, so every run draws the same examples: inside the budget
    a random draw can reach requests whose Apery-sum pass is unmetered and
    runs for minutes (`ordinary 4000 --ell 200`: 27 s)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "--budget", "20000", "--threads", threads, *argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH, EXIT_BUDGET), (argv, err)
    if code in (EXIT_OK, EXIT_MISMATCH):
        assert isinstance(json.loads(out), dict) and out.count("\n") == 1
    else:
        assert out == "" and err.startswith("error: ")


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
    assert doc["stats"]["budget_used"] == r["genus"]  # the genus tick only


@pytest.mark.parametrize("spec, special, genus", [
    ("1009,1013", [1020095], 510048),
    ("2,1000001", [999999], 500000),
])
def test_info_large_genus(capsys, spec, special, genus):
    """Construction, gap mask and special gaps stay linear in F."""
    code, doc, _ = run_json(capsys, "info", spec)
    assert code == EXIT_OK
    r = doc["result"]
    assert r["special_gaps"] == special and r["genus"] == genus
    assert r["classification"] == "symmetric"


def test_info_large_reducible_answers_quickly(capsys):
    """The reducibility witness of <1601,1602,1603> (F about 1.28M) adds two
    special gaps as mask moves and reads each Apery vector in linear time."""
    t0 = time.perf_counter()
    code, doc, _ = run_json(capsys, "info", "1601,1602,1603")
    assert code == EXIT_OK and doc["result"]["classification"] == "reducible"
    assert time.perf_counter() - t0 < 30


def test_info_ordinary_large_multiplicity_answers_quickly(capsys):
    """H(20000): the Apery-sum pass stops each row at max(apery), so the
    O(m^2) pairs of an ordinary semigroup are never tried."""
    t0 = time.perf_counter()
    code, doc, _ = run_json(capsys, "info", "H:20000")
    assert code == EXIT_OK
    r = doc["result"]
    assert r["generators"] == list(range(20000, 40000))
    assert r["pseudo_frobenius"] == list(range(1, 20000))
    assert r["special_gaps"] == list(range(10000, 20000))
    assert time.perf_counter() - t0 < 10


PLAIN_INFO_5_6_7 = (
    "multiplicity: 5\n"
    "apery:\n  6\n  7\n  13\n  14\n"
    "generators:\n  5\n  6\n  7\n"
    "gaps:\n  1\n  2\n  3\n  4\n  8\n  9\n"
    "frobenius: 9\n"
    "genus: 6\n"
    "pseudo_frobenius:\n  8\n  9\n"
    "special_gaps:\n  8\n  9\n"
    "type: 2\n"
    "classification: reducible\n")

PLAIN_DECOMPOSE_6_9_20 = (
    "lengths:\n  1\n"
    "decompositions:\n"
    "    length: 1\n"
    "    components:\n"
    "        multiplicity: 6\n"
    "        apery:\n" + "".join(f"          {a}\n" for a in (49, 20, 9, 40, 29)) +
    "        generators:\n" + "".join(f"          {g}\n" for g in (6, 9, 20)) +
    "        gaps:\n" + "".join(f"          {x}\n" for x in (
        1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 22, 23, 25, 28, 31, 34, 37, 43)) +
    "        frobenius: 43\n"
    "        genus: 22\n")


@pytest.mark.parametrize("argv, text", [
    (("info", "5,6,7"), PLAIN_INFO_5_6_7),
    (("decompose", "6,9,20"), PLAIN_DECOMPOSE_6_9_20),
])
def test_plain_output(capsys, argv, text):
    """Without --json, nested lists and tuples print one item a line."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out == text


def test_info_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "info", "5,x")
    assert code == EXIT_USAGE and "position" in err


def test_info_gcd_error_exits_2(capsys):
    code, out, err = run(capsys, "info", "4,6")
    assert code == EXIT_USAGE and "gcd" in err


@pytest.mark.parametrize("exc", [InternalAssertion, SearchFailed])
def test_theory_violation_exits_5(capsys, monkeypatch, exc):
    def broken(s, budget=None):
        raise exc("postcondition failed")

    monkeypatch.setattr(cli, "length_spectrum", broken)
    code, out, err = run(capsys, "--json", "lengths", "5,6,7")
    assert code == EXIT_INTERNAL and out == "" and "postcondition failed" in err
    code, _, _ = run(capsys, "lengths", "5,x")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("wrong", [(False, True), (True, False)])
def test_cover_criteria_disagreement_raises_and_exits_5(capsys, monkeypatch, wrong):
    """A special-gap cover (or private-gap verdict) that contradicts the
    direct intersection is a theory violation, not a verdict the callers
    may drop."""
    s = from_generators([5, 11, 13, 19])
    comps = length_spectrum(s).witnesses[2].components
    monkeypatch.setattr(decompose, "_cover_criteria", lambda masks, shared, sg_mask: wrong)
    with pytest.raises(InternalAssertion, match="cover criteria disagree"):
        is_decomposition(s, comps)
    code, out, err = run(capsys, "lengths", "5,11,13,19")
    assert code == EXIT_INTERNAL and out == "" and "cover criteria disagree" in err


def test_one_special_gap_on_a_reducible_semigroup_raises_and_exits_5(capsys, monkeypatch):
    """`length_spectrum`'s length-1 exit, SG(S) = {F(S)}, is confirmed by
    `is_irreducible`: its witness is the one `is_decomposition` never sees."""
    monkeypatch.setattr(decompose, "special_gap_mask", lambda s: 1 << s.frobenius)
    with pytest.raises(InternalAssertion, match="one special gap but is reducible"):
        length_spectrum(from_generators([5, 11, 13, 19]))
    code, out, err = run(capsys, "lengths", "5,11,13,19")
    assert code == EXIT_INTERNAL and out == "" and "one special gap but is reducible" in err


def test_atom_walk_leaving_the_oversemigroups_raises_and_exits_5(capsys, monkeypatch):
    """A walk node that does not contain S contradicts the seeded walk's
    theory; `_atom_masks` checks every node instead of filtering it out."""
    real = decompose._irreducible_gapmasks_with_frobenius
    # the full tables hold irreducibles that do not contain <5,11,13,19>
    monkeypatch.setattr(decompose, "_irreducible_gapmasks_with_frobenius",
                        lambda f, gaps=-1, budget=None: real(f, budget=budget))
    s = from_generators([5, 11, 13, 19])
    with pytest.raises(InternalAssertion, match="left the oversemigroups"):
        decompose._atom_masks(s, s.gap_mask, decompose.Budget())
    code, out, err = run(capsys, "lengths", "5,11,13,19")
    assert code == EXIT_INTERNAL and out == "" and "left the oversemigroups" in err


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


@pytest.mark.parametrize("m, witness", [("2", [2, 3]), ("3", [3, 4, 5])])
def test_ordinary_below_family_range(capsys, m, witness):
    """H(2) and H(3) are irreducible: --min answers 1 and the family, defined
    from multiplicity 4 on, has no minimum."""
    code, doc, _ = run_json(capsys, "ordinary", m, "--min")
    assert code == EXIT_OK
    assert doc["result"]["minimum_length"] == 1
    assert doc["result"]["witness"] == [witness]
    assert doc["result"]["family_minimum"] is None
    code, doc, _ = run_json(capsys, "ordinary", m)
    assert code == EXIT_OK
    assert doc["result"]["family_minimum"] is None


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
    code, doc, _ = run_json(capsys, "verify", "remark-4.4")
    assert code == EXIT_OK
    assert (doc["result"]["passed"], doc["result"]["failed"]) == (2, 0)


def test_verify_alias(capsys):
    code, doc, _ = run_json(capsys, "verify-paper", "example-3.6")
    assert code == EXIT_OK and doc["result"]["failed"] == 0


def test_verify_range_selector(capsys):
    code, doc, _ = run_json(capsys, "verify", "theorem-4.3:4..12")
    assert code == EXIT_OK and doc["result"]["passed"] == 9


def test_verify_reversed_range_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem-4.3:12..4")
    assert code == EXIT_USAGE and out == "" and "<lo> <= <hi>" in err


@pytest.mark.parametrize("sel", ["theorem-4.3:4..x", "theorem-4.3:5..5..6",
                                 "theorem-4.3:4", "theorem-4.3:-1..5", "theorem-4.3:\u00b2..5"])
def test_verify_malformed_range_exits_2(capsys, sel):
    """A selector body that is not two decimal integers around one `..` is
    a parse error at the body, not Python's int() message."""
    code, out, err = run(capsys, "verify", sel)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: expected <lo>..<hi> at position 12: {sel!r}\n"


def test_verify_sweep_selector_rejects_non_decimal_digits(capsys):
    code, out, err = run(capsys, "verify", "sweep:\u00b2:5")
    assert code == EXIT_USAGE and out == "" and "expected sweep:<m>:<f_max>" in err


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


def test_budget_exceeded_reports_limit_plus_one(capsys):
    # a cached atom walk is ticked a whole walk at a time; the report still
    # stops one node past the limit
    code, out, err = run(capsys, "--budget", "50", "ordinary", "20", "--min")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 51 > 50 nodes\n"


def _budget_used(capsys, *argv):
    code, doc, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    return doc["stats"]["budget_used"]


def test_budget_used_does_not_depend_on_cached_walks(capsys, monkeypatch):
    """A walk ticks w(f) per node and a cached walk w(f) times its size, and
    a walk the budget stops is not cached: lengths and decompose use the
    same nodes cold, warm, after a budget failure and in a fresh process.
    <20,41,53,77> walks f in 185..209, where w(f) = 3."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for spec in ("10,19,21", "20,41,53,77"):
        decompose._WALKS.clear()
        cold = _budget_used(capsys, "lengths", spec)
        used = [cold, _budget_used(capsys, "lengths", spec),
                _budget_used(capsys, "decompose", spec)]
        decompose._WALKS.clear()
        used.append(_budget_used(capsys, "decompose", spec))
        decompose._WALKS.clear()
        code, _, err = run(capsys, "--budget", str(cold // 2), "lengths", spec)
        assert code == EXIT_BUDGET and f"{cold // 2 + 1} > {cold // 2}" in err
        used.append(_budget_used(capsys, "lengths", spec))
        for command in ("lengths", "decompose"):
            fresh = subprocess.run([sys.executable, "-m", "nsg.cli", "--json", command, spec],
                                   env=env, capture_output=True, text=True, timeout=120)
            used.append(json.loads(fresh.stdout)["stats"]["budget_used"])
        assert used == [cold] * 7, spec


@pytest.mark.parametrize("argv, used", [
    (("verify", "theorem-4.3:4..12"), sum((m // 2 + 1) * (m - 1) for m in range(4, 13))),
    (("ordinary", "8", "--all"), 5 * 7),
    (("ordinary", "28", "--ell", "2"), 27),
    (("verify", "example-4.2"), 4 * 27),
])
def test_family_members_tick_the_genus_of_H(capsys, argv, used):
    """Each member D(m, ell) a command builds costs m - 1, the genus of H(m)."""
    code, doc, _ = run_json(capsys, *argv)
    assert code == EXIT_OK and doc["stats"]["budget_used"] == used


def test_family_members_are_verified_once(capsys, monkeypatch):
    """The theorem-4.3 sweep builds and verifies each D(m, ell) once: its
    lengths are read off the members it built, not off a second pass."""
    verified = []

    def counting(target, components):
        verified.append(target.m)
        return is_decomposition(target, components)

    monkeypatch.setattr(ordinary, "is_decomposition", counting)
    code, _, _ = run_json(capsys, "verify", "theorem-4.3:4..12")
    assert code == EXIT_OK
    assert len(verified) == sum(m // 2 + 1 for m in range(4, 13))
    assert all(verified.count(m) == m // 2 + 1 for m in range(4, 13))


def test_family_members_do_not_outlive_the_command(capsys):
    """Nothing keeps a member once the command that built it returns, so a
    family sweep's memory does not grow with the members it has verified."""
    for argv in (("verify", "theorem-4.3:4..40"), ("ordinary", "28", "--all")):
        code, _, _ = run_json(capsys, *argv)
        assert code == EXIT_OK
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, ordinary.DFamily)]


@pytest.mark.parametrize("argv", [
    ("ordinary", "20000", "--ell", "0"),
    ("ordinary", "1200", "--all"),
    ("verify", "theorem-4.3:2000..2000"),
])
def test_family_stops_at_the_budget_before_building(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "--budget", "10", *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 11 > 10 nodes\n"
    assert time.perf_counter() - t0 < 5


def _built(*args, **kwargs):
    raise AssertionError("built before the budget was checked")


def _forbid_builds(monkeypatch):
    """Make every builder a request can reach fail the test at once, so a
    request that builds before it checks the budget fails instead of
    allocating memory of the order of its argument."""
    for name in ("H", "T_irr", "I_irr", "min_ordinary_length", "special_gaps_of_ordinary"):
        monkeypatch.setattr(ordinary, name, _built)
    monkeypatch.setattr(core, "from_generators", _built)


@pytest.mark.parametrize("argv", [
    ("info", "H:300000000"),
    ("info", "T:300000000"),
    ("info", "I:300000000"),
    ("lengths", "H:300000000"),
    ("info", "300000000,300000001"),  # from_generators allocates m entries
    ("info", "30000000,30000001"),  # F is above the value cap
    ("ordinary", "300000000"),
    ("ordinary", "300000000", "--min"),
])
def test_request_over_the_budget_stops_before_building(capsys, monkeypatch, argv):
    """A lower bound on the genus, read off the request, is compared with
    the budget left before anything of that size is built."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    _forbid_builds(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 5000001 > 5000000 nodes\n"


@pytest.mark.parametrize("spec, genus", [("H:40", 39), ("T:41", 21), ("I:40", 21)])
def test_family_spec_genus_floor_is_exact(capsys, monkeypatch, spec, genus):
    """The floor is the genus for H, T and I: a budget of exactly the genus
    answers and uses it, one node less stops before the build."""
    code, doc, _ = run_json(capsys, "--budget", str(genus), "info", spec)
    assert code == EXIT_OK and doc["stats"]["budget_used"] == genus
    _forbid_builds(monkeypatch)
    code, out, err = run(capsys, "--budget", str(genus - 1), "info", spec)
    assert code == EXIT_BUDGET and out == ""
    assert err == f"error: enumeration budget exceeded: {genus} > {genus - 1} nodes\n"


@pytest.mark.parametrize("argv, message", [
    (("info", "H:0"), "ordinary semigroups start at multiplicity 2"),
    (("info", "T:0"), "Frobenius number must be positive"),
    (("info", "I:0"), "Frobenius number must be positive"),
    (("info", "300000000,300000002"), "gcd of generators is 2"),
    (("info", "0"), "generators must be positive integers"),
    (("check", "1", "5", "--interval"), "multiplicity must be at least 2"),
    (("check", "-100000", "5", "--msbound"), "multiplicity must be at least 2"),
    (("verify", "sweep:1:5"), "multiplicity must be at least 2"),
    (("ordinary", "-5"), "ordinary semigroups start at multiplicity 2"),
    (("ordinary", "0"), "ordinary semigroups start at multiplicity 2"),
    (("ordinary", "1"), "ordinary semigroups start at multiplicity 2"),
])
def test_invalid_spec_exits_2_under_any_budget(capsys, argv, message):
    """An argument the builder rejects has no genus floor to stop it first,
    and a sweep reserves nothing for a multiplicity below 2, nor does the
    `ordinary` summary, which names no semigroup there."""
    code, out, err = run(capsys, "--budget", "0", *argv)
    assert code == EXIT_USAGE and out == "" and message in err


def test_large_atom_walk_stops_at_the_budget(capsys):
    """The walks are metered while they run: the H(72) walks (137,568 nodes
    with the cover search) stop at a budget of 100,000 within seconds, not
    after the walk."""
    decompose._WALKS.clear()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "--budget", "100000", "ordinary", "72", "--min")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 100001 > 100000 nodes\n"
    assert time.perf_counter() - t0 < 30


def test_large_atom_walk_answers_under_the_default_budget(capsys, monkeypatch):
    """Each walk starts inside the oversemigroups of <11,27,32>, and only
    the gaps from its least special gap, 144, up are walked: 92 nodes, 80
    of them the genus."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    code, doc, _ = run_json(capsys, "lengths", "11,27,32")
    assert code == EXIT_OK
    assert doc["result"]["lengths"] == [2]
    assert doc["stats"]["budget_used"] <= 2_000


def test_large_genus_lengths_answer_under_the_default_budget(capsys, monkeypatch):
    """<20,41,53,77> (genus 121) needs 1,811 nodes; walks from the global
    seed ran past the 5M default."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    code, doc, _ = run_json(capsys, "lengths", "20,41,53,77")
    assert code == EXIT_OK
    assert doc["result"]["lengths"] == [3]


def test_sweep_budget_counts_every_shard(capsys):
    """Each shard's nodes are ticked into the one budget: `check 8 22`
    (61,596 nodes over its shards) exits 4 under 50,000 and 30,000 with the
    same error serial or parallel.  Under 30,000 a worker runs out itself,
    so its error crosses the pool.  Every swept semigroup ticks
    1 + g*m // 64 before its row, and each sweep answers under exactly its
    own count, serial or parallel."""
    for limit in (50_000, 30_000):
        errs = []
        for threads in ("1", "2"):
            code, out, err = run(capsys, "--json", "--budget", str(limit), "--threads", threads,
                                 "check", "8", "22", "--interval")
            assert code == EXIT_BUDGET and out == ""
            errs.append(err)
        assert errs == [f"error: enumeration budget exceeded: {limit + 1} > {limit} nodes\n"] * 2
    for argv, used in [(("check", "8", "22", "--interval"), 61_596),
                       (("check", "6", "18", "--interval"), 4_859),
                       (("check", "7", "22", "--msbound"), 1_638),
                       (("check", "6", "20", "--msbound"), 1_528)]:
        for threads in ("1", "2"):
            code, doc, _ = run_json(capsys, "--budget", str(used), "--threads", threads, *argv)
            assert code == EXIT_OK and doc["stats"]["budget_used"] == used


@pytest.mark.parametrize("argv, key, count, used", [
    # H(2000) and <2000, 2002, ..., 3999, 4001>, neither with 1,999 special gaps
    (("check", "2000", "2001", "--msbound"), "semigroups_checked", 0, 62_469 + 62_501),
    # F >= m - 1, so neither stream walks anything
    (("check", "3000000000", "5", "--interval"), "semigroups", 0, 0),
    (("check", "100000", "99998", "--interval"), "semigroups", 0, 0),
])
def test_large_multiplicity_sweeps_answer(capsys, monkeypatch, argv, key, count, used):
    """The Kunz walk has no recursion, and walks nothing when m > f_max + 1."""
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    code, doc, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert doc["result"][key] == count and doc["stats"]["budget_used"] == used


def test_sweep_reserves_its_first_semigroup(capsys, monkeypatch):
    """`check 3000 3100` reserves 1 + 2999*3000 // 64 = 140,579 nodes, the
    weight of its least semigroup, before it walks: under 100,000 it stops
    there, and under 200,000 after one row."""
    monkeypatch.setattr(decompose, "kunz_semigroups", _built)
    code, out, err = run(capsys, "--budget", "100000", "check", "3000", "3100", "--msbound")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 100001 > 100000 nodes\n"
    monkeypatch.undo()
    rows = []
    row = decompose._msbound_row

    def counted(s, b):
        rows.append(s.apery)
        return row(s, b)

    monkeypatch.setattr(decompose, "_msbound_row", counted)
    code, out, err = run(capsys, "--budget", "200000", "check", "3000", "3100", "--msbound")
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 200001 > 200000 nodes\n"
    assert rows == [tuple(range(3001, 6000))]  # H(3000)


@pytest.mark.parametrize("argv", [
    ("check", "2", "100000000", "--interval"),  # 5e7 semigroups
    ("verify", "sweep:1500:1501"),
])
def test_large_sweep_stops_at_the_budget(capsys, argv):
    code, out, err = run(capsys, "--budget", "200000", *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: enumeration budget exceeded: 200001 > 200000 nodes\n"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_round_trips_through_pickle():
    """A sweep worker's error reaches the request's process pickled, so every
    NsgError must rebuild with the same message and attributes."""
    special = {
        "NotClosed": (((3, 4),), "complement not closed under addition: 3 + 4 = 7 is a gap"),
        "BudgetExceeded": ((30001, 30000), "enumeration budget exceeded: 30001 > 30000 nodes"),
        "CliParseError": (("expected an integer", "H:x", 2),
                          "expected an integer at position 2: 'H:x'"),
    }
    classes = [NsgError, *_subclasses(NsgError)]
    assert CliParseError in classes and len(classes) > len(special)
    for cls in classes:
        args, message = special.get(cls.__name__, (("a message",), "a message"))
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) == message
        assert vars(back) == vars(exc) and back.args == exc.args


@pytest.mark.parametrize("argv", [
    ("info", "2,1099511627775"),  # genus 2**39 - 1
    ("lengths", "3,412316860417,412316860418"),  # reducible, genus about 2**38
])
def test_huge_genus_exits_4_before_listing_gaps(capsys, argv):
    """info/lengths/decompose tick the budget by the genus right after parsing."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and "budget" in err and out == ""


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("NSG_BUDGET", "3")
    code, _, _ = run(capsys, "lengths", "6,13,14,15,16,17")
    assert code == EXIT_BUDGET


def test_budget_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("NSG_BUDGET", "3")
    code, _, _ = run(capsys, "--budget", "100000", "lengths", "6,13,14,15,16,17")
    assert code == EXIT_OK


@pytest.mark.parametrize("env, argv", [
    ("abc", ()),
    ("-1", ()),
    (None, ("--budget", "-5")),
    (None, ("--threads", "0")),
    (None, ("--threads", "-3")),
])
def test_bad_budget_or_threads_exits_2(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("NSG_BUDGET", raising=False)
    else:
        monkeypatch.setenv("NSG_BUDGET", env)
    code, out, err = run(capsys, *argv, "info", "3,5")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, name", [
    (("--budget", "x", "info", "3,5"), "--budget"),
    (("--threads", "x", "info", "3,5"), "--threads"),
    (("ordinary", "x"), "m"),
    (("check", "x", "12", "--interval"), "m"),
    (("check", "4", "x", "--interval"), "f_max"),
    (("ordinary", "10", "--ell", "x"), "--ell"),
])
def test_non_integer_argument_exits_2_in_process(capsys, argv, name):
    """argparse's rejections come back from main as exit 2 and one `error:`
    line, like every other usage error; no SystemExit leaves main."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: argument {name}: invalid int value: 'x'\n"


def test_zero_budget_is_valid_and_exits_4(capsys, monkeypatch):
    monkeypatch.delenv("NSG_BUDGET", raising=False)
    code, _, err = run(capsys, "--budget", "0", "info", "3,5")
    assert code == EXIT_BUDGET and err == "error: enumeration budget exceeded: 1 > 0 nodes\n"
    monkeypatch.setenv("NSG_BUDGET", "0")
    code, _, _ = run(capsys, "info", "3,5")
    assert code == EXIT_BUDGET


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
        ("--json", "check", "4", "12"),  # usage error from argparse, exit 2
    ]
    in_process = []
    for argv in sequence:
        code = cli.main(list(argv))
        out = capsys.readouterr()
        in_process.append((code, out.out))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "nsg.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout), argv
