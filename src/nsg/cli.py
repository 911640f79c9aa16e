"""Command-line front end.

Exit codes are stable across commands: 0 success, 2 parse/usage error,
3 expectation mismatch or counterexample found, 4 enumeration budget
exceeded, 5 a result guaranteed by theory failed (`InternalAssertion`,
`SearchFailed`): a finding to report, not a usage error.  With --json the
output is a single object with sorted keys, so identical invocations produce
byte-identical output; wall-clock timing is only attached when explicitly
requested, to keep that guarantee.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import core, ordinary, reference_data
from .classify import classify, pseudo_frobenius, special_gaps
from .core import NumericalSemigroup
from .decompose import (VALID_IRREDUNDANT, Budget, check_interval, check_msbound,
                        is_decomposition, length_spectrum)
from .errors import BudgetExceeded, InternalAssertion, NsgError, SearchFailed

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class CliParseError(NsgError):
    def __init__(self, message, text, pos):
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


def _parse_int_list(text: str, offset: int = 0) -> list[int]:
    out = []
    pos = 0
    for part in text.split(","):
        stripped = part.strip()
        if not stripped.isdigit():
            raise CliParseError("expected a positive integer", text, offset + pos)
        out.append(int(stripped))
        pos += len(part) + 1
    if not out:
        raise CliParseError("empty list", text, offset)
    return out


def parse_semigroup(spec: str) -> NumericalSemigroup:
    """Grammar: "5,6,7" (generators), "gaps:1,2,4", "H:28", "T:20", "I:20"."""
    for prefix, build in (("gaps:", None), ("H:", ordinary.H),
                          ("T:", ordinary.T_irr), ("I:", ordinary.I_irr)):
        if spec.startswith(prefix):
            body = spec[len(prefix):]
            if prefix == "gaps:":
                return core.from_gaps(_parse_int_list(body, len(prefix)))
            if not body.isdigit():
                raise CliParseError("expected an integer", spec, len(prefix))
            return build(int(body))
    return core.from_generators(_parse_int_list(spec))


def semigroup_json(s: NumericalSemigroup) -> dict:
    return {
        "multiplicity": s.m,
        "apery": list(s.apery),
        "generators": list(s.generators),
        "gaps": list(s.gaps),
        "frobenius": s.frobenius,
        "genus": s.genus,
    }


def spectrum_json(spec) -> dict:
    return {
        "lengths": list(spec.lengths),
        "witnesses": {str(k): [list(c.generators) for c in d.components]
                      for k, d in sorted(spec.witnesses.items())},
    }


def _emit(args, command, input_echo, result, budget, started):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "result": result,
        "stats": {"budget_limit": budget.limit, "budget_used": budget.used},
    }
    if args.timing:
        report["stats"]["seconds"] = round(time.monotonic() - started, 3)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_plain(result)


def _print_plain(result, indent=""):
    if isinstance(result, dict):
        for k in result:
            v = result[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(result, list):
        for v in result:
            if isinstance(v, (dict, list)):
                _print_plain(v, indent + "  ")
            else:
                print(f"{indent}{v}")
    else:
        print(f"{indent}{result}")


# ---------------------------------------------------------------------------
# commands


def cmd_info(args, budget):
    s = parse_semigroup(args.spec)
    rep = classify(s)
    result = semigroup_json(s)
    if s.m > 1:
        result["pseudo_frobenius"] = sorted(pseudo_frobenius(s))
        result["special_gaps"] = sorted(special_gaps(s))
        result["type"] = len(pseudo_frobenius(s))
    result["classification"] = rep.kind
    return result, EXIT_OK


def cmd_lengths(args, budget):
    s = parse_semigroup(args.spec)
    spec = length_spectrum(s, budget)
    return spectrum_json(spec), EXIT_OK


def cmd_decompose(args, budget):
    s = parse_semigroup(args.spec)
    spec = length_spectrum(s, budget)
    result = {"lengths": list(spec.lengths), "decompositions": []}
    for k in spec.lengths:
        comps = spec.witnesses[k].components
        result["decompositions"].append({
            "length": k,
            "components": [semigroup_json(c) for c in comps],
        })
    return result, EXIT_OK


def cmd_ordinary(args, budget):
    m = args.m
    if args.min:
        size, witness = ordinary.min_ordinary_length(m, budget)
        return {
            "m": m,
            "minimum_length": size,
            "family_minimum": ordinary.n_min(m),
            "witness": [list(c.generators) for c in witness.components],
        }, EXIT_OK
    if args.all:
        lengths = ordinary.d_family_lengths(m)
        fams = [ordinary.D(m, ell) for ell in range(m // 2 + 1)]
        return {
            "m": m,
            "lengths": list(lengths),
            "family": [{"ell": f.ell, "length": f.length,
                        "components": [f"{t}:{v}" for t, v in f.tags]} for f in fams],
        }, EXIT_OK
    if args.ell is not None:
        fam = ordinary.D(m, args.ell)
        return {
            "m": m,
            "ell": fam.ell,
            "length": fam.length,
            "components": [semigroup_json(c) for c in fam.components],
            "tags": [f"{t}:{v}" for t, v in fam.tags],
        }, EXIT_OK
    return {
        "m": m,
        "special_gaps": ordinary.special_gaps_of_ordinary(m),
        "family_minimum": ordinary.n_min(m),
        "family_maximum": m // 2,
    }, EXIT_OK


def cmd_check(args, budget):
    if args.interval:
        rep = check_interval(args.m, args.f_max, budget, threads=args.threads)
        result = {
            "mode": "interval",
            "m": rep.m,
            "f_max": rep.f_max,
            "semigroups": rep.total,
            "spectra_census": {",".join(map(str, k)): v for k, v in rep.census.items()},
            "counterexamples": [{"apery": list(s.apery), "lengths": list(ls)}
                                for s, ls in rep.counterexamples],
        }
        return result, (EXIT_MISMATCH if rep.counterexamples else EXIT_OK)
    rep = check_msbound(args.m, args.f_max, budget, threads=args.threads)
    result = {
        "mode": "msbound",
        "m": rep.m,
        "f_max": rep.f_max,
        "semigroups_checked": rep.checked,
        "max_mset_size": rep.max_mset,
        "violations": [list(map(list, v[:2])) + [v[2]] for v in rep.violations],
    }
    return result, (EXIT_MISMATCH if rep.violations else EXIT_OK)


def _verify_spectra(table, budget, failures, lines):
    for gens, expected in table:
        s = core.from_generators(gens)
        got = length_spectrum(s, budget).lengths
        ok = got == expected
        lines.append({"semigroup": list(gens), "expected": list(expected),
                      "got": list(got), "ok": ok})
        if not ok:
            failures.append(f"{gens}: expected {expected}, got {got}")


def _verify_h28_lines(budget, failures, lines):
    h28 = ordinary.H(28)
    displayed = []
    for comps_spec, exp_len in reference_data.H28_DECOMPOSITIONS:
        comps = tuple(parse_semigroup(c) for c in comps_spec)
        displayed.append(frozenset(comps))
        check = is_decomposition(h28, comps)
        ok = check.verdict == VALID_IRREDUNDANT and len(comps) == exp_len
        lines.append({"components": list(comps_spec), "expected_length": exp_len,
                      "verdict": check.verdict, "ok": ok})
        if not ok:
            failures.append(f"{comps_spec}: {check.verdict}")
    for ell in range(4):
        fam = ordinary.D(28, ell)
        ok = frozenset(fam.components) == displayed[ell]
        lines.append({"family_ell": ell, "matches_displayed_line": ell + 1, "ok": ok})
        if not ok:
            failures.append(f"D(28,{ell}) differs from displayed line {ell + 1}")


def _verify_short_ordinary(budget, failures, lines):
    for target_spec, comps_spec in reference_data.SHORT_ORDINARY_DECOMPOSITIONS:
        target = parse_semigroup(target_spec)
        comps = tuple(parse_semigroup(c) for c in comps_spec)
        check = is_decomposition(target, comps)
        ok = check.verdict == VALID_IRREDUNDANT and len(comps) == 4
        lines.append({"target": target_spec, "components": list(comps_spec),
                      "verdict": check.verdict, "length": len(comps), "ok": ok})
        if not ok:
            failures.append(f"{target_spec}: {check.verdict}")


def cmd_verify(args, budget):
    sel = args.selector
    failures: list[str] = []
    lines: list[dict] = []
    known = {"example-3.6": reference_data.M5_SPECTRA,
             "example-3.7": reference_data.M6_SPECTRA,
             "example-3.8": reference_data.M7_SPECTRA}
    if sel in known:
        _verify_spectra(known[sel], budget, failures, lines)
    elif sel == "example-4.2":
        _verify_h28_lines(budget, failures, lines)
    elif sel == "remark-4.4":
        _verify_short_ordinary(budget, failures, lines)
    elif sel == "all":
        for table in known.values():
            _verify_spectra(table, budget, failures, lines)
        _verify_h28_lines(budget, failures, lines)
        _verify_short_ordinary(budget, failures, lines)
    elif sel.startswith("theorem-4.3:"):
        body = sel.split(":", 1)[1]
        if ".." not in body:
            raise CliParseError("expected <lo>..<hi>", sel, len("theorem-4.3:"))
        lo, hi = (int(x) for x in body.split("..", 1))
        for m in range(lo, hi + 1):
            got = ordinary.d_family_lengths(m)  # raises on any failure
            lines.append({"m": m, "lengths": f"{got[0]}..{got[-1]}", "ok": True})
    elif sel.startswith("sweep:"):
        parts = sel.split(":")
        if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
            raise CliParseError("expected sweep:<m>:<f_max>", sel, len("sweep:"))
        rep = check_interval(int(parts[1]), int(parts[2]), budget, threads=args.threads)
        lines.append({"m": rep.m, "f_max": rep.f_max, "semigroups": rep.total,
                      "counterexamples": len(rep.counterexamples),
                      "ok": not rep.counterexamples})
        if rep.counterexamples:
            failures.append(f"sweep found {len(rep.counterexamples)} non-interval spectra")
    else:
        raise CliParseError("unknown selector", sel, 0)

    passed = sum(1 for ln in lines if ln.get("ok"))
    result = {"selector": sel, "checks": lines,
              "passed": passed, "failed": len(lines) - passed,
              "mismatches": failures}
    return result, (EXIT_MISMATCH if failures else EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The nsg argument parser, built once per process and reused by `main`."""
    p = argparse.ArgumentParser(
        prog="nsg",
        description="numerical semigroups: invariants, irreducible decompositions, "
                    "length spectra, and exhaustive verification sweeps")
    p.add_argument("--json", action="store_true", help="emit a single JSON object")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration node budget (default from NSG_BUDGET or 5e6)")
    p.add_argument("--threads", type=int, default=1, help="worker processes for sweeps")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in stats (breaks byte-determinism)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info", help="invariants and classification of one semigroup")
    sp.add_argument("spec")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("lengths", help="the set of irredundant decomposition lengths")
    sp.add_argument("spec")
    sp.set_defaults(func=cmd_lengths)

    sp = sub.add_parser("decompose", help="one witness decomposition per achievable length")
    sp.add_argument("spec")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("ordinary", help="structured decompositions of the ordinary semigroup")
    sp.add_argument("m", type=int)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--ell", type=int, default=None, help="one family member")
    g.add_argument("--all", action="store_true", help="the whole family")
    g.add_argument("--min", action="store_true", help="true minimum decomposition length")
    sp.set_defaults(func=cmd_ordinary)

    sp = sub.add_parser("check", help="exhaustive sweeps over one multiplicity")
    sp.add_argument("m", type=int)
    sp.add_argument("f_max", type=int)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--interval", action="store_true",
                   help="report any non-interval length spectrum")
    g.add_argument("--msbound", action="store_true",
                   help="check the m/2 bound on agreement sets")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verify", aliases=["verify-paper"],
                        help="run the checked-in expectation tables")
    sp.add_argument("selector",
                    help="all | example-3.6 | example-3.7 | example-3.8 | example-4.2 | "
                         "remark-4.4 | theorem-4.3:<lo>..<hi> | sweep:<m>:<f_max>")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = args.budget
    if limit is None:
        env = os.environ.get("NSG_BUDGET")
        limit = int(env) if env else None
    budget = Budget(limit) if limit is not None else Budget()
    started = time.monotonic()
    try:
        result, code = args.func(args, budget)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalAssertion, SearchFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CliParseError, NsgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, args.command, vars_input(args), result, budget, started)
    return code


def vars_input(args) -> dict:
    skip = {"func", "json", "budget", "threads", "timing", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


if __name__ == "__main__":
    sys.exit(main())
