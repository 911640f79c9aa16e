"""The benchmark's workloads: the CLI requests each one sends, and the checks
that decide whether each output is correct.

A *unit* is one fresh interpreter that imports nsg and sends a workload's
requests to ``nsg.cli.main`` in process, one after another (a closed loop with
one client).  A run repeats units until its time is used.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP = ["--json", "check", "8", "22", "--interval"]
SWEEP_PAR_THREADS = 2

#: why each workload is in the benchmark (also listed in BENCHMARK.json)
WHY = {
    "sweep": "serial Kunz sweep m=8 F<=22 (872 semigroups) in a cold interpreter; "
             "dominated by atom enumeration by oversemigroup recursion",
    "sweep-par": "the same sweep with --threads 2; the only workload that runs the "
                 "sweep's shards and its process pool",
    "ordinary": "verify all, theorem-4.3:4..120 and ordinary 56/58/60 --min; "
                "is_decomposition and minimum_cover, no recursion atoms",
    "query": "1968 info/lengths/decompose requests on 656 small semigroups in seeded "
             "order, one warm session: caches, argparse/JSON, per-Frobenius atoms",
}

#: checks each ``verify`` selector must pass, and minimum lengths of H(m)
VERIFY_PASSED = {"all": 39, "theorem-4.3:4..120": 117}
ORDINARY_MIN = {56: 4, 58: 5, 60: 5}
QUERY_COMMANDS = ("info", "lengths", "decompose")


def query_family() -> list[str]:
    """Every input ``query`` sends: multiplicity m in 6..10 with 2 or 3
    distinct further generators in (m, 2.2m], gcd 1 (656 semigroups)."""
    out = []
    for m in range(6, 11):
        top = (22 * m) // 10
        for k in (2, 3):
            for gens in itertools.combinations(range(m + 1, top + 1), k):
                if math.gcd(m, *gens) == 1:
                    out.append(",".join(map(str, (m,) + gens)))
    return out


def make_requests(workload: str, seed: int) -> list[list[str]]:
    """The argv of every request one unit sends.  Only ``query`` uses the seed."""
    if workload == "sweep":
        return [list(SWEEP)]
    if workload == "sweep-par":
        return [["--threads", str(SWEEP_PAR_THREADS)] + SWEEP]
    if workload == "ordinary":
        return ([["--json", "verify", sel] for sel in VERIFY_PASSED]
                + [["--json", "ordinary", str(m), "--min"] for m in ORDINARY_MIN])
    if workload == "query":
        rng = random.Random(seed)
        out = [["--json", cmd, spec] for spec in query_family() for cmd in QUERY_COMMANDS]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def items_of(workload: str, requests) -> int:
    """Work items one unit completes: semigroups swept, results checked on
    ``ordinary`` (verify lines plus minimum covers), requests on ``query``."""
    if workload in ("sweep", "sweep-par"):
        return expected_sweep()["semigroups"]
    if workload == "ordinary":
        return sum(VERIFY_PASSED.values()) + len(ORDINARY_MIN)
    return len(requests)


@functools.cache
def expected_sweep() -> dict:
    """Census of ``check 8 22 --interval`` stored from the commit that added
    the benchmark; parallel runs must match it as well as serial ones."""
    with open(os.path.join(HERE, "expected_sweep.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def check(argv, code, out) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not one JSON object"
    result = report["result"]
    cmd = report["command"]
    if cmd == "check":
        exp = expected_sweep()
        for key in ("semigroups", "counterexamples", "spectra_census"):
            if result[key] != exp[key]:
                return f"sweep {key} differs from the stored census"
        return None
    if cmd == "verify":
        want = VERIFY_PASSED[result["selector"]]
        if (result["passed"], result["failed"]) != (want, 0):
            return f"verify {result['selector']}: {result['passed']} passed, {result['failed']} failed"
        return None
    if cmd == "ordinary":
        return _check_min(result)
    return _check_query(cmd, argv[-1], result)


def _verified(target, comp_gens, length) -> bool:
    from nsg import core
    from nsg.decompose import VALID_IRREDUNDANT, is_decomposition
    comps = tuple(core.from_generators(g) for g in comp_gens)
    return (len(comps) == length
            and is_decomposition(target, comps).verdict == VALID_IRREDUNDANT)


def _check_min(result) -> str | None:
    from nsg.ordinary import H
    m = result["m"]
    if result["minimum_length"] != ORDINARY_MIN[m]:
        return f"ordinary {m} --min gave {result['minimum_length']}"
    if not _verified(H(m), result["witness"], ORDINARY_MIN[m]):
        return f"ordinary {m} --min witness fails is_decomposition"
    return None


def _check_query(cmd, spec, result) -> str | None:
    from nsg import core
    s = core.from_generators(int(x) for x in spec.split(","))
    if cmd == "info":
        if (result["frobenius"], result["genus"]) != (s.frobenius, s.genus):
            return f"info {spec}: wrong invariants"
        return None
    lengths = result["lengths"]
    if cmd == "lengths":
        witnesses = {int(k): v for k, v in result["witnesses"].items()}
    else:
        witnesses = {d["length"]: [c["generators"] for c in d["components"]]
                     for d in result["decompositions"]}
    if not lengths or sorted(witnesses) != lengths:
        return f"{cmd} {spec}: lengths and witnesses disagree"
    for k, comps in witnesses.items():
        if not _verified(s, comps, k):
            return f"{cmd} {spec}: witness of length {k} fails is_decomposition"
    return None
