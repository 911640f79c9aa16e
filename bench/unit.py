"""One unit of a workload, in a fresh interpreter.

Reads the requests (a JSON list of argv lists) on stdin, sends each to
``nsg.cli.main`` in process, then checks every output outside the timed
region and prints one JSON object as its last line of stdout.  With
``--spans PATH`` the layer functions are traced during the requests, the
wrappers are removed again before the checks, and the spans are written to
PATH.

    PYTHONPATH=src python3 bench/unit.py --workload sweep < requests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads

#: per-layer statistics reported from a traced unit, by traced function
LAYER_STATS = {
    "decompose.is_decomposition": ("calls", "self_s", "components"),
    "decompose.oversemigroups": ("calls", "self_s", "results"),
    "decompose.irreducible_oversemigroups": ("calls", "self_s", "atoms", "nodes", "yield"),
    "decompose.length_spectrum": ("calls", "self_s", "nodes", "witnesses"),
    "decompose.minimum_cover": ("calls", "self_s", "nodes"),
    "ordinary.min_ordinary_length": ("self_s",),
    "decompose.kunz_semigroups": ("items", "self_s"),
    "decompose.check_interval": ("total_s",),
    "classify.special_gaps": ("calls", "self_s", "hit_rate"),
    "classify.classify": ("calls", "self_s", "hit_rate"),
    "classify.pseudo_frobenius": ("calls", "self_s", "hit_rate"),
    "core.from_gaps": ("calls", "self_s"),
    "core.from_generators": ("calls", "self_s"),
    "core.intersect_all": ("calls", "self_s"),
    "ordinary.D": ("calls", "self_s"),
    "ordinary.T_irr": ("calls", "self_s"),
    "ordinary.I_irr": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.parse_semigroup": ("self_s",),
}

#: functions whose ``nodes`` counts every budget tick inside the call; for the
#: others ``nodes`` excludes ticks inside nested traced calls (for
#: length_spectrum that leaves the cover search)
INCLUSIVE_NODES = {"decompose.irreducible_oversemigroups"}


def layer_metrics(totals, cache0, cache1) -> dict:
    out = {}
    for qual, stats in LAYER_STATS.items():
        t = totals[qual]
        for stat in stats:
            if stat in ("calls", "self_s", "total_s"):
                v = t[stat]
            elif stat == "nodes":
                v = t["nodes"] if qual in INCLUSIVE_NODES else t["self_nodes"]
            elif stat == "yield":
                v = t["count"] / t["nodes"] if t["nodes"] else 0.0
            elif stat == "hit_rate":
                hits = cache1[qual].hits - cache0[qual].hits
                misses = cache1[qual].misses - cache0[qual].misses
                v = hits / (hits + misses) if hits + misses else 0.0
            else:  # a work count kept by the wrapper
                v = t["count"]
            out[f"{qual}.{stat}"] = v
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spans", default=None, help="trace the run and write spans here")
    args = ap.parse_args()
    requests = json.load(sys.stdin)

    import nsg.cli
    src = os.environ.get("NSG_BENCH_SRC")
    if src and not os.path.abspath(nsg.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"nsg imported from {nsg.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        cache0 = tracer.cache_snapshot()

    outputs = []
    latencies = []
    cpu0 = time.process_time()
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nsg.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the request
                code = exc.code
        latencies.append(time.perf_counter() - t0)
        outputs.append((code, out.getvalue()))
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (time.process_time() - cpu0 + kids1.ru_utime - kids0.ru_utime
             + kids1.ru_stime - kids0.ru_stime)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids1.ru_maxrss)

    result = {}
    if tracer is not None:
        cache1 = tracer.cache_snapshot()
        result["unwrapped"] = tracer.uninstall()
        result["layers"] = layer_metrics(tracer.layer_totals(), cache0, cache1)
        result["spans"] = len(tracer.fid)
        tracer.write(args.spans)

    failed = 0
    reasons = []
    budget_nodes = 0
    digest = hashlib.sha256()
    for argv, (code, out) in zip(requests, outputs):
        digest.update(f"{code}\n{out}".encode())
        try:
            reason = workloads.check(argv, code, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is None:
            budget_nodes += json.loads(out)["stats"]["budget_used"]
        else:
            failed += 1
            if len(reasons) < 5:
                reasons.append(reason)

    result.update({
        "wall_s": sum(latencies),
        "latencies_ms": [x * 1000 for x in latencies],
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024,
        "items": workloads.items_of(args.workload, requests),
        "attempted": len(requests),
        "failed": failed,
        "reasons": reasons,
        "digest": digest.hexdigest(),
        "budget_nodes": budget_nodes,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
