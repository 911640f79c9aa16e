"""Benchmark of the nsg command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each run measures set-up (interpreter start plus ``import nsg``) several
times, then repeats *units* of the workload, each in a fresh interpreter (see
``unit.py``), until ``--seconds`` are used.  Every output is checked.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced units and reports the
per-layer metrics and the tracing overhead instead.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

#: set-up is timed this many times before each unit, so its samples spread
#: over the run like the units' own
SETUP_PER_UNIT = 5
#: a run must end within 180 s; stop starting units, and kill a stuck one, here
DEADLINE_S = 165
SPANS_DIR = ".bench_out"

UNITS = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "p50_ms": "ms",
         "p99_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env(src):
    env = dict(os.environ)
    env.pop("NSG_BUDGET", None)  # the default budget, as a user gets it
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NSG_BENCH_SRC"] = src
    return env


def spawn(cmd, env, stdin, timeout):
    """Run cmd to completion in its own process group; kill the group on timeout."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + b"\nkilled: unit ran past the run's deadline", t0
    return proc.returncode, out, err, t0


def measure_setup(env, timeout, samples):
    """Append ``samples`` timings of interpreter start plus ``import nsg``."""
    cmd = [sys.executable, "-c", "import nsg"]
    for _ in range(SETUP_PER_UNIT):
        code, _, err, t0 = spawn(cmd, env, b"", timeout)
        samples.append(time.monotonic() - t0)
        if code != 0:
            raise RuntimeError(f"import nsg failed: {err.decode(errors='replace').strip()}")


def run_unit(workload, requests, env, traced, timeout):
    cmd = [sys.executable, os.path.join(HERE, "unit.py"), "--workload", workload]
    if traced:
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{workload}.spans")]
    code, out, err, _ = spawn(cmd, env, json.dumps(requests).encode(), timeout)
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(f"unit failed (exit {code}): {err.decode(errors='replace')[-2000:]}\n")
        return None
    return json.loads(lines[-1])


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, units, setup_s):
    # A query request is what a user waits for; on the other workloads it is
    # the whole unit (one sweep, or the five ordinary commands as one script).
    if workload == "query":
        lat = [x for u in units for x in u["latencies_ms"]]
    else:
        lat = [u["wall_s"] * 1000 for u in units]
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "items_per_s": statistics.median(u["items"] / u["wall_s"] for u in units),
        "p50_ms": statistics.median(lat),
        "p99_ms": percentile(lat, 99),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "setup_s": setup_s,
    }, len(lat)


def per_layer(plain, traced):
    """Median times over the traced units; counts repeat exactly, so the first's."""
    out = {}
    for k, v in traced[0]["layers"].items():
        if layer_unit(k) == "s":
            v = statistics.median(u["layers"][k] for u in traced)
        elif any(u["layers"][k] != v for u in traced):
            print(f"warning: {k} differs between traced units")
        out[k] = v
    out["budget.nodes"] = traced[0]["budget_nodes"]
    out["trace.spans"] = traced[0]["spans"]
    out["trace.overhead_s"] = (statistics.median(u["wall_s"] for u in traced)
                               - statistics.median(u["wall_s"] for u in plain))
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_rate", "yield")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + DEADLINE_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "nsg", "__init__.py")):
        print("error: run from the root of an nsg checkout (src/nsg not found)",
              file=sys.stderr)
        return 2
    env = child_env(src)
    requests = workloads.make_requests(args.workload, args.seed)

    setup = []
    try:
        measure_setup(env, deadline - time.monotonic(), [])  # may compile bytecode
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plain, traced, lost = [], [], 0
    min_units = 2
    t_loop = time.monotonic()
    while True:
        done = len(plain) + len(traced) + lost
        used = time.monotonic() - t_loop
        if done >= min_units and used * (done + 1) / done > args.seconds:
            break
        if time.monotonic() > deadline - 1:
            break
        measure_setup(env, deadline - time.monotonic(), setup)
        is_traced = bool(args.trace) and done % 2 == 1
        u = run_unit(args.workload, requests, env, is_traced, deadline - time.monotonic())
        if u is None:
            lost += 1
        else:
            (traced if is_traced else plain).append(u)
    if not plain or (args.trace and not traced):
        print("error: no unit of the workload completed", file=sys.stderr)
        return 1

    units = plain + traced
    attempted = sum(u["attempted"] for u in units) + lost * len(requests)
    failed = sum(u["failed"] for u in units) + lost * len(requests)
    reasons = [r for u in units for r in u["reasons"]]
    if lost:
        reasons.append(f"{lost} unit(s) crashed or ran past the deadline")
    # --json output is deterministic, traced or not: every unit prints the same bytes
    ref = plain[0]["digest"]
    for u in units:
        if u["digest"] != ref:
            failed += u["attempted"] - u["failed"]
            reasons.append("output bytes differ between units"
                           + (" (traced vs untraced)" if "layers" in u else ""))
    if any(not u["unwrapped"] for u in traced):
        reasons.append("tracing wrappers were not all removed")

    if args.trace:
        metrics = per_layer(plain, traced)
        units_of = {k: layer_unit(k) for k in metrics}
    else:
        metrics, samples = end_to_end(args.workload, plain, statistics.median(setup))
        units_of = UNITS

    env_info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "start_method": multiprocessing.get_start_method(),
                "units": len(plain), "traced_units": len(traced), "lost_units": lost,
                "run_s": round(time.monotonic() - started, 3)}
    print("env " + json.dumps(env_info, sort_keys=True))
    for r in sorted(set(reasons)):
        print(f"failure: {r}")
    for k in sorted(metrics):
        print(f"{k} = {metrics[k]} {units_of[k]}")
    print(f"fail_frac = {failed / attempted} 1 ({failed} of {attempted} outputs wrong)")
    if not args.trace:
        print(f"latency samples = {samples}")
    elif args.workload == "sweep-par":
        print("sweep-par: workers are not traced; these are the parent process's figures")
    correct = failed == 0 and not reasons
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
