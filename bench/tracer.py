"""Span tracing for the benchmark, installed from outside the program.

Every public function of ``nsg.core``, ``nsg.classify``, ``nsg.decompose``
and ``nsg.ordinary``, plus ``nsg.cli.main`` and ``nsg.cli.parse_semigroup``,
is replaced by a wrapper at every module binding that holds it (``special_gaps``
is imported by name into several modules, for instance).  The other ``cli``
helpers (argparse set-up, command dispatch, JSON output) are deliberately left
unwrapped so that their cost is ``cli.main``'s self time.

Each call records one span: function, parent span, request id, start, end and
the budget nodes ticked during the call.  Spans stay in memory in flat arrays
and are written out once, at the end; self times are derived from them.
Generator functions get one span per ``next()``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

LAYER_MODULES = ("core", "classify", "decompose", "ordinary")
CLI_FUNCTIONS = ("main", "parse_semigroup")


def _count_len_result(args, kwargs, result):
    return len(result)


def _count_components(args, kwargs, result):
    comps = args[1] if len(args) > 1 else kwargs["components"]
    return len(tuple(comps))


def _count_witnesses(args, kwargs, result):
    return len(result.witnesses)


#: the work count kept per function: oversemigroups returned, atoms returned,
#: components checked, witnesses returned (generators count items yielded)
COUNTERS = {
    "decompose.oversemigroups": _count_len_result,
    "decompose.irreducible_oversemigroups": _count_len_result,
    "decompose.is_decomposition": _count_components,
    "decompose.length_spectrum": _count_witnesses,
}


def targets():
    """(qualified name, function) for every function the tracer wraps."""
    import nsg.cli  # noqa: F401  (loads every module below)
    out = []
    for mod_name in LAYER_MODULES:
        mod = sys.modules[f"nsg.{mod_name}"]
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            out.append((f"{mod_name}.{name}", obj))
    cli = sys.modules["nsg.cli"]
    out.extend((f"cli.{name}", getattr(cli, name)) for name in CLI_FUNCTIONS)
    return out


class Tracer:
    """Wraps the layer functions, records spans, and restores them on exit."""

    def __init__(self):
        from nsg.decompose import Budget
        self._budget_cls = Budget
        self.names: list[str] = []
        self.fid = array("H")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nodes = array("q")
        self.has_budget: list[bool] = []
        self.calls: list[int] = []
        self.counts: list[int] = []
        self.request = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.lru: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for qual, fn in targets():
            wrappers[id(fn)] = self._wrap(qual, fn)
            if hasattr(fn, "cache_info"):
                self.lru[qual] = fn
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nsg" or mod_name.startswith("nsg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
                    self._patched.append((mod, attr, obj))
        # Forked sweep workers run the program unwrapped: their spans could
        # not be collected anyway, so they should not pay for them.
        os.register_at_fork(after_in_child=self._restore)

    def _restore(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)

    def uninstall(self) -> bool:
        """Put every original binding back; True iff all are restored."""
        self._restore()
        ok = all(getattr(mod, attr) is obj for mod, attr, obj in self._patched)
        self._patched = []
        return ok

    def _wrap(self, qual, fn):
        fid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.counts.append(0)
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        bpos = params.index("budget") if "budget" in params else -1
        self.has_budget.append(bpos >= 0)
        counter = COUNTERS.get(qual)
        budget_cls = self._budget_cls
        fids, parents, reqs = self.fid, self.parent, self.req
        starts, ends, nodes = self.start, self.end, self.nodes
        stack, calls, counts = self._stack, self.calls, self.counts
        clock = time.perf_counter
        tracer = self

        def open_span():
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            reqs.append(tracer.request)
            ends.append(0.0)
            nodes.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i, b, used0):
            ends[i] = clock()
            stack.pop()
            if b is not None:
                nodes[i] = b.used - used0

        def budget_of(args, kwargs):
            if bpos < 0:
                return None
            b = args[bpos] if len(args) > bpos else kwargs.get("budget")
            return b if isinstance(b, budget_cls) else None

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(i, None, 0)
                    counts[fid] += 1
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls[fid] += 1
                b = budget_of(args, kwargs)
                used0 = b.used if b is not None else 0
                i = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(i, b, used0)
                if counter is not None:
                    counts[fid] += counter(args, kwargs, result)
                return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- results ------------------------------------------------------------

    def cache_snapshot(self):
        return {q: f.cache_info() for q, f in self.lru.items()}

    def layer_totals(self):
        """Per function: calls, summed self/total seconds, self/total nodes, counts.

        A span's self time is its duration minus the durations of its direct
        child spans; its self nodes likewise, where a child that takes no
        budget passes on its own children's nodes.
        """
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        child_nodes = [0] * n
        incl_nodes = [0] * n
        fid, parent, nodes, has_budget = self.fid, self.parent, self.nodes, self.has_budget
        for i in range(n - 1, -1, -1):
            incl = nodes[i] if has_budget[fid[i]] else child_nodes[i]
            incl_nodes[i] = incl
            p = parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                child_nodes[p] += incl
        out = [{"calls": self.calls[k], "count": self.counts[k], "self_s": 0.0,
                "total_s": 0.0, "self_nodes": 0, "nodes": 0}
               for k in range(len(self.names))]
        # No traced function calls itself, so summed durations are not
        # double counted in total_s and nodes.
        for i in range(n):
            rec = out[fid[i]]
            rec["self_s"] += dur[i] - child_time[i]
            rec["total_s"] += dur[i]
            rec["self_nodes"] += incl_nodes[i] - child_nodes[i]
            rec["nodes"] += incl_nodes[i]
        return dict(zip(self.names, out))

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "spans": len(self.fid),
                  "arrays": [["fid", "H"], ["parent", "i"], ["request", "i"],
                             ["start", "d"], ["end", "d"], ["nodes", "q"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fid, self.parent, self.req, self.start, self.end, self.nodes):
                arr.tofile(fh)
