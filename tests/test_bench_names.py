"""The benchmark's tracer finds the layer functions it reports by name.

`bench/unit.py` reports per-layer statistics under `LAYER_STATS`, keyed by
`<module>.<function>`, and `bench/tracer.py` wraps only public functions
defined in those modules (and reads the `lru_cache` hit rates of some).  A
library change that renames, privatises or uncaches one of them breaks the
benchmark; this catches it without running the benchmark.
"""

import importlib
import inspect
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def layer_stats():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(BENCH)  # unit.py imports its sibling `workloads`
    try:
        unit = importlib.import_module("unit")
        yield unit.LAYER_STATS
    finally:
        mp.undo()
        for name in ("unit", "workloads"):
            sys.modules.pop(name, None)


def test_layer_stats_name_public_functions(layer_stats):
    assert layer_stats
    for qual in layer_stats:
        mod_name, name = qual.split(".")
        mod = importlib.import_module(f"nsg.{mod_name}")
        fn = getattr(mod, name, None)
        assert not name.startswith("_") and callable(fn) and not inspect.isclass(fn), qual
        assert fn.__module__ == mod.__name__, qual


def test_classify_caches_keep_cache_info(layer_stats):
    for qual in ("classify.special_gaps", "classify.classify", "classify.pseudo_frobenius"):
        assert qual in layer_stats
        mod_name, name = qual.split(".")
        assert hasattr(getattr(importlib.import_module(f"nsg.{mod_name}"), name), "cache_info")
