"""Every method the benchmark tracer wraps by name exists on the built caches.

``bench/tracer.py`` wraps store, engine, filter and log-table methods by
attribute name and skips a name that an object lacks, so a renamed method
would zero its per-layer metric without failing anything.  These tests read
the tracer's name maps (the file is only imported, never changed) and check
that each name resolves on caches that ``harness.build_cache`` returns for
the benchmark's restricted cache shapes.
"""

import importlib.util
from pathlib import Path

import pytest

from dpcache import harness
from dpcache.harness import CacheSpec, ExperimentConfig
from dpcache.traces import ZipfSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

SPECS = {
    "lru": CacheSpec("lru", 64, 8),
    "hyperbolic": CacheSpec("hyperbolic", 16, 32),
    "wtinylfu": CacheSpec("lru", 16, 16, window_policy="lru", k_w=4, d_w=16, filter="tinylfu"),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(spec: CacheSpec):
    config = ExperimentConfig("restricted", spec, zipf=ZipfSpec(N=1000, s=0.99, length=200, seed=1))
    return harness.build_cache(config, harness.load_trace(config))


def assert_methods(obj, names) -> None:
    missing = [name for name in names if not callable(getattr(obj, name, None))]
    assert not missing, f"{type(obj).__name__} lacks traced methods {missing}"


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_every_traced_name_resolves(tracer, shape):
    cache = build(SPECS[shape])
    multi = SPECS[shape].multi_region
    engines = [cache.window, cache.main] if multi else [cache]
    for engine in engines:
        assert_methods(engine.store, tracer.STORE_SPANS)
        assert_methods(engine, tracer.ENGINE_SPANS)
        # the sweep counter watches the maintenance clock of each engine
        assert isinstance(getattr(engine, "tick", getattr(engine, "clock", None)), int)
        if engine.name == "hyperbolic":
            assert_methods(engine.log_table, ["lookup"])
    if multi:
        assert_methods(cache.filter, tracer.FILTER_SPANS)

