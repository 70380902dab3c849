"""Every method the benchmark tracer wraps by name exists on the built caches.

``bench/tracer.py`` wraps store, engine, filter and log-table methods by
attribute name and skips a name that an object lacks, so a renamed method
would zero its per-layer metric without failing anything.  These tests read
the tracer's name maps (the file is only imported, never changed) and check
that each name resolves on caches that ``harness.build_cache`` returns for
the benchmark's restricted cache shapes, and that a seeded replay calls each
one as often as the pinned counts say.
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



# A seeded Zipf trace whose replay runs misses, hits, halvings and filter aging
# on every SPECS cache.
COUNT_TRACE = ZipfSpec(N=5000, s=0.99, length=3000, seed=3)

# Calls per traced name over one replay of COUNT_TRACE, captured before the
# engines' per-packet code was last rewritten.  Engine and store names carry
# the region of a two-region cache as ``@window``/``@main``.
CALL_COUNTS = {
    "hyperbolic": {
        "core.ternary_lookup": 3000,
        "core.read_set_raw": 1153,
        "core.write_set_raw": 1153,
        "core.read_way": 1847,
        "core.write_way_field": 1847,
        "policies.fold": 1153,
        "policies.serve_hit": 1847,
        "hyperbolic.lookup": 36896,
    },
    "lru": {
        "core.ternary_lookup": 3000,
        "core.read_set_raw": 1162,
        "core.write_set_raw": 1162,
        "core.read_way": 1838,
        "core.write_way_field": 1838,
        "policies.fold": 1162,
        "policies.serve_hit": 1838,
    },
    "wtinylfu": {
        "core.ternary_lookup@window": 3000,
        "core.read_set_raw@window": 1257,
        "core.write_set_raw@window": 1257,
        "core.read_way@window": 523,
        "core.write_way_field@window": 523,
        "policies.fold@window": 1257,
        "policies.serve_hit@window": 523,
        "core.ternary_lookup@main": 3000,
        "core.read_set_raw@main": 1193,
        "core.write_set_raw@main": 1193,
        "core.read_way@main": 1220,
        "core.write_way_field@main": 1220,
        "policies.fold@main": 1193,
        "policies.serve_hit@main": 1220,
        "multiregion.record_access": 3000,
        "multiregion.age_step": 187,
        "multiregion.count": 1874,
    },
}


def counted_calls(tracer, cache, multi: bool) -> dict[str, int]:
    """Wrap every name the tracer wraps with a counter on its instance."""
    counts: dict[str, int] = {}

    def count(obj, attr: str, label: str) -> None:
        inner = getattr(obj, attr)
        counts[label] = 0

        def counted(*args, **kwargs):
            counts[label] += 1
            return inner(*args, **kwargs)

        setattr(obj, attr, counted)

    regions = {"@window": cache.window, "@main": cache.main} if multi else {"": cache}
    for suffix, engine in regions.items():
        for attr, span in tracer.STORE_SPANS.items():
            count(engine.store, attr, span + suffix)
        for attr, span in tracer.ENGINE_SPANS.items():
            count(engine, attr, span + suffix)
        if engine.name == "hyperbolic":
            count(engine.log_table, "lookup", "hyperbolic.lookup" + suffix)
    if multi:
        for attr, span in tracer.FILTER_SPANS.items():
            count(cache.filter, attr, span)
    return counts


def replay_counts(tracer, shape: str) -> dict[str, int]:
    config = ExperimentConfig("restricted", SPECS[shape], zipf=COUNT_TRACE)
    trace = harness.load_trace(config)
    cache = harness.build_cache(config, trace)
    counts = counted_calls(tracer, cache, SPECS[shape].multi_region)
    for key in trace.keys:
        cache.fetch(key)
    return counts


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_traced_call_counts_are_pinned(tracer, shape):
    """A change that stops calling a traced name would zero its span silently."""
    assert replay_counts(tracer, shape) == CALL_COUNTS[shape]


PATCHED = ("load_trace", "build_cache", "run_experiment", "_replay_restricted", "emit_report")


@pytest.mark.parametrize("detailed", [True, False])
def test_the_patched_harness_names_run_and_come_back(tracer, detailed):
    """The tracer patches these harness names by ``getattr``: a rename fails here,
    not first in the benchmark, and ``restore`` puts every original back."""
    originals = {name: getattr(harness, name) for name in PATCHED}
    zipf = ZipfSpec(N=100, s=0.99, length=200, seed=1)
    runs = [ExperimentConfig(engine, SPECS["lru"], zipf=zipf)
            for engine in (harness.ENGINE_RESTRICTED, harness.ENGINE_REFERENCE)]
    spans = tracer.Tracer(detailed)
    spans.install()
    try:
        reports = [harness.run_experiment(config) for config in runs]
        harness.emit_report(reports, "csv")
    finally:
        spans.restore()
    assert all(getattr(harness, name) is fn for name, fn in originals.items())
    counts = {name: span.count for name, span in spans.spans.items()
              if name.startswith(("harness.", "traces."))}
    expected = {"traces.ingest": 2, "harness.build_cache": 2, "harness.run_experiment": 2}
    if detailed:
        expected.update({"harness.replay": 1, "harness.emit_report": 1})
    assert counts == expected
