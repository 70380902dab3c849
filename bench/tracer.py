"""Span tracing of dpcache from outside the program.

The tracer replaces module attributes of ``dpcache.harness`` and instance
attributes of every cache that ``build_cache`` returns with timing wrappers.
The program's source is never edited, and the module attributes are restored
when a pipeline run ends.  Spans aggregate in memory per name: call count,
total time and self time (total minus the time spent in traced children,
including the children's own wrapper bookkeeping).

With ``detailed=False`` only the harness phases are timed (a handful of calls
per experiment), which is how the untraced run splits set-up from replay.
With ``detailed=True`` every layer is wrapped, packet-level fetches feed a
latency histogram and a per-event hit/miss stream, and maintenance sweeps
are counted.  Names that a cache object does not have are skipped, so the
tracer keeps working when the program's internals change shape.
"""

from __future__ import annotations

import time

from dpcache import harness

# Attributes of RegisterStore, policy engines, LogTable and CountingFilter
# that are wrapped, with the span name each one records under.
STORE_SPANS = {
    "ternary_lookup": "core.ternary_lookup",
    "read_set_raw": "core.read_set_raw",
    "write_set_raw": "core.write_set_raw",
    "read_way": "core.read_way",
    "write_way_field": "core.write_way_field",
}
ENGINE_SPANS = {
    "insert_pending_raw": "policies.fold",
    "serve_hit": "policies.serve_hit",
}
FILTER_SPANS = {
    "record_access": "multiregion.record_access",
    "age_step": "multiregion.age_step",
    "count": "multiregion.count",
}

# Latency histogram: exact below 32 ns, then 16 buckets per power of two
# (about 4% resolution); 1024 buckets reach far beyond any fetch.
HIST_BUCKETS = 1024


def bucket_of(ns: int) -> int:
    bits = ns.bit_length()
    if bits <= 5:
        return ns
    shift = bits - 5
    return (shift << 4) + (ns >> shift)


def bucket_floor(index: int) -> int:
    """Smallest latency that lands in ``index``."""
    if index < 32:
        return index
    shift = (index - 16) >> 4
    return (index - (shift << 4)) << shift


def histogram_quantile(hist: list[int], q: float) -> float:
    """Latency at quantile ``q``, taken as the middle of its bucket."""
    total = sum(hist)
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for index, n in enumerate(hist):
        seen += n
        if seen > rank:
            low = bucket_floor(index)
            high = bucket_floor(index + 1)
            return (low + high) / 2
    raise AssertionError("quantile beyond the histogram")


class Span:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Collects spans for one workload; ``install`` patches, ``restore`` undoes."""

    def __init__(self, detailed: bool) -> None:
        self.detailed = detailed
        self.spans: dict[str, Span] = {}
        # time covered by traced children of each open span; the bottom
        # entry absorbs top-level spans
        self._stack = [0]
        self.hist = [0] * HIST_BUCKETS
        self.streams: list[bytearray] = []
        self.sweeps = 0
        self.halvings = 0
        self.halving_fetch_ns = 0
        self.loaded_events = 0
        self.last_trace = None
        self._saved: dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str) -> Span:
        found = self.spans.get(name)
        if found is None:
            found = self.spans[name] = Span()
        return found

    def wrap(self, name: str, fn):
        span = self.span(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            child = stack.pop()
            span.count += 1
            span.total_ns += t1 - t0
            span.self_ns += t1 - t0 - child
            stack[-1] += clock() - t0
            return result

        return traced

    def wrap_packet(self, name: str, fn, clocks: list[tuple[object, str]], histogram: bool):
        """Wrap a packet-level fetch: stream, latency histogram and sweeps.

        ``clocks`` lists (engine, attribute) pairs of maintenance clocks; a
        fetch during which one decreases ran a sweep.  ``tick`` belongs to
        the hyperbolic engine, whose sweeps are the halvings.
        """
        span = self.span(name)
        stack = self._stack
        clock = time.perf_counter_ns
        stream = bytearray()
        self.streams.append(stream)
        hist = self.hist

        def traced(key):
            before = [getattr(obj, attr) for obj, attr in clocks]
            stack.append(0)
            t0 = clock()
            result = fn(key)
            t1 = clock()
            child = stack.pop()
            dt = t1 - t0
            span.count += 1
            span.total_ns += dt
            span.self_ns += dt - child
            stream.append(1 if result[0] else 0)
            if histogram:
                hist[bucket_of(dt)] += 1
            for (obj, attr), old in zip(clocks, before):
                if getattr(obj, attr) < old:
                    self.sweeps += 1
                    if attr == "tick":
                        self.halvings += 1
                        self.halving_fetch_ns += dt
            stack[-1] += clock() - t0
            return result

        return traced

    def _wrap_attrs(self, obj, names: dict[str, str], suffix: str = "") -> None:
        for attr, span_name in names.items():
            fn = getattr(obj, attr, None)
            if fn is not None:
                setattr(obj, attr, self.wrap(span_name + suffix, fn))

    # -- instrumentation of built caches -----------------------------------

    def _instrument_engine(self, engine, suffix: str = "") -> None:
        store = getattr(engine, "store", None)
        if store is not None:
            self._wrap_attrs(store, STORE_SPANS)
        self._wrap_attrs(engine, ENGINE_SPANS, suffix)
        table = getattr(engine, "log_table", None)
        if table is not None:
            self._wrap_attrs(table, {"lookup": "hyperbolic.lookup"})

    @staticmethod
    def _clocks(engines) -> list[tuple[object, str]]:
        clocks = []
        for engine in engines:
            for attr in ("tick", "clock"):
                if isinstance(getattr(engine, attr, None), int):
                    clocks.append((engine, attr))
                    break
        return clocks

    def instrument(self, cache, reference: bool) -> None:
        """Wrap every traced layer of a freshly built cache."""
        if reference:
            cache.fetch = self.wrap_packet("oracle.fetch", cache.fetch, [], histogram=False)
            return
        window = getattr(cache, "window", None)
        main = getattr(cache, "main", None)
        if window is not None and main is not None:
            engines = [window, main]
            self._instrument_engine(window, "@window")
            self._instrument_engine(main, "@main")
            flt = getattr(cache, "filter", None)
            if flt is not None:
                self._wrap_attrs(flt, FILTER_SPANS)
        else:
            engines = [cache]
            self._instrument_engine(cache)
        cache.fetch = self.wrap_packet("policies.fetch", cache.fetch,
                                       self._clocks(engines), histogram=True)

    # -- harness patching -----------------------------------------------------

    def install(self) -> None:
        for name in ("load_trace", "build_cache", "run_experiment",
                     "_replay_restricted", "emit_report"):
            self._saved[name] = getattr(harness, name)
        harness.load_trace = self._traced_load(self._saved["load_trace"])
        harness.build_cache = self._traced_build(self._saved["build_cache"])
        harness.run_experiment = self.wrap("harness.run_experiment", self._saved["run_experiment"])
        if self.detailed:
            harness._replay_restricted = self.wrap("harness.replay", self._saved["_replay_restricted"])
            harness.emit_report = self.wrap("harness.emit_report", self._saved["emit_report"])

    def restore(self) -> None:
        for name, fn in self._saved.items():
            setattr(harness, name, fn)
        self._saved.clear()

    def _traced_load(self, fn):
        timed = self.wrap("traces.ingest", fn)

        def load(config):
            trace = timed(config)
            self.loaded_events += len(trace.keys)
            self.last_trace = trace
            return trace

        return load

    def _traced_build(self, fn):
        timed = self.wrap("harness.build_cache", fn)
        detailed = self.detailed

        def build(config, trace):
            cache = timed(config, trace)
            if detailed:
                self.instrument(cache, config.engine == harness.ENGINE_REFERENCE)
            return cache

        return build

    # -- aggregates ---------------------------------------------------------

    def total(self, prefix: str) -> Span:
        """Sum of the spans named ``prefix`` or ``prefix@<region>``."""
        out = Span()
        for name, span in self.spans.items():
            if name == prefix or name.startswith(prefix + "@"):
                out.count += span.count
                out.total_ns += span.total_ns
                out.self_ns += span.self_ns
        return out
