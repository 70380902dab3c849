import hashlib
import json
import time
from dataclasses import replace
from functools import partial

import pytest

from dpcache import harness, traces
from dpcache.cli import main
from dpcache.core import LayoutConfig, LayoutError
from dpcache.harness import (
    CacheSpec,
    ConfigError,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_sweep,
)
from dpcache.hyperbolic import _build_entries
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.policies import POLICIES, LruEngine, make_engine
from dpcache.traces import ZipfSpec, generate_zipf


def plain_trace(tmp_path, keys, name="t.trace"):
    path = tmp_path / name
    path.write_text("".join(f"{key}\n" for key in keys))
    return str(path)


def single(policy="lru", k=2, d=1, **kwargs):
    return CacheSpec(policy=policy, k=k, d=d, **kwargs)


class TestRunExperiment:
    def test_hit_ratio_arithmetic(self, tmp_path):
        # 10 events, 3 hits at capacity 2: 1,2 miss; 1,2 hit; 3 miss evicts 1...
        keys = [1, 2, 1, 2, 3, 4, 5, 6, 7, 7]
        path = plain_trace(tmp_path, keys)
        cfg = ExperimentConfig(engine="restricted", cache=single(), trace_path=path)
        report = run_experiment(cfg)
        assert report.events == 10
        assert report.hits == 3
        assert report.misses == 7
        assert report.hit_ratio == pytest.approx(0.3)

    def test_restricted_equals_reference_lru(self, tmp_path):
        path = plain_trace(tmp_path, [1, 2, 3, 1, 2, 4, 1, 5, 2, 2, 3, 3])
        base = ExperimentConfig(engine="restricted", cache=single(k=2, d=2),
                                trace_path=path)
        restricted = run_experiment(base)
        from dataclasses import replace
        reference = run_experiment(replace(base, engine="reference"))
        assert (restricted.hits, restricted.misses) == (reference.hits, reference.misses)

    def test_hit_packet_costs(self, tmp_path):
        path = plain_trace(tmp_path, [1, 1])
        cfg = ExperimentConfig(engine="restricted", cache=single(), trace_path=path)
        report = run_experiment(cfg)
        # one miss, exactly (1, 1 + 2k, 1 + 2k), and one hit, exactly (1, 1, 1)
        assert (report.max_tcam, report.max_reads, report.max_writes) == (1, 1 + 2 * 2, 1 + 2 * 2)
        assert (report.total_tcam, report.total_reads, report.total_writes) == (2, 2 + 2 * 2, 2 + 2 * 2)

    @pytest.mark.parametrize("on_hit, extra_reads, key", [(True, 1, 7), (False, -1, 3)],
                             ids=["hit-one-read-too-many", "miss-one-read-too-few"])
    def test_a_packet_off_its_exact_cost_names_its_key(self, on_hit, extra_reads, key):
        class MisChargingLru(LruEngine):
            def fetch(self, key):
                result = super().fetch(key)
                if result[0] == on_hit:
                    self.store.counter.register_reads += extra_reads
                return result

        # 3 and 7 miss, the second 7 hits
        cache = MisChargingLru(LayoutConfig(k=2, d=1))
        with pytest.raises(AssertionError, match=rf"cost .* on key {key}$"):
            harness._replay_restricted(cache, [3, 7, 7])

    def test_two_region_operation_totals(self):
        # a twin of the cache classifies each packet as c06 does: a miss grows
        # the window's live keys when the window absorbs it, and otherwise its
        # window victim meets the main region, admitted or not
        k_w, k_m = 2, 4
        cfg = ExperimentConfig(
            engine="restricted",
            cache=CacheSpec(policy="lru", k=k_m, d=4, window_policy="fifo",
                            k_w=k_w, d_w=2, filter="tinylfu"),
            zipf=ZipfSpec(N=200, s=0.9, length=3000, seed=12),
        )
        trace = harness.load_trace(cfg)
        twin = harness.build_cache(cfg, trace)
        hits = absorbed = reached_main = 0
        for key in trace.keys:
            window_size = len(twin.window.live_keys())
            if twin.fetch(key)[0]:
                hits += 1
            elif len(twin.window.live_keys()) > window_size:
                absorbed += 1
            else:
                reached_main += 1
        assert hits and absorbed and reached_main
        report = run_experiment(cfg, trace)
        assert report.hits == hits
        assert report.total_tcam == 2 * report.events
        reads = hits + absorbed * (1 + 2 * k_w) + reached_main * (2 + 2 * k_w + 2 * k_m)
        assert report.total_reads == report.total_writes == reads
        assert (report.max_tcam, report.max_reads, report.max_writes) == \
            (2, 2 + 2 * k_w + 2 * k_m, 2 + 2 * k_w + 2 * k_m)

    def test_reference_reports_no_ops(self, tmp_path):
        path = plain_trace(tmp_path, [1, 2, 3])
        cfg = ExperimentConfig(engine="reference", cache=single(), trace_path=path)
        report = run_experiment(cfg)
        assert report.max_reads == report.total_reads == 0

    def test_multi_region_label(self, tmp_path):
        path = plain_trace(tmp_path, [1, 2, 3, 4, 5])
        cfg = ExperimentConfig(
            engine="restricted",
            cache=CacheSpec(policy="lru", k=2, d=2, window_policy="fifo",
                            k_w=1, d_w=2, filter="tinylfu"),
            trace_path=path,
        )
        report = run_experiment(cfg)
        assert report.policy == "fifo*lru*tinylfu"
        assert (report.k_w, report.d_w, report.k_m, report.d_m) == (1, 2, 2, 2)

    def test_validation_errors(self, tmp_path):
        path = plain_trace(tmp_path, [1])
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(engine="quantum", cache=single(),
                                            trace_path=path))
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(engine="restricted", cache=single()))
        with pytest.raises(ConfigError):
            ExperimentConfig(
                engine="restricted",
                cache=CacheSpec(policy="lru", k=2, d=1, filter="tinylfu"),
                trace_path=path,
            ).validate()

    @pytest.mark.parametrize("engine", ["restricted", "reference"])
    @pytest.mark.parametrize("window", [{}, dict(window_policy="lru", k_w=2, d_w=2)])
    def test_unknown_filter_rejected(self, tmp_path, engine, window):
        path = plain_trace(tmp_path, [1, 2, 1])
        cfg = ExperimentConfig(engine=engine, cache=single(filter="bogus", **window),
                               trace_path=path)
        with pytest.raises(ConfigError, match="^unknown filter 'bogus'$"):
            run_experiment(cfg)

    @pytest.mark.parametrize("window", [
        dict(window_policy="fifo"),
        dict(window_policy="fifo", d_w=2),
        dict(window_policy="fifo", k_w=2),
        dict(k_w=2, d_w=2),
        dict(d_w=2),
        dict(window_policy="fifo", k_w=-1, d_w=2),
    ])
    def test_window_policy_and_region_come_together(self, window):
        with pytest.raises(ConfigError, match="window"):
            single(**window).validate()


def recount(cache, keys):
    """Per-packet accounting by zeroing the counter before every fetch: the
    replay's hits, cost totals and cost maxima must equal these."""
    counter = (cache.window if isinstance(cache, MultiRegionCache) else cache).store.counter
    hits = 0
    totals, maxima = [0, 0, 0], [0, 0, 0]
    for key in keys:
        counter.reset()
        hits += cache.fetch(key)[0]
        cost = (counter.tcam_matches, counter.register_reads, counter.register_writes)
        totals = [a + b for a, b in zip(totals, cost)]
        maxima = [max(a, b) for a, b in zip(maxima, cost)]
    return hits, tuple(totals), tuple(maxima)


ACCOUNTING_KEYS = generate_zipf(ZipfSpec(N=300, s=0.9, length=4000, seed=28)).keys.tolist()
K_W, K_M = 2, 4


def single_region(policy):
    return make_engine(policy, LayoutConfig(k=K_M, d=4))


def two_region(k_w=K_W, d_w=2):
    return MultiRegionCache(RegionSpec("lru", k_w, d_w), RegionSpec("lru", K_M, 4), 301, "tinylfu")


CACHES = pytest.mark.parametrize("build", [partial(single_region, p) for p in POLICIES] + [two_region],
                                 ids=[*POLICIES, "two-region"])


class TestReplayAccounting:
    @CACHES
    @pytest.mark.parametrize("keys", [ACCOUNTING_KEYS, [5] * 10, []],
                             ids=["zipf", "one-key", "empty"])
    def test_replay_equals_the_recount(self, build, keys):
        expected = recount(build(), keys)
        assert harness._replay_restricted(build(), keys) == expected

    @CACHES
    @pytest.mark.parametrize("keys", [ACCOUNTING_KEYS, [5] * 10], ids=["zipf", "one-key"])
    def test_replay_on_a_used_counter(self, build, keys):
        # a second replay on the same cache counts only its own packets; with
        # one key, every packet of the second replay hits
        cache, twin = build(), build()
        half = len(keys) // 2
        for part in (keys[:half], keys[half:]):
            assert harness._replay_restricted(cache, part) == recount(twin, part)

    def test_no_miss_reaches_the_main_region(self):
        # four keys in one window set of four ways: the window absorbs every miss
        keys = [1, 2, 3, 4] * 5
        result = harness._replay_restricted(two_region(4, 1), keys)
        assert result[2] == (2, 1 + 2 * 4, 1 + 2 * 4)
        assert result == recount(two_region(4, 1), keys)


class TestRunSweep:
    def test_k_sweep_grid(self):
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy="lru", k=8, d=64),
            zipf=ZipfSpec(N=2000, s=0.99, length=4000, seed=11),
        )
        reports = run_sweep(cfg, k_values=[8, 16, 32, 64], capacity=512)
        assert [(r.k_m, r.d_m) for r in reports] == [
            (8, 64), (16, 32), (32, 16), (64, 8)]

    def test_k_must_divide_capacity(self):
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy="lru"),
            zipf=ZipfSpec(N=100, s=1.0, length=10, seed=1),
        )
        with pytest.raises(ConfigError):
            run_sweep(cfg, k_values=[3], capacity=512)
        with pytest.raises(ConfigError):
            run_sweep(cfg, k_values=[0], capacity=512)
        with pytest.raises(ConfigError):
            run_sweep(replace(cfg, cache=single(policy="lru", k=0, d=4)), sizes=[8])

    def test_size_sweep_full_associative_stack_property(self):
        cfg = ExperimentConfig(
            engine="reference", cache=single(policy="lru", k=128, d=1),
            zipf=ZipfSpec(N=3000, s=0.99, length=30_000, seed=13),
        )
        sizes = [2**7, 2**8, 2**9, 2**10, 2**11]
        reports = run_sweep(cfg, sizes=sizes)
        ratios = [r.hit_ratio for r in reports]
        assert ratios == sorted(ratios)

    def test_integer_factor_sweep(self):
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy="hyperbolic", k=4, d=4),
            zipf=ZipfSpec(N=300, s=0.99, length=3000, seed=17),
        )
        reports = run_sweep(cfg, integer_factors=["0.1", "1", "10", "100", "1000"])
        assert [r.integer_factor for r in reports] == ["0.1", "1", "10", "100", "1000"]

    @pytest.mark.parametrize("policy, axis, error", [
        # 128 ways of 32-bit keys need a 4096-bit mask, over the 2048-bit limit
        ("lru", {"k_values": [8, 16, 32, 64, 128], "capacity": 512}, LayoutError),
        ("lru", {"k_values": [8, 0], "capacity": 512}, ConfigError),
        ("hyperbolic", {"integer_factors": ["1", "100", "abc"]}, ValueError),
        ("hyperbolic", {"integer_factors": ["1", "1/0"]}, ValueError),
        ("hyperbolic", {"integer_factors": ["1", "0"]}, ConfigError),
        # a factor no engine uses is still printed in the report
        ("lru", {"integer_factors": ["1", "bogus"]}, ConfigError),
    ])
    def test_bad_grid_point_raises_before_any_replay(self, monkeypatch, policy, axis, error):
        replayed = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, trace=None: replayed.append(cfg))
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy=policy, k=8, d=64),
            zipf=ZipfSpec(N=2000, s=0.99, length=100, seed=11),
        )
        _build_entries.cache_clear()
        with pytest.raises(error):
            run_sweep(cfg, **axis)
        assert replayed == []
        # the check builds no log table, so build_cache still pays for it
        assert _build_entries.cache_info().currsize == 0

    @pytest.mark.parametrize("axis", [
        dict(sizes=[8, 16]), dict(integer_factors=["1", "100"]),
    ], ids=["sizes", "integer_factors"])
    def test_capacity_belongs_to_the_k_axis(self, monkeypatch, axis):
        loaded = []
        monkeypatch.setattr(harness, "load_trace", lambda cfg: loaded.append(cfg))
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy="hyperbolic", k=4, d=4),
            zipf=ZipfSpec(N=100, s=0.99, length=100, seed=1),
        )
        with pytest.raises(ConfigError, match="^capacity applies to the k_values axis only$"):
            run_sweep(cfg, capacity=512, **axis)
        assert loaded == []

    @pytest.mark.parametrize("engine", ["restricted", "reference"])
    @pytest.mark.parametrize("policy", ["lru", "hyperbolic"])
    def test_integer_factor_checked_for_every_run(self, monkeypatch, engine, policy):
        loaded = []
        monkeypatch.setattr(harness, "load_trace", lambda cfg: loaded.append(cfg))
        cfg = ExperimentConfig(
            engine=engine, cache=single(policy=policy, k=4, d=4, integer_factor="bogus"),
            zipf=ZipfSpec(N=100, s=0.99, length=100, seed=1),
        )
        with pytest.raises(ConfigError, match="bogus"):
            run_experiment(cfg)
        assert loaded == []

    def test_reference_grid_point_checked_before_any_replay(self, monkeypatch):
        replayed = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, trace=None: replayed.append(cfg))
        cfg = ExperimentConfig(
            engine="reference", cache=single(policy="lru", k=128, d=1),
            zipf=ZipfSpec(N=2000, s=0.99, length=100, seed=11),
        )
        with pytest.raises(ConfigError):
            run_sweep(cfg, sizes=[128, 0])
        assert replayed == []

    def test_unknown_filter_rejected_before_the_trace_loads(self, monkeypatch):
        loaded = []
        monkeypatch.setattr(harness, "load_trace", lambda cfg: loaded.append(cfg))
        cfg = ExperimentConfig(
            engine="restricted",
            cache=single(k=2, d=2, window_policy="lru", k_w=2, d_w=2, filter="bogus"),
            zipf=ZipfSpec(N=2000, s=0.99, length=100, seed=11),
        )
        with pytest.raises(ConfigError, match="^unknown filter 'bogus'$"):
            run_sweep(cfg, sizes=[4, 8])
        assert loaded == []

    @pytest.mark.parametrize("engine", ["restricted", "reference"])
    @pytest.mark.parametrize("cache", [
        single(policy="bogus"),
        single(k=2, d=2, window_policy="bogus", k_w=2, d_w=2, filter="tinylfu"),
    ], ids=["policy", "window_policy"])
    @pytest.mark.parametrize("run", [
        run_experiment,
        lambda cfg: run_sweep(cfg, sizes=[4, 8]),
    ], ids=["run_experiment", "run_sweep"])
    def test_unknown_policy_rejected_before_the_trace_loads(self, monkeypatch, engine, cache, run):
        loaded = []
        monkeypatch.setattr(harness, "load_trace", lambda cfg: loaded.append(cfg))
        cfg = ExperimentConfig(engine=engine, cache=cache,
                               zipf=ZipfSpec(N=2000, s=0.99, length=100, seed=11))
        with pytest.raises(ConfigError, match="^unknown policy 'bogus'$"):
            run(cfg)
        assert loaded == []

    @pytest.mark.parametrize("axis", [
        dict(k_values=[], capacity=16), dict(sizes=[]), dict(integer_factors=[]),
    ], ids=["k_values", "sizes", "integer_factors"])
    def test_empty_axis_rejected_before_the_trace_loads(self, monkeypatch, axis):
        loaded = []
        monkeypatch.setattr(harness, "load_trace", lambda cfg: loaded.append(cfg))
        cfg = ExperimentConfig(
            engine="restricted", cache=single(policy="hyperbolic", k=4, d=4),
            zipf=ZipfSpec(N=100, s=0.99, length=100, seed=1),
        )
        with pytest.raises(ConfigError, match="^the sweep axis has no values$"):
            run_sweep(cfg, **axis)
        assert loaded == []

    def test_exactly_one_axis(self):
        cfg = ExperimentConfig(
            engine="restricted", cache=single(),
            zipf=ZipfSpec(N=10, s=1.0, length=5, seed=1),
        )
        with pytest.raises(ConfigError):
            run_sweep(cfg)
        with pytest.raises(ConfigError):
            run_sweep(cfg, k_values=[2], capacity=4, sizes=[8])


class TestEmitReport:
    def _report(self, tmp_path):
        path = plain_trace(tmp_path, [1, 2, 1, 2])
        cfg = ExperimentConfig(engine="restricted", cache=single(), trace_path=path)
        return run_experiment(cfg)

    def test_csv_layout(self, tmp_path):
        report = self._report(tmp_path)
        text = emit_report(report, "csv")
        header, row = text.strip().split("\n")
        assert header.startswith("engine,policy,k_w,d_w,k_m,d_m,integer_factor,trace,seed")
        assert ",0.5000," in row  # hit_ratio printed with 4 decimal places

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        decoded = json.loads(emit_report(report, "json"))
        assert decoded[0] == report.to_dict()

    def test_byte_identical_reruns(self, tmp_path):
        keys = [1, 2, 1, 2, 3]
        path_a = plain_trace(tmp_path, keys, "a.trace")
        path_b = plain_trace(tmp_path, keys, "b.trace")
        cfg_a = ExperimentConfig(engine="restricted", cache=single(), trace_path=path_a)
        cfg_b = ExperimentConfig(engine="restricted", cache=single(), trace_path=path_b)
        csv_a = emit_report(run_experiment(cfg_a), "csv")
        csv_b = emit_report(run_experiment(cfg_b), "csv").replace("b.trace", "a.trace")
        assert csv_a == csv_b

    def test_writes_to_file(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "report.csv"
        text = emit_report(report, "csv", out=str(out))
        assert out.read_text() == text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(self._report(tmp_path), "yaml")


class TestCli:
    def test_run_with_zipf(self, capsys):
        code = main(["run", "--policy", "lru", "--km", "4", "--dm", "4",
                     "--zipf-n", "200", "--zipf-s", "0.99", "--zipf-len", "1000",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("engine,")
        assert "restricted,lru,0,0,4,4" in out

    def test_synthetic_seed_defaults_to_one(self, capsys):
        argv = ["run", "--policy", "lru", "--km", "4", "--dm", "4",
                "--zipf-n", "200", "--zipf-s", "0.99", "--zipf-len", "1000"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == default
        assert ",1,1000," in default.splitlines()[1]

    def test_run_deterministic_outputs(self, tmp_path):
        argv = ["run", "--policy", "lfu", "--km", "2", "--dm", "2",
                "--zipf-n", "100", "--zipf-s", "1.2", "--zipf-len", "500",
                "--seed", "9", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_zipf_then_run_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "z.trace"
        assert main(["gen-zipf", "--zipf-n", "50", "--zipf-s", "1.0",
                     "--zipf-len", "300", "--seed", "2",
                     "--out", str(trace_path)]) == 0
        assert len(trace_path.read_text().splitlines()) == 300
        assert main(["run", "--policy", "fifo", "--km", "2", "--dm", "4",
                     "--trace", str(trace_path)]) == 0
        assert "fifo" in capsys.readouterr().out

    def test_gen_zipf_writes_the_bytes_of_the_per_key_writer(self, tmp_path):
        # 70,000 keys span two chunks of 2**16; the pin is the digest of the
        # writer that wrote one f"{key}\n" per key
        trace_path = tmp_path / "z.trace"
        assert main(["gen-zipf", "--zipf-n", "1000", "--zipf-s", "0.99",
                     "--zipf-len", "70000", "--seed", "3",
                     "--out", str(trace_path)]) == 0
        data = trace_path.read_bytes()
        keys = generate_zipf(ZipfSpec(N=1000, s=0.99, length=70_000, seed=3)).keys
        assert data == "".join(f"{key}\n" for key in keys).encode()
        assert hashlib.sha256(data).hexdigest() == (
            "58be3b2e6b08ffe32e0425e70c15694016fc7a8a5f888cab181ddce35b636bfc")

    def test_sweep_cli(self, capsys):
        code = main(["sweep", "--policy", "lru", "--zipf-n", "100",
                     "--zipf-s", "1.0", "--zipf-len", "400", "--seed", "1",
                     "--k-values", "2,4", "--capacity", "16"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_multi_region_cli(self, capsys):
        code = main(["run", "--policy", "lru", "--km", "4", "--dm", "2",
                     "--window-policy", "fifo", "--kw", "2", "--dw", "2",
                     "--zipf-n", "100", "--zipf-s", "0.9", "--zipf-len", "500",
                     "--seed", "4"])
        assert code == 0
        assert "fifo*lru*tinylfu" in capsys.readouterr().out

    def test_check_subcommand(self, capsys):
        assert main(["check", "--policy", "lru", "--k", "2", "--d", "1",
                     "--alphabet", "2", "--max-len", "4"]) == 0
        assert "[OK]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, expected", [
        (["check", "--policy", "lfu", "--k", "2", "--d", "1", "--alphabet", "4", "--max-len", "6"],
         "[OK] lfu k=2 d=1 alphabet=4 len<=6: 5460 sequences, 2112 divergent, 0 unexplained\n"
         "first divergence: [1, 1, 2, 2, 3, 1]\n"
         "  engine set 0: [(key=3, scn=1), (key=1, scn=2)]\n"
         "  reference sets: [[2, 1]]\n"),
        (["check", "--policy", "hyperbolic", "--k", "3", "--d", "1", "--alphabet", "4", "--max-len", "7"],
         "[OK] hyperbolic k=3 d=1 alphabet=4 len<=7: 21844 sequences, 384 divergent, 0 unexplained\n"
         "first divergence: [1, 1, 2, 3, 4, 1]\n"
         "  engine set 0: [(key=4, scn=327681), (key=3, scn=262145), (key=1, scn=65539)]\n"
         "  reference sets: [[3, 4, 1]]\n"),
    ], ids=["lfu", "hyperbolic"])
    def test_check_prints_the_first_divergence(self, argv, expected, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_missing_trace_flags_error(self, capsys):
        code = main(["run", "--policy", "lru"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_trace_error_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("nope\n")
        code = main(["run", "--policy", "lru", "--trace", str(bad)])
        assert code == 1
        assert "non-numeric" in capsys.readouterr().err

    def test_non_utf8_trace_error_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"5\n\xff6\n")
        code = main(["run", "--policy", "lru", "--trace", str(bad)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_csv_cell_over_the_field_limit_is_an_error_line(self, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text("key\n" + "9" * 200_000 + "\n")
        code = main(["run", "--policy", "lru", "--trace", str(bad), "--trace-format", "csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}:2: field larger than field limit (131072)\n")

    def test_arc_is_not_a_trace_format(self, tmp_path, capsys):
        trace = plain_trace(tmp_path, [1, 2, 1])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--policy", "lru", "--trace", trace, "--trace-format", "arc"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'arc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["check", "--policy", "lru", "--alphabet", "10", "--max-len", "8"],
         "too large"),
        (["run", "--policy", "lru", "--zipf-n", "0", "--zipf-s", "0.99",
          "--zipf-len", "10"], "N and length must be >= 1"),
        (["sweep", "--policy", "hyperbolic", "--zipf-n", "100", "--zipf-s", "0.99",
          "--zipf-len", "10", "--integer-factors", "1,1/0"], "zero denominator"),
        (["run", "--policy", "hyperbolic", "--integer-factor", "1e400", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "10"], "must lie in (0, 10000]"),
        (["sweep", "--policy", "hyperbolic", "--zipf-n", "100", "--zipf-s", "0.99",
          "--zipf-len", "10", "--integer-factors", "1,1e400"], "must lie in (0, 10000]"),
        # window flags that do not form a window region are errors, never a
        # silently single-region run
        (["run", "--policy", "lru", "--window-policy", "fifo", "--filter", "none",
          "--zipf-n", "100", "--zipf-s", "0.99", "--zipf-len", "10"], "needs a window region"),
        (["run", "--policy", "lru", "--window-policy", "fifo",
          "--zipf-n", "100", "--zipf-s", "0.99", "--zipf-len", "10"], "needs a window region"),
        (["run", "--policy", "lru", "--kw", "2", "--dw", "2",
          "--zipf-n", "100", "--zipf-s", "0.99", "--zipf-len", "10"], "needs a window policy"),
        # an infinite exponent would put every draw on key 1
        (["run", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "10",
          "--zipf-s", "inf", "--zipf-len", "100"], "s must be positive and finite"),
        # an empty axis is an error, never a report of the header alone
        (["sweep", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--sizes", ","], "no values"),
        (["sweep", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--k-values", ",", "--capacity", "16"],
         "no values"),
        (["sweep", "--policy", "hyperbolic", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--integer-factors", ","], "no values"),
        # an empty enumeration is an error, never an [OK] over nothing
        (["check", "--policy", "lru", "--alphabet", "0"], "must be >= 1"),
        (["check", "--policy", "lru", "--alphabet", "-3"], "must be >= 1"),
        (["check", "--policy", "lru", "--max-len", "0"], "must be >= 1"),
        # the factor is printed in every report, so it is checked for every
        # policy and engine
        (["run", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--integer-factor", "bogus"], "bogus"),
        (["run", "--engine", "reference", "--policy", "hyperbolic", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--integer-factor", "bogus"], "bogus"),
        # --capacity belongs to --k-values; never a silently ignored flag
        (["sweep", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "100", "--sizes", "8,16", "--capacity", "512"],
         "capacity applies to the k_values axis only"),
        # the generator's own message would name no flag
        (["sweep", "--policy", "lru", "--km", "4", "--dm", "4", "--zipf-n", "100",
          "--zipf-s", "0.99", "--zipf-len", "50", "--sizes", "16,32", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        # a trace file and synthetic flags together: never a silently ignored flag
        (["run", "--policy", "lru", "--km", "2", "--dm", "1", "--trace", "missing.trace",
          "--zipf-n", "100", "--zipf-s", "0.99", "--zipf-len", "50"],
         "--zipf-n/--zipf-s/--zipf-len cannot be combined with --trace"),
        (["sweep", "--policy", "lru", "--km", "2", "--dm", "1", "--trace", "missing.trace",
          "--zipf-s", "0.99", "--sizes", "2,4"], "--zipf-s cannot be combined with --trace"),
        # a file trace has no seed to set
        (["run", "--policy", "lru", "--km", "2", "--dm", "1", "--trace", "missing.trace",
          "--seed", "7"], "--seed cannot be combined with --trace"),
        (["sweep", "--policy", "lru", "--km", "2", "--dm", "1", "--trace", "missing.trace",
          "--zipf-n", "100", "--seed", "7", "--sizes", "2,4"],
         "--zipf-n/--seed cannot be combined with --trace"),
    ])
    def test_value_errors_become_error_lines(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_huge_check_is_an_error_line_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["check", "--policy", "lru", "--alphabet", "3", "--max-len", "100000"]) == 1
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == \
            "error: enumeration of more than 5000000 sequences is too large\n"

    def test_unbuildable_zipf_universe_is_an_error_line(self, monkeypatch, capsys):
        # stands in for the 29.8 GiB rank table of N = 4e9; nothing is allocated
        def out_of_memory(N, s):
            raise MemoryError("Unable to allocate 29.8 GiB for an array with shape "
                              "(4000000000,) and data type float64")

        monkeypatch.setattr(traces, "_zipf_cdf", out_of_memory)
        assert main(["run", "--policy", "lru", "--km", "4", "--dm", "4",
                     "--zipf-n", "4000000000", "--zipf-s", "0.99", "--zipf-len", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "29.8 GiB" in err
        assert "Traceback" not in err

    def test_key_universe_of_two_to_the_32_is_an_error_line(self, monkeypatch, capsys):
        # refused before any rank table is built
        def no_table(N, s):
            raise AssertionError(f"built a rank table of {N} keys")

        monkeypatch.setattr(traces, "_zipf_cdf", no_table)
        assert main(["run", "--policy", "lru", "--km", "4", "--dm", "4",
                     "--zipf-n", "4294967296", "--zipf-s", "0.99", "--zipf-len", "10"]) == 1
        assert capsys.readouterr().err == "error: N must be below 4294967296, got 4294967296\n"
