import json
from dataclasses import replace

import pytest

from dpcache import harness
from dpcache.cli import main
from dpcache.core import LayoutError
from dpcache.harness import (
    CacheSpec,
    ConfigError,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_sweep,
)
from dpcache.hyperbolic import _build_entries
from dpcache.traces import ZipfSpec


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
        # one miss (fold budget) and one hit (exactly 1/1/1); maxes reflect the miss
        assert report.max_tcam == 1
        assert report.max_reads <= 1 + 2 * 2
        assert report.max_writes <= 1 + 2 * 2

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
    ])
    def test_value_errors_become_error_lines(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
