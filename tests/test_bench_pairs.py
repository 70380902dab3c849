"""Summary arithmetic and the benchmark comparison of ``tools/bench_pairs.py``.

No benchmark run and no subprocess: ``summarise`` is fed pairs built here,
and the comparison of two checkouts reads trees built under ``tmp_path``.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent, change, metric="events_per_s"):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_quartiles_use_the_inclusive_method(tool):
    assert tool.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == {"q1": 3.25, "median": 5.5, "q3": 7.75}
    assert tool.quartiles([4.0]) == {"q1": 4.0, "median": 4.0, "q3": 4.0}


def test_higher_is_better_gain(tool):
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [p + 10 for p in parent]
    out = tool.summarise(pairs_of(parent, change), {"events_per_s": "higher"})["events_per_s"]
    assert out["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert out["change"]["median"] == 114.5
    assert (out["wins"], out["losses"], out["ties"]) == (10, 0, 0)
    assert out["ratio"] == pytest.approx(114.5 / 104.5)
    assert out["gain"] is True


def test_lower_is_better_counts_decreases_as_wins(tool):
    parent = [1.0, 1.1, 1.2, 1.3]
    change = [0.5, 1.1, 1.3, 0.6]
    out = tool.summarise(pairs_of(parent, change, "wall_s"), {"wall_s": "lower"})["wall_s"]
    assert (out["wins"], out["losses"], out["ties"]) == (2, 1, 1)
    assert out["gain"] is False


def test_gap_inside_the_parent_spread_is_no_gain(tool):
    # every pair won, but the medians differ by 1 against a parent spread of 5.5
    parent = [100, 110, 101, 109, 102, 108, 103, 107, 104, 106]
    change = [p + 1 for p in parent]
    out = tool.summarise(pairs_of(parent, change), {"events_per_s": "higher"})["events_per_s"]
    assert out["wins"] == 10
    assert out["parent"]["q3"] - out["parent"]["q1"] == 5.5
    assert out["gain"] is False


def test_eight_wins_in_ten_is_no_gain(tool):
    parent = [100] * 10
    change = [200] * 8 + [100, 50]
    out = tool.summarise(pairs_of(parent, change), {"events_per_s": "higher"})["events_per_s"]
    assert (out["wins"], out["losses"], out["ties"]) == (8, 1, 1)
    assert out["gain"] is False
    out = tool.summarise(pairs_of(parent, [200] * 9 + [100]), {"events_per_s": "higher"})
    assert out["events_per_s"]["gain"] is True


@pytest.mark.parametrize("metric, better, parent, inside, outside", [
    ("events_per_s", "higher", 100.0, 76.0, 74.0),
    ("wall_s", "lower", 1.0, 1.24, 1.26),
])
def test_within_bound_allows_a_regression_up_to_the_bound(tool, metric, better, parent, inside,
                                                          outside):
    # bound 0.25: the change may be worse than the parent's median by 25% of it
    def within(change, bounds):
        out = tool.summarise(pairs_of([parent] * 10, [change] * 10, metric), {metric: better},
                             bounds)
        return out[metric]["within_bound"]

    bounds = {metric: 0.25}
    assert within(parent, bounds) is True
    assert within(inside, bounds) is True
    assert within(outside, bounds) is False
    assert within(outside, {}) is None  # a metric without a bound


@pytest.mark.parametrize("metric, better", [("events_per_s", "higher"), ("wall_s", "lower")])
def test_parent_spread_wider_than_the_bound_is_unresolved(tool, metric, better):
    # quartiles 80 and 120 around a median of 100: a spread of 40% against a 25% bound
    wide = [80, 80, 80, 120, 120, 120, 100, 100, 100, 100]
    narrow = [99, 101] * 5
    sign = 1 if better == "higher" else -1

    def unresolved(parent, change, bounds={metric: 0.25}):
        out = tool.summarise(pairs_of(parent, change, metric), {metric: better}, bounds)
        return out[metric]["unresolved"]

    assert tool.quartiles(wide) == {"q1": 85.0, "median": 100.0, "q3": 115.0}
    assert unresolved(wide, wide) is True
    assert unresolved(wide, [100 - sign * 30] * 10) is True  # worse, but inside the spread
    assert unresolved(wide, [100 + sign * 19] * 10) is True  # better than 7 of 10 runs
    assert unresolved(wide, [100 + sign * 30] * 10) is False  # better than every parent run
    assert unresolved(wide, wide, {metric: 0.5}) is False
    assert unresolved(narrow, [70] * 10) is False
    assert unresolved(wide, wide, {}) is None  # a metric without a bound


def benchmark_tree(root, run_source="print('run')\n"):
    """A checkout holding only what the benchmark comparison reads, and run outputs."""
    (root / "bench" / "tests").mkdir(parents=True)
    (root / "bench" / "_work").mkdir()
    (root / "BENCHMARK.json").write_text('{"workloads": []}\n')
    (root / "bench" / "run.py").write_text(run_source)
    (root / "bench" / "tests" / "test_bench.py").write_text("def test(): pass\n")
    (root / "bench" / "_work" / "out.json").write_text(f"{root.name}\n")
    return root


def test_identical_benchmarks_pass(tool, tmp_path):
    parent, change = benchmark_tree(tmp_path / "parent"), benchmark_tree(tmp_path / "change")
    digest, differing = tool.compare_benchmarks(parent, change)
    assert differing == [] and len(digest) == 64
    assert sorted(tool.benchmark_files(parent)) == [
        "BENCHMARK.json", "bench/run.py", "bench/tests/test_bench.py"]


def test_changed_run_script_is_named(tool, tmp_path, capsys):
    parent = benchmark_tree(tmp_path / "parent")
    change = benchmark_tree(tmp_path / "change", run_source="print('faster')\n")
    assert tool.compare_benchmarks(parent, change)[1] == ["bench/run.py"]
    out = tmp_path / "pairs.json"
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "w", "--out", str(out)]) == 1
    assert "differing: bench/run.py" in capsys.readouterr().err
    assert not out.exists()  # stopped before the first run


def test_run_outputs_and_bytecode_are_ignored(tool, tmp_path):
    parent, change = benchmark_tree(tmp_path / "parent"), benchmark_tree(tmp_path / "change")
    (change / "bench" / "_work" / "extra.log").write_text("only here\n")
    (change / "bench" / "__pycache__").mkdir()
    (change / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    assert tool.compare_benchmarks(parent, change) == tool.compare_benchmarks(parent, parent)
