"""Smoke test of ``tools/ingest_cost.py`` on tiny files, in this process."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dpcache.traces import ZipfSpec, generate_zipf, parse_trace

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "ingest_cost.py"


def zipf_ranks(length):
    """The seed-1 Zipf(10^6, 0.99) ranks the tool scrambles into its Zipf files."""
    return generate_zipf(ZipfSpec(N=10**6, s=0.99, length=length, seed=1)).keys


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ingest_cost", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_a_cost_and_a_peak_per_size(tool, capsys):
    assert tool.main(["--lines", "50,200", "--repeat", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["lines"], record["seed"], record["repeat"]) == ([50, 200], tool.SEED, 2)
    assert record["distinct"] == {"50": 50, "200": 200}
    zipf, csv = record["zipf"], record["csv"]
    for fields in (zipf, csv):
        assert (fields["universe"], fields["s"]) == (tool.ZIPF_N, tool.ZIPF_S)
        # the Zipf files repeat their hot keys
        assert fields["distinct"] == {str(n): len(set(zipf_ranks(n))) for n in (50, 200)}
        assert fields["distinct"]["200"] < 200
    for fields in (record, zipf, csv):
        for size in ("50", "200"):
            low, high = fields["ns_per_line_range"][size]
            # the best figure is the fastest of the interleaved runs
            assert 0 < fields["ns_per_line"][size] == low <= high
            assert fields["peak_mb"][size] > 0
    generate = record["generate"]
    assert (generate["s"], generate["draws"]) == (tool.ZIPF_S, 200)
    for n in ("10000", "1000000"):
        low, high = generate["ns_per_draw_range"][n]
        assert 0 < generate["ns_per_draw"][n] == low <= high
    # each draw builds its weight table under tracemalloc: 8 bytes per rank
    assert 8e4 / 2**20 < generate["peak_mb"]["10000"] < 1
    assert 8e6 / 2**20 < generate["peak_mb"]["1000000"] < 9


def test_sizes_take_turns_across_the_repeats(tool, monkeypatch, capsys):
    order = []
    monkeypatch.setattr(tool, "ns_per_line", lambda parse, path, lines: order.append(path.name) or 1.0)
    monkeypatch.setattr(tool, "ns_per_draw", lambda generate, spec: order.append(spec) or 2.0)
    assert tool.main(["--lines", "30,10", "--repeat", "3"]) == 0
    specs = order[6:8]
    assert [(spec.N, spec.s, spec.length, spec.seed) for spec in specs] == [
        (10**4, 0.99, 30, 1), (10**6, 0.99, 30, 1)]
    assert order == ["ids-30.trace", "zipf-30.trace", "csv-30.trace",
                     "ids-10.trace", "zipf-10.trace", "csv-10.trace", *specs] * 3
    record = json.loads(capsys.readouterr().out)
    assert record["ns_per_line_range"]["10"] == record["zipf"]["ns_per_line_range"]["10"] \
        == record["csv"]["ns_per_line_range"]["10"] == [1.0, 1.0]
    assert record["generate"]["ns_per_draw_range"] == {"10000": [2.0, 2.0], "1000000": [2.0, 2.0]}


def test_writes_the_seeded_ids_one_per_line(tool, tmp_path):
    path = tmp_path / "ids.trace"
    tool.write_ids(path, 5, 7)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 5 and all(0 <= int(line) < 2**64 for line in lines)
    tool.write_ids(tmp_path / "again.trace", 5, 7)
    assert (tmp_path / "again.trace").read_bytes() == path.read_bytes()


def test_writes_the_scrambled_zipf_ranks_as_the_benchmark_does(tool, tmp_path):
    ranks = zipf_ranks(70_000)
    path = tmp_path / "zipf.trace"
    tool.write_zipf(path, ranks)
    scrambled = np.asarray(ranks, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    assert path.read_text(encoding="ascii") == "\n".join(map(str, scrambled.tolist())) + "\n"


def test_writes_the_zipf_keys_as_csv_rows(tool, tmp_path):
    # the CSV file holds the plain Zipf file's keys, one ts,key row each
    ranks = zipf_ranks(70_000)
    plain, rows = tmp_path / "zipf.trace", tmp_path / "zipf.csv"
    tool.write_zipf(plain, ranks)
    tool.write_zipf(rows, ranks, csv=True)
    keys = plain.read_text(encoding="ascii").splitlines()
    assert rows.read_text(encoding="ascii") == "ts,key\n" + "".join(
        f"{ts},{key}\n" for ts, key in enumerate(keys))
    assert parse_trace(str(rows), "csv").keys == parse_trace(str(plain)).keys


@pytest.mark.parametrize("argv", [["--lines", "0"], ["--lines", "5,0"], ["--repeat", "0"]])
def test_refuses_an_empty_run(tool, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
