"""Smoke test of ``tools/ingest_cost.py`` on tiny files, in this process."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "ingest_cost.py"


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
    for size in ("50", "200"):
        low, high = record["ns_per_line_range"][size]
        # the best figure is the fastest of the interleaved runs
        assert 0 < record["ns_per_line"][size] == low <= high
        assert record["peak_mb"][size] > 0


def test_sizes_take_turns_across_the_repeats(tool, monkeypatch, capsys):
    order = []
    monkeypatch.setattr(tool, "ns_per_line", lambda parse, path, lines: order.append(lines) or 1.0)
    assert tool.main(["--lines", "30,10", "--repeat", "3"]) == 0
    assert order == [30, 10] * 3
    assert json.loads(capsys.readouterr().out)["ns_per_line_range"]["10"] == [1.0, 1.0]


def test_writes_the_seeded_ids_one_per_line(tool, tmp_path):
    path = tmp_path / "ids.trace"
    tool.write_ids(path, 5, 7)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 5 and all(0 <= int(line) < 2**64 for line in lines)
    tool.write_ids(tmp_path / "again.trace", 5, 7)
    assert (tmp_path / "again.trace").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("argv", [["--lines", "0"], ["--lines", "5,0"], ["--repeat", "0"]])
def test_refuses_an_empty_run(tool, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
