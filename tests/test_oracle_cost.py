"""Smoke test of ``tools/oracle_cost.py`` on a tiny input, in this process."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "oracle_cost.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("oracle_cost", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_a_cost_per_policy_and_capacity(tool, capsys):
    assert tool.main(["--events", "200", "--capacities", "4,16"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["events"], record["repeat"]) == (200, tool.REPEAT)
    assert record["zipf"] == [10**6, 0.99, 1]
    table, spread = record["us_per_event"], record["us_per_event_range"]
    assert sorted(table) == sorted(spread) == sorted(tool.POLICIES)
    for policy, costs in table.items():
        assert sorted(costs) == sorted(spread[policy]) == ["16", "4"]
        for capacity, cost in costs.items():
            low, high = spread[policy][capacity]
            # the best figure is the fastest of the interleaved runs
            assert 0 < cost == low <= high


def test_cells_take_turns_across_the_repeats(tool, monkeypatch, capsys):
    order = []
    monkeypatch.setattr(tool, "us_per_event", lambda cache, keys: order.append(
        (cache.policy, cache.k)) or 1.0)
    assert tool.main(["--events", "10", "--capacities", "4,16"]) == 0
    cells = [(policy, k) for policy in tool.POLICIES for k in (4, 16)]
    assert order == cells * tool.REPEAT
    record = json.loads(capsys.readouterr().out)
    assert record["us_per_event_range"]["lfu"]["16"] == [1.0, 1.0]


@pytest.mark.parametrize("argv", [["--events", "0"], ["--capacities", "4,0"]])
def test_refuses_an_empty_run(tool, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
