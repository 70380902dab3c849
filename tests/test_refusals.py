"""Inputs refused before any work starts.

A Zipf universe of ``KEY_LIMIT`` keys or more is refused by ``zipf_frequency``
as by ``ZipfSpec``, with one message and before a rank table is built; an
``exhaustive_check`` alphabet wider than its engine's keys is refused before
the walk fetches a single key, through the API and the CLI alike.
"""

import pytest

from dpcache import traces
from dpcache.cli import main
from dpcache.oracle import _fresh_engine, exhaustive_check
from dpcache.policies import DEFAULT_INTEGER_FACTOR, POLICIES, PolicyEngine
from dpcache.traces import KEY_LIMIT, ZipfSpec, zipf_frequency

KEY_BITS = _fresh_engine("lru", 2, 1, DEFAULT_INTEGER_FACTOR).layout.key_bits


@pytest.fixture
def no_table(monkeypatch):
    """Fail any rank-table build."""
    def build(N, s):
        raise AssertionError(f"built a rank table of {N} keys")

    monkeypatch.setattr(traces, "_zipf_cdf", build)


@pytest.fixture
def no_walk(monkeypatch):
    """Fail any engine fetch."""
    def fetch(self, key):
        raise AssertionError(f"fetched key {key}")

    monkeypatch.setattr(PolicyEngine, "fetch", fetch)


@pytest.mark.parametrize("N", [KEY_LIMIT, KEY_LIMIT + 1, 1 << 40])
def test_zipf_frequency_refuses_the_universe_zipf_spec_refuses(N, no_table):
    message = f"^N must be below 4294967296, got {N}$"
    with pytest.raises(ValueError, match=message):
        ZipfSpec(N=N, s=0.99, length=10, seed=1)
    with pytest.raises(ValueError, match=message):
        zipf_frequency(N, 1, 0.99)


@pytest.mark.parametrize("policy", POLICIES)
def test_exhaustive_check_refuses_an_alphabet_wider_than_its_keys(policy, no_walk):
    assert KEY_BITS == 16
    for alphabet_size in (1 << KEY_BITS, 1 << 20):
        message = f"^alphabet_size {alphabet_size} exceeds 16-bit keys$"
        with pytest.raises(ValueError, match=message):
            exhaustive_check(policy, alphabet_size=alphabet_size, max_len=1)


def test_check_cli_prints_the_refusal_as_one_error_line(no_walk, capsys):
    assert main(["check", "--policy", "lru", "--alphabet", "65536", "--max-len", "1"]) == 1
    assert capsys.readouterr().err == "error: alphabet_size 65536 exceeds 16-bit keys\n"


def test_exhaustive_check_walks_the_widest_alphabet_its_keys_hold():
    report = exhaustive_check("lru", alphabet_size=(1 << KEY_BITS) - 1, max_len=1)
    assert report.passed and report.sequences_checked == 65535
