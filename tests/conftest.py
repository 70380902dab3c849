from pathlib import Path

import pytest

import dpcache
from dpcache.traces import ZipfSpec, generate_zipf

# Desk-scale workload: a frozen synthetic trace whose hit-ratio regime at
# capacity 128 (k=8, d=16) sits where the published single-region numbers do.
DESK_SPEC = ZipfSpec(N=700, s=0.99, length=200_000, seed=2026)


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH,
    # so the header names the tree under test
    return f"dpcache: {Path(dpcache.__file__).resolve().parent}"


@pytest.fixture(scope="session")
def desk_trace():
    return generate_zipf(DESK_SPEC)


@pytest.fixture(scope="session")
def zipf_1m_trace():
    return generate_zipf(ZipfSpec(N=10**6, s=0.99, length=10**6, seed=42))
