"""Shared benchmark fixtures.

The expensive part of every benchmark is the search whose region log the
artifacts price; it runs once per workload per session (cached in
:mod:`repro.bench`).  The timed portion is the artifact synthesis —
pricing the stream for each engine and machine configuration — which is
what a user regenerating the paper's tables actually iterates on.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper: benchmark reproducing a specific paper artifact"
    )


@pytest.fixture(scope="session")
def show(request):
    """Print a block so ``pytest -s benchmarks/`` shows the tables."""

    def _show(title: str, body: str) -> None:
        print(f"\n=== {title} ===\n{body}")

    return _show
