"""Benchmark-harness configuration.

The regenerated tables/figures are printed by each benchmark; capture is
disabled so the rows appear in the console (and in ``bench_output.txt``)
even when every check passes.  Each table is also checked against its
committed block in ``benchmark_tables.txt`` (see ``benchmarks/harness.py``).
"""

import pytest


@pytest.fixture(autouse=True)
def _show_regenerated_tables(capsys):
    """Let the printed paper-vs-measured tables through pytest's capture."""
    with capsys.disabled():
        yield
