"""Benchmark-harness configuration.

The regenerated tables/figures are printed by each benchmark; capture is
disabled so the rows appear in the console (and in ``bench_output.txt``)
even when every check passes.  They are also written to
``benchmark_tables.txt`` at the repository root, once per session.
"""

import pytest

from benchmarks.harness import TABLES_PATH


@pytest.fixture(scope="session", autouse=True)
def _fresh_tables_file():
    """Empty ``benchmark_tables.txt`` once per session; each table then appends."""
    try:
        TABLES_PATH.write_text("", encoding="utf-8")
    except OSError:
        pass  # the on-disk copy is best-effort, as in ``print_table``
    yield


@pytest.fixture(autouse=True)
def _show_regenerated_tables(capsys):
    """Let the printed paper-vs-measured tables through pytest's capture."""
    with capsys.disabled():
        yield
