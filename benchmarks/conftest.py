"""Shared benchmark infrastructure.

Each benchmark regenerates one of the paper's tables or figures: it runs
the experiment (timed via pytest-benchmark), prints the reproduced
rows/series, writes them to ``benchmarks/results/<name>.txt`` for
EXPERIMENTS.md, and asserts the paper's *qualitative shape* (who wins, by
roughly what factor, where crossovers fall).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Write (and echo) a reproduced table/figure as plain text.

    *host* lines (wall clocks, worker counts, anything that depends on
    the machine or on process scheduling) are echoed to the log only:
    the tracked tables hold simulated outputs, so rerunning a benchmark
    leaves them unchanged."""

    def _record(name: str, title: str, lines: list[str],
                host: list[str] = ()) -> None:
        text = "\n".join([title, "=" * len(title), *lines, ""])
        (results_dir / f"{name}.txt").write_text(text)
        print("\n" + text + "".join(f"host: {line}\n" for line in host))

    return _record
