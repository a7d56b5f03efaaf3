"""Shared benchmark configuration.

Set ``NICE_BENCH_LARGE=1`` to run the larger problem sizes (pings=4 for the
Table 1 / Figure 6 workloads).  The defaults keep the full benchmark suite
within a few minutes on a laptop while still exhibiting every trend the
paper reports.

Set ``NICE_BENCH_RECORD=1`` to rewrite the ``BENCH_*.json`` records at the
repository root (the nightly CI jobs do).  Without it a run measures and
asserts all the same but writes its record under pytest's temporary
directory, so a plain ``pytest`` leaves the working tree clean and a diff
in a committed record is a decision, not box noise.
"""

import os
import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent
REPO_ROOT = _BENCH_DIR.resolve().parent


def pytest_collection_modifyitems(items):
    """Every test under benchmarks/ is a measurement: tag it ``benchmark``
    (and ``slow``) so the CI fast tier can deselect the whole directory."""
    for item in items:
        try:
            in_benchmarks = item.path.is_relative_to(_BENCH_DIR)
        except AttributeError:  # items without a path
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.benchmark)
            item.add_marker(pytest.mark.slow)


def available_cores() -> list[int]:
    """The cores this process may run on — what a timing assertion may
    assume, and what a record must say it was taken on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def large_runs_enabled() -> bool:
    return os.environ.get("NICE_BENCH_LARGE", "") == "1"


@pytest.fixture(scope="session")
def bench_output(tmp_path_factory):
    """``bench_output(name)`` is the path ``BENCH_<name>.json`` is written
    to: the repository root when recording, a temporary directory
    otherwise (module docstring)."""
    directory = (REPO_ROOT if os.environ.get("NICE_BENCH_RECORD", "") == "1"
                 else tmp_path_factory.mktemp("bench"))
    return lambda name: directory / f"BENCH_{name}.json"


@pytest.fixture(scope="session")
def ping_sizes():
    """Ping counts for exhaustive-search benchmarks."""
    return (2, 3, 4) if large_runs_enabled() else (2, 3)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Render a result table to stdout (captured by pytest -s / tee)."""
    widths = [len(h) for h in header]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    line = " | ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in text_rows:
        print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
