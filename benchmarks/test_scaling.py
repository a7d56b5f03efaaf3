"""The scaling record: what each added worker costs, and where.

``lb3`` (``loadbalancer max_pkt_sequence=3``, 133 888 transitions — the
search benchmark's workload) is exhausted serially and on N fork / N
socket workers.  Every row runs in an interpreter of its own
(``scaling_row.py``), so its wall, CPU (master plus reaped workers) and
peak RSS are the row's alone, and every worker leaves the collector
seconds and collections per generation that ``tests/gc_probe.py`` reads
from outside the product.  A parallel row is measured twice: *before* —
CPython's default young generation of 700 pinned over
``repro.mc.worker.GC_YOUNG_THRESHOLD``, so ``_serve`` changes nothing —
and *after*, the constant as committed.

The record is honest about the box: it carries
``os.sched_getaffinity(0)``, the state-space counts must equal the serial
row's in every row, and parallel *efficiency* (serial wall / row wall /
workers) is printed for every row but asserted only where
``workers < cores`` — the master is a process too, and more processes
than cores measures time slicing.  N is 2 unless ``NICE_SCALING_WORKERS``
says otherwise (the nightly ``multicore-parallel`` job asks for
``2,4,8``); the 4- and 8-worker rows stay ``null`` in a record taken
without them.  ``BENCH_scaling.json`` is rewritten at the repository
root under ``NICE_BENCH_RECORD=1`` only (``conftest.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gc_probe
from repro.mc.worker import GC_YOUNG_THRESHOLD

from .conftest import available_cores, print_table

ROW_SCRIPT = pathlib.Path(__file__).with_name("scaling_row.py")

#: Worker counts of a complete record; the ones measured in this run.
ALL_WORKERS = (2, 4, 8)
WORKERS = tuple(int(n) for n in
                os.environ.get("NICE_SCALING_WORKERS", "2").split(","))

ENGINES = {"fork": dict(start_method="fork"),
           "socket": dict(transport="socket")}
#: Young-generation threshold per policy: CPython's default, the product's.
POLICIES = {"before": 700, "after": GC_YOUNG_THRESHOLD}
#: Least serial wall / row wall / workers of a row whose master has a core
#: to itself.  Loose on purpose: 2 workers sharing 2 cores with the master
#: measured 0.46-0.72 over nine records (DESIGN.md "Measured: where the
#: saving shows, and what is left"); a row with the cores to spare must
#: at least clear the bottom of that.
EFFICIENCY_FLOOR = 0.4
COUNTS = ("terminated", "transitions", "unique", "revisited", "quiescent")
ROW_TIMEOUT_S = 300


def _run_row(engine: dict, threshold: int, directory) -> dict:
    directory.mkdir()
    env = dict(os.environ, **gc_probe.child_env(directory, threshold))
    done = subprocess.run(
        [sys.executable, str(ROW_SCRIPT), json.dumps(engine)], env=env,
        capture_output=True, text=True, timeout=ROW_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.splitlines()[-1])
    row["workers"] = engine.get("workers", 0)
    row["per_worker"] = [
        {key: record[key] for key in
         ("cpu_s", "maxrss_kb", "gc_s", "gc_s_by_generation", "collections")}
        for record in gc_probe.read(directory)]
    return row


@pytest.fixture(scope="module")
def scaling(tmp_path_factory, bench_output):
    scratch = tmp_path_factory.mktemp("scaling")
    rows = {"serial": _run_row({}, GC_YOUNG_THRESHOLD, scratch / "serial")}
    for workers in ALL_WORKERS:
        for transport, engine in ENGINES.items():
            name = f"{transport}{workers}"
            # Before and after back to back: the box's speed drifts
            # between minutes, and the pair is what gets compared.
            rows[name] = {
                policy: _run_row(dict(engine, workers=workers), threshold,
                                 scratch / f"{name}-{policy}")
                for policy, threshold in POLICIES.items()
            } if workers in WORKERS else None
    cores = available_cores()
    payload = {
        "benchmark": "scaling",
        "workload": "loadbalancer max_pkt_sequence=3, exhausted",
        "affinity": cores,
        "cores": len(cores),
        "gc_young_threshold": POLICIES,
        "rows": rows,
    }
    bench_output("scaling").write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _parallel_rows(scaling):
    for name, pair in scaling["rows"].items():
        if name != "serial" and pair is not None:
            for policy, row in pair.items():
                yield name, policy, row


def test_scaling_report(scaling):
    serial = scaling["rows"]["serial"]
    table = [["serial", "-", f"{serial['wall_s']:.2f}",
              f"{serial['cpu_s']:.2f}", f"{serial['peak_rss_mb']:.1f}",
              "1.00", "1.00", f"{serial['self']['gc_s']:.2f}",
              str(serial["self"]["collections"])]]
    for name, policy, row in _parallel_rows(scaling):
        workers = row["per_worker"]
        table.append([
            name, policy, f"{row['wall_s']:.2f}", f"{row['cpu_s']:.2f}",
            f"{row['peak_rss_mb']:.1f}",
            f"{serial['wall_s'] / row['wall_s']:.2f}",
            f"{serial['wall_s'] / row['wall_s'] / row['workers']:.2f}",
            " ".join(f"{worker['gc_s']:.2f}" for worker in workers),
            " ".join(str(worker["collections"]) for worker in workers)])
    print_table(
        f"lb3 scaling on cores {scaling['affinity']}",
        ["engine", "gc policy", "wall s", "cpu s", "rss MB", "speedup",
         "efficiency", "gc s / worker", "collections / generation"], table)


def test_state_space_identical_in_every_row(scaling):
    serial = scaling["rows"]["serial"]
    assert serial["terminated"] == "exhausted"
    for name, policy, row in _parallel_rows(scaling):
        assert [row[key] for key in COUNTS] == \
            [serial[key] for key in COUNTS], (name, policy)


def test_every_worker_reported(scaling):
    for name, policy, row in _parallel_rows(scaling):
        assert len(row["per_worker"]) == row["workers"], (name, policy)


def test_task_sized_young_generation_cuts_worker_gc(scaling):
    """Where the saving is: each worker's collector seconds, at least
    halved (measured 0.5-0.9 s -> 0.10-0.23 s per worker at 2 workers, nine
    records on a box whose speed drifted by a third)."""
    for name, pair in scaling["rows"].items():
        if name == "serial" or pair is None:
            continue
        before, after = (
            sum(worker["gc_s"] for worker in pair[policy]["per_worker"])
            for policy in POLICIES)
        assert after < before / 2, (name, before, after)


def test_efficiency_where_the_cores_exist(scaling):
    """Serial wall / row wall / workers, asserted only for rows that
    leave the master a core of its own (``workers < cores``): with a
    core per worker and none for the master the row measures time
    slicing, and the report above only prints it."""
    serial = scaling["rows"]["serial"]
    for name, policy, row in _parallel_rows(scaling):
        if policy != "after" or row["workers"] >= scaling["cores"]:
            continue
        efficiency = serial["wall_s"] / row["wall_s"] / row["workers"]
        assert efficiency >= EFFICIENCY_FLOOR, (
            f"{name}: {efficiency:.2f} of linear on {scaling['cores']}"
            f" cores (floor {EFFICIENCY_FLOOR:.2f})")


def test_bench_file_written(scaling, bench_output):
    data = json.loads(bench_output("scaling").read_text())
    assert data["benchmark"] == "scaling"
    assert set(data["rows"]) == {"serial"} | {
        f"{transport}{workers}" for transport in ENGINES
        for workers in ALL_WORKERS}
    assert data["affinity"] == available_cores()
