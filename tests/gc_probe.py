"""Tests-only probe of the cyclic collector inside worker processes.

The product counts nothing about its own garbage collection; what a
worker pays for it is read from outside, by wrapping the one loop every
worker runs (``repro.mc.worker._serve``): a ``gc.callbacks`` meter runs
for the loop's lifetime, the thresholds in force inside
``WorkerRuntime.expand`` are noted, and ``<pid>.json`` is written to the
probe directory when the loop returns.  A worker that is killed writes
nothing.

How the wrapper gets into a worker depends on how the worker starts.  A
fork child — the quarantine sandbox included — inherits the patch of the
process that :func:`install`\\ ed it.  A spawned child and a ``nice
worker`` subprocess are fresh interpreters: they find
``gc_probe_site/sitecustomize.py`` on the ``PYTHONPATH`` that
:func:`child_env` builds, and that calls :func:`install_from_env`.

``benchmarks/test_scaling.py`` records these numbers
(``BENCH_scaling.json``); ``tests/test_transports.py`` reads the
thresholds to check that the serving policy holds on every entry path.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import resource
import time

from repro.mc import worker

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: The loop under the probe, before anything here replaces it.
serve = worker._serve

#: Environment of a probed child interpreter: where to write, and
#: (optionally) the young-generation threshold to pin instead of the
#: product's — how the scaling record measures its "before" rows.
DIRECTORY_ENV = "NICE_GC_PROBE_DIR"
THRESHOLD_ENV = "NICE_GC_PROBE_THRESHOLD"


class GcMeter:
    """Seconds spent in, and number of, collections per generation
    between :meth:`start` and :meth:`stop`.  The seconds are the
    collecting thread's CPU time: a collection runs on the thread that
    triggered it, start to finish, and a wall clock would also count
    the time another process held the core."""

    def __init__(self):
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._began = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._began = time.thread_time()
        else:
            generation = info["generation"]
            self.seconds[generation] += time.thread_time() - self._began
            self.collections[generation] += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> dict:
        gc.callbacks.remove(self._callback)
        return {"gc_s": sum(self.seconds),
                "gc_s_by_generation": self.seconds,
                "collections": self.collections}


def probed_serve(directory):
    """The product's ``_serve``, wrapped to leave ``<pid>.json`` in
    ``directory``."""
    directory = pathlib.Path(directory)

    def _serve(make_runtime, worker_id, recv, send) -> None:
        record = {"worker_id": worker_id,
                  "quarantine": os.environ.get("NICE_QUARANTINE") == "1",
                  "threshold_in_expand": None}

        def make_probed_runtime():
            runtime = make_runtime()
            expand = runtime.expand

            def probed_expand(*args, **kwargs):
                record["threshold_in_expand"] = gc.get_threshold()
                return expand(*args, **kwargs)

            runtime.expand = probed_expand
            return runtime

        meter = GcMeter()
        meter.start()
        try:
            serve(make_probed_runtime, worker_id, recv, send)
        finally:
            record.update(meter.stop())
            record["cpu_s"] = time.process_time()
            record["maxrss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            (directory / f"{os.getpid()}.json").write_text(
                json.dumps(record))

    return _serve


def child_env(directory, threshold: int | None = None) -> dict:
    """Environment variables that make every interpreter started from
    this one a probed one."""
    env = {DIRECTORY_ENV: str(directory),
           "PYTHONPATH": os.pathsep.join(
               str(path) for path in (TESTS / "gc_probe_site", TESTS, SRC))}
    if threshold is not None:
        env[THRESHOLD_ENV] = str(threshold)
    return env


def install(monkeypatch, directory) -> None:
    """Probe every worker this process starts from here on, whichever
    way it starts them, until ``monkeypatch`` is undone."""
    monkeypatch.setattr(worker, "_serve", probed_serve(directory))
    for key, value in child_env(directory).items():
        monkeypatch.setenv(key, value)


def install_from_env() -> None:
    """What ``gc_probe_site/sitecustomize.py`` runs in a fresh
    interpreter: the same patch, for the life of the process."""
    directory = os.environ.get(DIRECTORY_ENV)
    if not directory:
        return
    worker._serve = probed_serve(directory)
    if THRESHOLD_ENV in os.environ:
        worker.GC_YOUNG_THRESHOLD = int(os.environ[THRESHOLD_ENV])


def read(directory) -> list[dict]:
    """Every record left in ``directory``, by worker id."""
    records = [json.loads(path.read_text())
               for path in pathlib.Path(directory).glob("*.json")]
    return sorted(records, key=lambda record: record["worker_id"])
