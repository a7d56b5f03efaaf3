"""Tests-only driver for the crash-recovery harness.

:func:`crash_run` launches ``_crash_main.py`` in its **own session** (so
the in-process ``killpg`` cannot reach pytest), waits for the SIGKILL,
and returns the checkpoint directory the dead master left behind.
:func:`corrupt_newest` simulates a torn write by truncating a file of
the newest snapshot — resume must fall back to the previous one.

:func:`interrupt_after` plants an *in-process* interruption point (the
same ``create_store`` seam the subprocess harness uses) that raises
instead of SIGKILLing — the cheap variant the differential suite runs
per seed, and the SIGTERM tests reuse it to deliver the signal at a
deterministic state count.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

import repro
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.search import SearchStats

HERE = pathlib.Path(__file__).resolve().parent
_SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


class Interrupted(Exception):
    """Raised by the in-process interruption point."""


def crash_run(checkpoint_dir, kill_after_states: int, *, scenario="ping",
              kwargs=None, timeout=180.0, kill_in_snapshot=None,
              **overrides) -> pathlib.Path:
    """Run a checkpointing search in a subprocess and SIGKILL it (master
    plus workers) once ``kill_after_states`` states are explored — or,
    with ``kill_in_snapshot`` = n, inside the n-th snapshot, after its
    records are appended and before it is renamed into place; returns
    ``checkpoint_dir`` with at least one completed snapshot in it."""
    checkpoint_dir = pathlib.Path(checkpoint_dir)
    payload = {
        "scenario": scenario,
        "kwargs": kwargs or {"pings": 2},
        "overrides": {"checkpoint_dir": str(checkpoint_dir), **overrides},
        "kill_after_states": kill_after_states,
        "kill_in_snapshot": kill_in_snapshot,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "_crash_main.py"), json.dumps(payload)],
        env=env, start_new_session=True, capture_output=True, text=True,
        timeout=timeout)
    assert proc.returncode == -signal.SIGKILL, (
        f"expected the master to die of SIGKILL, got {proc.returncode};\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    snapshots = sorted(checkpoint_dir.glob("ckpt-*"))
    assert snapshots, (
        f"the crashed run left no completed checkpoint in {checkpoint_dir};"
        f"\nstderr: {proc.stderr}")
    return checkpoint_dir


def corrupt_newest(checkpoint_dir, filename: str | None = None) -> pathlib.Path:
    """Truncate one file of the newest snapshot (default: its largest) to
    half its size — a torn write.  Returns the corrupted snapshot dir."""
    newest = sorted(pathlib.Path(checkpoint_dir).glob("ckpt-*"))[-1]
    if filename is None:
        target = max((p for p in newest.iterdir() if p.is_file()),
                     key=lambda p: p.stat().st_size)
    else:
        target = newest / filename
    data = target.read_bytes()
    target.write_bytes(data[:len(data) // 2])
    return newest


def stored_digests(store, directory) -> list:
    """Every digest ``store`` holds, read the way a resume reads them:
    snapshot it into ``directory`` and walk the checkpoint's records
    (``Checkpoint.iter_digests``, the one record reader)."""
    store_mod.write_checkpoint(
        directory, spec=None, config=NiceConfig(), stats=SearchStats(),
        frontier=[], rng_state=None, store=store)
    return list(store_mod.load_latest_checkpoint(directory).iter_digests())


def interrupting_create_store(states: int, action):
    """A ``create_store`` replacement whose stores trigger ``action``
    once they hold ``states`` digests — THE interruption seam, shared by
    the in-process tests (:func:`interrupt_after`) and the subprocess
    crash harness (``_crash_main.py``), so both kill at the same point
    by construction."""
    real_create = store_mod.create_store

    def create_with_interrupt(config):
        store = real_create(config)
        real_add = store.add

        def add(digest):
            fresh = real_add(digest)
            if fresh and len(store) >= states:
                action()
            return fresh

        store.add = add
        return store

    return create_with_interrupt


def interrupt_after(monkeypatch, states: int,
                    action=None) -> None:
    """Patch the ``create_store`` seam so the running search's explored
    set triggers ``action`` (default: raise :class:`Interrupted`) once it
    holds ``states`` digests."""
    if action is None:
        def action():
            raise Interrupted(f"interrupted at {states} states")

    monkeypatch.setattr(store_mod, "create_store",
                        interrupting_create_store(states, action))
