"""Subprocess entry point of the crash-recovery harness.

Runs one checkpointing search and SIGKILLs its *own process group* — the
master and every worker it spawned — the moment the explored set reaches
a seeded interruption point.  Killing the whole group at a state count
(not a checkpoint boundary) leaves exactly what a real crash leaves:
completed snapshots on disk plus an arbitrary amount of lost
post-checkpoint work.  The parent test launches this script with
``start_new_session=True`` so the kill cannot reach pytest, and asserts
the exit status is ``-SIGKILL``.

The interruption point is planted through the
:func:`repro.mc.store.create_store` seam (the engines resolve it at run
time for exactly this purpose): every *fresh* digest admitted to the
explored set counts toward ``kill_after_states``.

Tasks are one node each (:func:`fault_helpers.small_tasks`, applied to
this process's scheduler), as in the suites that launch this script.

Usage: ``python _crash_main.py '<json payload>'`` with keys
``scenario`` (registry name), ``kwargs`` (builder kwargs),
``overrides`` (NiceConfig fields — must include ``checkpoint_dir``),
and ``kill_after_states``.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def main() -> int:
    payload = json.loads(sys.argv[1])

    # Our own directory is on sys.path (script invocation), so the
    # interruption seam is the exact same code the in-process tests use.
    from checkpoint_helpers import interrupting_create_store
    from fault_helpers import small_tasks

    from repro import nice, scenarios
    from repro.mc import store as store_mod
    from repro.scenarios import with_config

    kill_after = payload["kill_after_states"]
    small_tasks()

    def kill_own_process_group():
        os.killpg(os.getpgid(0), signal.SIGKILL)

    store_mod.create_store = interrupting_create_store(
        kill_after, kill_own_process_group)

    scenario = scenarios.REGISTRY[payload["scenario"]](
        **payload.get("kwargs", {}))
    nice.run(with_config(scenario, **payload["overrides"]))
    # Reaching here means the kill point was never hit — the test asked
    # for an interruption point past the end of the state space.
    print(f"search finished without reaching the kill point "
          f"({kill_after} states)", file=sys.stderr, flush=True)
    return 3


if __name__ == "__main__":
    sys.exit(main())
