"""Layer drivers: ``mc.store`` and ``mc.wire`` measured on their own.

The five searches leave both layers under 2 % of wall time, so a change
to either could never show there.  These drivers call the layers' public
functions directly at a size where they dominate, and report under the
same per-layer names (bench/README.md, "Layer drivers").  ``run.py``
starts ``python bench/drivers.py store|wire`` in a process of its own;
the last line of output is one JSON object of metric values.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import random
import statistics
import sys
import time
from pathlib import Path

from repro import nice, scenarios
from repro.config import NiceConfig
from repro.mc.store import MemoryStore, ShardedStore
from repro.mc.transport.local import LocalTransport
from repro.mc.wire import ExpandTask, TaskResult

#: Explored-set size for the store driver, and the resident budget of its
#: spilling configuration: a working set 100x the cache.
DIGESTS = 1_000_000
SPILL_BUDGET = 10_000
#: Spilled lookups each read a shard file; a tenth of the set is enough.
SPILL_LOOKUPS = 100_000
#: Transitions of ``lb3_fork2`` whose task stream the wire driver keeps.
CAPTURE_TRANSITIONS = 20_000
#: Passes over the captured stream; the median pass is reported.
WIRE_PASSES = 5


def per_second(count: int, operation) -> float:
    gc.collect()
    start = time.perf_counter()
    operation()
    return count / (time.perf_counter() - start)


def store_driver(workdir: Path) -> dict:
    digests = [hashlib.md5(str(i).encode()).hexdigest()
               for i in range(DIGESTS)]
    metrics = {}

    memory = MemoryStore()
    metrics["mc.store.memory_inserts_per_s"] = per_second(
        DIGESTS, lambda: memory.add_batch(digests))
    memory.close()

    def found(store, wanted) -> None:
        missing = sum(1 for digest in wanted if digest not in store)
        if missing:
            raise AssertionError(f"{missing} stored digests not found")

    sharded = ShardedStore(shards=16, directory=str(workdir / "sharded"))
    metrics["mc.store.sharded_inserts_per_s"] = per_second(
        DIGESTS, lambda: sharded.add_batch(digests))
    metrics["mc.store.sharded_lookups_per_s"] = per_second(
        DIGESTS, lambda: found(sharded, digests))
    sharded.close()

    spilling = ShardedStore(shards=16, memory_budget=SPILL_BUDGET,
                            directory=str(workdir / "spilling"))
    spilling.add_batch(digests)
    spilling.flush()
    probes = random.Random(0).sample(digests, SPILL_LOOKUPS)
    metrics["mc.store.spill_lookups_per_s"] = per_second(
        SPILL_LOOKUPS, lambda: found(spilling, probes))
    if spilling.counters()["spill_reads"] < SPILL_LOOKUPS * 0.9:
        raise AssertionError("the spill driver did not read from disk")
    spilling.close()
    return metrics


def capture_task_stream() -> tuple[list[bytes], list[bytes]]:
    """Pickled ExpandTask and TaskResult messages of the first
    ``CAPTURE_TRANSITIONS`` transitions of ``lb3_fork2``, each pickled
    the moment it crosses the transport (the scheduler rewrites results
    in place while merging)."""
    tasks: list[bytes] = []
    results: list[bytes] = []
    submit, recv = LocalTransport.submit, LocalTransport.recv

    def capturing_submit(transport, worker_id, message):
        if isinstance(message, ExpandTask):
            tasks.append(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        return submit(transport, worker_id, message)

    def capturing_recv(transport, timeout=None):
        message = recv(transport, timeout)
        if isinstance(message, TaskResult):
            results.append(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        return message

    LocalTransport.submit, LocalTransport.recv = \
        capturing_submit, capturing_recv
    try:
        nice.run(scenarios.loadbalancer_scenario(config=NiceConfig(
            max_pkt_sequence=3, stop_at_first_violation=False, workers=2,
            transport="local", start_method="fork",
            max_transitions=CAPTURE_TRANSITIONS)))
    finally:
        LocalTransport.submit, LocalTransport.recv = submit, recv
    return tasks, results


def wire_driver() -> dict:
    tasks, results = capture_task_stream()
    blobs = tasks + results
    messages = [pickle.loads(blob) for blob in blobs]
    encode, decode = [], []
    for _ in range(WIRE_PASSES):
        encode.append(1e6 / per_second(len(messages), lambda: [
            pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            for message in messages]))
        decode.append(1e6 / per_second(len(blobs), lambda: [
            pickle.loads(blob) for blob in blobs]))
    return {
        "mc.wire.encode_us": statistics.median(encode),
        "mc.wire.decode_us": statistics.median(decode),
        "mc.wire.result_bytes": statistics.fmean(map(len, results)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("driver", choices=["store", "wire"])
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(store_driver(args.workdir) if args.driver == "store"
                     else wire_driver()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
