"""Layer tracing from outside ``src/``: timing wrappers patched onto the
product's public entry points (on the class, or on the importing module's
binding), never an edit to the product.

Two kinds of record (bench/README.md, "Tracing"):

* **hot spans** — every wrapped call — are aggregated in place as
  ``(span, calling layer) -> [calls, total ns, self ns]``; a span's self
  time is its duration minus the wrapped calls made inside it, so the
  self times of one process partition its root span exactly;
* **task-level spans** — ``run``, ``dispatch``, ``expand``, ``merge``,
  ``checkpoint``, ``resume_load`` — are additionally kept whole as
  ``(name, start ns, end ns, task id, worker)`` and written out when the
  sample ends.

A span's *layer* is its name up to the last dot (``mc.system.clone`` ->
``mc.system``); layers are this repo's modules.

Worker processes carry the same wrappers — fork workers inherit them,
socket workers get them from ``worker_launcher.py`` — and, having no exit
hook the product would run, rewrite ``<tracedir>/<pid>.json`` with their
cumulative totals after every ``WorkerRuntime.expand``.
"""

from __future__ import annotations

import functools
import json
import os
import resource
from pathlib import Path
from time import perf_counter_ns

#: Calling layer of spans entered from benchmark code itself.
ROOT_LAYER = "bench"


def layer_of(span: str) -> str:
    return span.rsplit(".", 1)[0]


class Tracer:
    """Per-process span accounting; see the module docstring."""

    def __init__(self, tracedir: Path):
        self.tracedir = tracedir
        self.agg: dict[tuple[str, str], list[int]] = {}
        #: Open spans, innermost last: [layer, ns spent in wrapped callees].
        self.stack: list[list] = [[ROOT_LAYER, 0]]
        self.spans: list[tuple] = []
        #: Transitions offered to / kept by ``Strategy.filter``.
        self.counts = {"filter_in": 0, "filter_out": 0}
        #: ``(task id, worker id, start ns)`` of the master's open merge.
        self._merging: tuple | None = None

    def reset(self) -> None:
        """Forget everything recorded so far — run in a forked worker,
        which would otherwise report the master's pre-fork spans again.
        In place: the wrappers hold references to these containers."""
        self.agg.clear()
        del self.stack[1:]
        self.stack[0][1] = 0
        self.spans.clear()
        self.counts.update(filter_in=0, filter_out=0)
        self._merging = None

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def timed(self, fn, span: str, before=None, after=None):
        """``fn`` wrapped as one ``span``.  ``before(now)`` runs ahead of
        the clock; ``after(start, end, args, kwargs, result)`` once the
        span is recorded (``result`` is None if ``fn`` raised)."""
        layer = layer_of(span)
        agg, stack = self.agg, self.stack

        def record(start: int, frame: list) -> int:
            end = perf_counter_ns()
            elapsed = end - start
            stack.pop()
            parent = stack[-1]
            parent[1] += elapsed
            totals = agg.get((span, parent[0]))
            if totals is None:
                totals = agg[(span, parent[0])] = [0, 0, 0]
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[1]
            return end

        # Two bodies: the hot spans (a million calls a sample) must not
        # pay for hooks only the task-level spans use.
        if before is None and after is None:
            def wrapper(*args, **kwargs):
                frame = [layer, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(start, frame)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(perf_counter_ns())
                frame = [layer, 0]
                stack.append(frame)
                result = None
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = record(start, frame)
                    if after is not None:
                        after(start, end, args, kwargs, result)

        return functools.wraps(fn)(wrapper)

    def whole(self, name: str):
        """An ``after`` hook keeping the span whole under ``name``."""
        def after(start, end, args, kwargs, result):
            self.spans.append((name, start, end, None, None))
        return after

    # The master's merge work has no public entry point of its own, so it
    # is measured as the gap it leaves: from a ``recv`` that returned a
    # TaskResult to the master's next call into the transport.

    def _close_merge(self, now: int) -> None:
        if self._merging is not None:
            task, worker, start = self._merging
            self.spans.append(("merge", start, now, task, worker))
            self._merging = None

    def _after_submit(self, start, end, args, kwargs, result) -> None:
        from repro.mc.wire import ExpandTask

        _, worker, message = args
        if isinstance(message, ExpandTask):
            self.spans.append(
                ("dispatch", start, end, message.task_id, worker))

    def _after_recv(self, start, end, args, kwargs, result) -> None:
        from repro.mc.wire import TaskResult

        if isinstance(result, TaskResult):
            self._merging = (result.task_id, result.worker_id, end)

    def _after_expand(self, start, end, args, kwargs, result) -> None:
        task = kwargs.get("task_id", args[2] if len(args) > 2 else None)
        pid = os.getpid()
        with open(self.tracedir / f"{pid}.spans", "a") as spans:
            spans.write(f"{start} {end} {task}\n")
        scratch = self.tracedir / f"{pid}.json.tmp"
        scratch.write_text(json.dumps(self.totals()))
        os.replace(scratch, self.tracedir / f"{pid}.json")

    def _filter(self, fn):
        counts = self.counts

        def wrapper(strategy, system, enabled):
            kept = fn(strategy, system, enabled)
            counts["filter_in"] += len(enabled)
            counts["filter_out"] += len(kept)
            return kept

        return wrapper

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def totals(self) -> dict:
        return {
            "pid": os.getpid(),
            "agg": {f"{span}|{caller}": totals
                    for (span, caller), totals in self.agg.items()},
            "counts": dict(self.counts),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def collate(self) -> dict:
        """This process's records plus every worker file under
        ``tracedir``: summed aggregates, and the whole spans with each
        ``expand`` tied to its ``dispatch`` through the task id."""
        own = self.totals()
        agg = {key: list(value) for key, value in own["agg"].items()}
        counts = dict(own["counts"])
        workers = []
        spans = [dict(name=name, start_ns=start, end_ns=end, task=task,
                      worker=worker, parent="run" if name != "run" else None)
                 for name, start, end, task, worker in self.spans]
        for path in sorted(self.tracedir.glob("*.json")):
            worker = json.loads(path.read_text())
            workers.append({"pid": worker["pid"],
                            "maxrss_kb": worker["maxrss_kb"]})
            for key, value in worker["agg"].items():
                mine = agg.setdefault(key, [0, 0, 0])
                for index, amount in enumerate(value):
                    mine[index] += amount
            for key, amount in worker["counts"].items():
                counts[key] += amount
            for line in path.with_suffix(".spans").read_text().splitlines():
                start, end, task = line.split()
                spans.append(dict(
                    name="expand", start_ns=int(start), end_ns=int(end),
                    task=None if task == "None" else int(task),
                    worker=worker["pid"], parent="dispatch"))
        return {"agg": agg, "counts": counts, "workers": workers,
                "spans": spans}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _family(base):
    yield base
    for subclass in base.__subclasses__():
        yield from _family(subclass)


def _patch_methods(tracer, base, method, span, wrap=None, **hooks):
    """Wrap ``method`` wherever ``base`` or a subclass defines it."""
    for cls in _family(base):
        if method in vars(cls):
            fn = tracer.timed(vars(cls)[method], span, **hooks)
            setattr(cls, method, wrap(fn) if wrap else fn)


def _patch_function(tracer, module, name, span, also=(), **hooks):
    """Wrap ``module.name`` once and rebind it there and in every module
    of ``also``, which imported it by name."""
    fn = tracer.timed(getattr(module, name), span, **hooks)
    for holder in (module, *also):
        setattr(holder, name, fn)


def install(tracer: Tracer) -> None:
    """Patch the timing wrappers in (once per process, before any
    search); forked children start from empty totals."""
    from repro import scenarios
    from repro.mc import replay, scheduler, search, store, worker
    from repro.mc.strategies import Strategy
    from repro.mc.system import System
    from repro.mc.transport import Transport
    from repro.mc.transport import local, socket  # noqa: F401 - subclasses
    from repro.properties.base import Property
    from repro.sym.engine import ConcolicEngine
    from repro.sym.solver import Solver

    for method, span in (("clone", "mc.system.clone"),
                         ("execute", "mc.system.execute"),
                         ("state_hash", "mc.system.state_hash"),
                         ("enabled_transitions", "mc.system.enabled"),
                         ("boot", "mc.system.boot")):
        _patch_methods(tracer, System, method, span)
    _patch_methods(tracer, Strategy, "filter", "mc.strategies.filter",
                   wrap=tracer._filter)
    _patch_methods(tracer, Strategy, "post_execute",
                   "mc.strategies.post_execute")
    for method in ("check", "check_quiescent"):
        _patch_methods(tracer, Property, method, "properties.check")
    for method in ("discover_packets", "discover_stats"):
        _patch_methods(tracer, ConcolicEngine, method, "sym.engine.discover")
    _patch_methods(tracer, Solver, "solve", "sym.solver.solve")
    _patch_function(tracer, replay, "replay_from",
                    "mc.replay.replay_from", also=[search])
    _patch_function(tracer, replay, "replay_with_spine",
                    "mc.replay.replay_with_spine", also=[worker])
    _patch_methods(tracer, store.StateStore, "add_batch",
                   "mc.store.add_batch")
    _patch_methods(tracer, store.StateStore, "__contains__",
                   "mc.store.contains")
    _patch_methods(tracer, store.Checkpointer, "write",
                   "mc.store.checkpoint", after=tracer.whole("checkpoint"))
    for name in ("load_latest_checkpoint", "restore_store"):
        _patch_function(tracer, store, name, "mc.store.resume_load",
                        after=tracer.whole("resume_load"))
    _patch_methods(tracer, worker.WorkerRuntime, "expand",
                   "mc.worker.expand", after=tracer._after_expand)
    _patch_methods(tracer, Transport, "start", "mc.transport.start")
    _patch_methods(tracer, Transport, "submit", "mc.transport.submit",
                   before=tracer._close_merge, after=tracer._after_submit)
    _patch_methods(tracer, Transport, "recv", "mc.transport.recv",
                   before=tracer._close_merge, after=tracer._after_recv)
    _patch_methods(tracer, Transport, "stop", "mc.transport.stop",
                   before=tracer._close_merge)
    # Not the family: ParallelSearcher.run is its own span, not a
    # Searcher.run nested in one.
    search.Searcher.run = tracer.timed(
        search.Searcher.run, "mc.search.run", after=tracer.whole("run"))
    scheduler.ParallelSearcher.run = tracer.timed(
        scheduler.ParallelSearcher.run, "mc.scheduler.run",
        after=tracer.whole("run"))
    for name, builder in list(scenarios.REGISTRY.items()):
        fn = tracer.timed(builder, "scenarios.build")
        scenarios.REGISTRY[name] = fn
        setattr(scenarios, builder.__name__, fn)
    os.register_at_fork(after_in_child=tracer.reset)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(collated: dict, stats: list, wall_s: float, workers: int,
                  cumulative: bool = False) -> dict:
    """The per-layer metrics one traced sample can give (``run.py`` adds
    the ones that compare samples or come from ``drivers.py``).

    ``*_calls`` / ``*_s`` count spans *entered from another layer* —
    calls into the layer, not its internal recursion — summed over the
    master and every worker.  ``stats`` are the sample's SearchStats;
    with ``cumulative`` each continues the one before (a resumed search
    restores its checkpoint's counters), so the last holds the totals.
    """
    agg, counts = collated["agg"], collated["counts"]

    def entered(span: str) -> tuple[int, float]:
        calls = spent = 0
        for key, (span_calls, total_ns, _) in agg.items():
            name, caller = key.split("|")
            if name == span and caller != layer_of(span):
                calls += span_calls
                spent += total_ns
        return calls, spent / 1e9

    def own(span: str) -> float:
        return sum(self_ns for key, (_, _, self_ns) in agg.items()
                   if key.split("|")[0] == span) / 1e9

    def total(field: str) -> float:
        return sum(getattr(each, field) for each in
                   (stats[-1:] if cumulative else stats))

    def hot(field: str) -> float:
        # Hashing counters are per process run, never restored.
        return sum(getattr(each, field) for each in stats)

    metrics: dict[str, float] = {}

    def busy(prefix: str, *spans: str, calls: bool = True) -> float:
        sums = [entered(span) for span in spans]
        if calls:
            metrics[f"{prefix}_calls"] = sum(c for c, _ in sums)
        metrics[f"{prefix}_s"] = sum(s for _, s in sums)
        return metrics[f"{prefix}_s"]

    for name in ("clone", "execute", "state_hash", "enabled"):
        busy(f"mc.system.{name}", f"mc.system.{name}")
    busy("mc.system.boot", "mc.system.boot", calls=False)
    metrics["mc.system.bytes_hashed"] = hot("bytes_hashed")
    metrics["mc.system.hash_hit_ratio"] = _ratio(
        hot("hash_hits"), hot("hash_hits") + hot("hash_misses"))
    metrics["mc.system.cow_copied"] = hot("cow_copied")

    transitions = total("transitions_executed")
    metrics["mc.search.self_s"] = own("mc.search.run")
    metrics["mc.search.revisit_ratio"] = _ratio(
        total("revisited_states"), transitions)

    busy("mc.strategies.filter", "mc.strategies.filter")
    busy("mc.strategies.post_execute", "mc.strategies.post_execute",
         calls=False)
    metrics["mc.strategies.pruned_ratio"] = _ratio(
        counts["filter_in"] - counts["filter_out"], counts["filter_in"])
    busy("properties.check", "properties.check")
    busy("sym.discover", "sym.engine.discover")
    busy("sym.solver", "sym.solver.solve")
    busy("scenarios.build", "scenarios.build")

    busy("mc.replay.replay", "mc.replay.replay_from",
         "mc.replay.replay_with_spine")
    restored = total("replayed_transitions") + total("rebuilt_transitions")
    metrics["mc.replay.replayed_transitions"] = total("replayed_transitions")
    metrics["mc.replay.rebuilt_transitions"] = total("rebuilt_transitions")
    metrics["mc.replay.restore_overhead_ratio"] = _ratio(
        restored, transitions)

    expand_s = busy("mc.worker.expand", "mc.worker.expand")
    metrics["mc.worker.busy_share"] = _ratio(expand_s, workers * wall_s)
    metrics["mc.worker.cache_hit_ratio"] = _ratio(
        total("cache_hits"), total("cache_hits") + total("cache_misses"))
    metrics["mc.worker.stub_ratio"] = _ratio(
        total("bloom_prefilter_drops"), transitions)
    metrics["mc.worker.stub_fp"] = total("bloom_prefilter_fp")
    metrics["mc.worker.peak_rss_mb"] = max(
        (worker["maxrss_kb"] / 1024 for worker in collated["workers"]),
        default=0.0)

    recv_calls, recv_wait_s = entered("mc.transport.recv")
    metrics["mc.transport.recv_calls"] = recv_calls
    metrics["mc.transport.recv_wait_s"] = recv_wait_s
    transport_s = (
        busy("mc.transport.start", "mc.transport.start", calls=False)
        + busy("mc.transport.submit", "mc.transport.submit")
        + recv_wait_s
        + busy("mc.transport.stop", "mc.transport.stop", calls=False))
    scheduler_s = entered("mc.scheduler.run")[1]
    metrics["mc.scheduler.merge_s"] = (
        scheduler_s - transport_s if workers else 0.0)
    tasks = sum(sum(each.worker_tasks.values()) for each in stats)
    routed = total("affinity_hits") + total("affinity_misses")
    metrics["mc.scheduler.tasks"] = tasks
    metrics["mc.scheduler.groups_per_task"] = _ratio(routed, tasks)
    metrics["mc.scheduler.affinity_hit_ratio"] = _ratio(
        total("affinity_hits"), routed)
    metrics["mc.scheduler.tasks_retried"] = total("tasks_retried")

    metrics["mc.wire.result_payload_bytes"] = total("result_payload_bytes")
    metrics["mc.wire.bytes_per_transition"] = _ratio(
        total("result_payload_bytes"), transitions)
    metrics["mc.wire.bytes_saved"] = total("result_bytes_saved")

    busy("mc.store.add_batch", "mc.store.add_batch")
    busy("mc.store.contains", "mc.store.contains")
    metrics["mc.store.hits"] = total("store_hits")
    metrics["mc.store.spill_reads"] = total("store_spill_reads")
    metrics["mc.store.evictions"] = total("store_evictions")
    metrics["mc.store.bloom_negatives"] = total("store_bloom_negatives")
    busy("mc.store.checkpoint", "mc.store.checkpoint")
    metrics["mc.store.checkpoint_bytes"] = total("checkpoint_bytes_written")
    busy("mc.store.resume_load", "mc.store.resume_load", calls=False)
    return metrics
