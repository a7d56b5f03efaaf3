"""The benchmark's pinned workloads (bench/README.md says why each exists).

Every workload is a fixed problem: ``--seed`` only permutes the order in
which ``table2_sweep`` visits its cells (and, in ``run.py``, the order of
workloads within a round).  The searches themselves are deterministic,
which is what lets ``reference.json`` pin their state-space counts.

A workload has two phases, both run inside the fresh ``sample.py``
process: ``prepare`` (counted in ``setup_s``) and ``run`` (the timed
region behind ``wall_s``/``cpu_s``).  ``run`` returns one *observation*
per search — the deterministic ``SearchStats`` counts the orchestrator
compares against the reference.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import subprocess
import sys
from pathlib import Path

from repro import nice, scenarios
from repro.apps.energy_te import expected_path
from repro.config import NiceConfig
from repro.properties import (
    FlowAffinity,
    NoForgottenPackets,
    UseCorrectRoutingTable,
)

BENCH_DIR = Path(__file__).resolve().parent

#: Worker pool of the two parallel workloads (the box has 2 cores).
WORKERS = 2


def observe(stats) -> dict:
    """The deterministic counts of one finished search."""
    return {
        "terminated": stats.terminated,
        "transitions": stats.transitions_executed,
        "unique": stats.unique_states,
        "revisited": stats.revisited_states,
        "quiescent": stats.quiescent_states,
        "violations": len(stats.violations),
    }


class Workload:
    """One named workload; see the module docstring for the phases."""

    name = ""
    #: Typical wall seconds of one sample on the 2-core reference box;
    #: ten times this is the per-sample timeout.
    expect_s = 10.0
    #: Worker processes the searches use (0 = serial).
    workers = 0
    #: True when each search continues the one before (resume), so the
    #: last SearchStats holds the sample's totals rather than a share.
    cumulative_stats = False

    def __init__(self, workdir: Path, traced: bool = False):
        self.workdir = workdir
        self.traced = traced
        #: Every SearchStats of the sample, for the per-layer counters.
        self.stats: list = []

    def prepare(self) -> None:
        """Build what the timed region starts from."""

    def run(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def _search(self, search) -> dict:
        """Run one search and observe it; a raising search is a failed
        operation, not a crashed benchmark."""
        try:
            stats = search()
        except Exception as exc:  # noqa: BLE001 - counted in failed_share
            return {"error": f"{type(exc).__name__}: {exc}"}
        self.stats.append(stats)
        return observe(stats)


class Lb3(Workload):
    """``loadbalancer max_pkt_sequence=3`` exhausted: 133 888 transitions."""

    engine: dict = {}

    def config(self) -> NiceConfig:
        return NiceConfig(max_pkt_sequence=3, stop_at_first_violation=False,
                          **self.engine)

    def prepare(self) -> None:
        self.scenario = scenarios.loadbalancer_scenario(config=self.config())

    def run(self, seed: int) -> list[dict]:
        return [self._search(lambda: nice.run(self.scenario))]


class Lb3Serial(Lb3):
    name = "lb3_serial"
    expect_s = 8.6


class Lb3Fork2(Lb3):
    name = "lb3_fork2"
    expect_s = 12.5
    workers = WORKERS
    engine = dict(workers=WORKERS, transport="local", start_method="fork")


class Lb3Socket2(Lb3):
    """Untraced, the product spawns its own ``nice worker`` subprocesses.
    Traced, the same two workers start through ``worker_launcher.py`` so
    the timing wrappers exist inside them (``spawn_socket_workers=False``
    and a port picked here, because the launcher must be told where to
    connect before the master prints its ephemeral port)."""

    name = "lb3_socket2"
    expect_s = 13.5
    workers = WORKERS
    engine = dict(workers=WORKERS, transport="socket")

    def config(self) -> NiceConfig:
        config = super().config()
        if not self.traced:
            return config
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        return dataclasses.replace(
            config, worker_address=f"127.0.0.1:{port}",
            spawn_socket_workers=False)

    def run(self, seed: int) -> list[dict]:
        if not self.traced:
            return super().run(seed)
        # Started before the master listens; ``run_worker`` retries the
        # refused connection, exactly as a fleet provisioned ahead of its
        # master would.
        launchers = [
            subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker_launcher.py"),
                 self.scenario.config.worker_address,
                 str(self.workdir / "trace")],
                stdout=subprocess.DEVNULL)
            for _ in range(WORKERS)]
        try:
            return super().run(seed)
        finally:
            for launcher in launchers:
                try:
                    launcher.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    launcher.kill()
                    launcher.wait()


class Lb3SpillResume(Lb3):
    """Leg 1 stops at 60 000 transitions with 18 checkpoints on disk;
    leg 2 resumes the newest one and exhausts the space."""

    name = "lb3_spill_resume"
    expect_s = 10.5
    cumulative_stats = True
    LEG1_TRANSITIONS = 60_000

    def prepare(self) -> None:
        self.checkpoint_dir = self.workdir / "checkpoints"
        self.checkpoint_dir.mkdir()
        super().prepare()

    def config(self) -> NiceConfig:
        return NiceConfig(
            max_pkt_sequence=3, stop_at_first_violation=False,
            store="sharded", store_shards=8, store_memory_budget=256,
            checkpoint_interval=1000,
            checkpoint_dir=str(self.checkpoint_dir),
            max_transitions=self.LEG1_TRANSITIONS)

    def run(self, seed: int) -> list[dict]:
        legs = []
        for search in (
                lambda: nice.run(self.scenario),
                lambda: nice.resume(str(self.checkpoint_dir),
                                    max_transitions=None)[1]):
            observation = self._search(search)
            if "error" not in observation:
                stats = self.stats[-1]
                observation.update(
                    checkpoints=stats.checkpoints_written,
                    spill_reads=stats.store_spill_reads,
                    evictions=stats.store_evictions)
            legs.append(observation)
        return legs


# ----------------------------------------------------------------------
# Table 2 (scenario table copied from benchmarks/test_table2.py on
# purpose: the benchmark must not move when that suite is edited)
# ----------------------------------------------------------------------

BUGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")
STRATEGIES = ("PKT-SEQ", "NO-DELAY", "FLOW-IR", "UNUSUAL")


def bug_scenario(bug: str, strategy: str):
    config = NiceConfig(strategy=strategy)
    if bug == "I":
        return scenarios.pyswitch_mobile(config=config)
    if bug == "II":
        return scenarios.pyswitch_direct_path(config=config)
    if bug == "III":
        return scenarios.pyswitch_loop(config=config)
    if bug in ("IV", "V", "VI", "VII"):
        flags = {f"bug_{n}": False for n in ("iv", "v", "vi", "vii")}
        flags[f"bug_{bug.lower()}"] = True
        properties = ([FlowAffinity(["R1", "R2"])] if bug == "VII"
                      else [NoForgottenPackets()])
        return scenarios.loadbalancer_scenario(
            properties=properties, config=config, **flags)
    flags = {f"bug_{n}": False for n in ("viii", "ix", "x", "xi")}
    flags[f"bug_{bug.lower()}"] = True
    properties = ([UseCorrectRoutingTable(expected_path)] if bug == "X"
                  else [NoForgottenPackets()])
    polls = 2 if bug == "XI" else 1
    return scenarios.energy_te_scenario(
        properties=properties, polls=polls, config=config, **flags)


class Table2Sweep(Workload):
    """Two passes over BUG-I..XI x four strategies, first violation only.
    The 88 scenario builds are part of the timed region: a user pays one
    per search."""

    name = "table2_sweep"
    expect_s = 10.0
    PASSES = 2

    def run(self, seed: int) -> list[dict]:
        order = random.Random(seed)
        observations = []
        for sweep in range(self.PASSES):
            cells = [(bug, strategy) for bug in BUGS
                     for strategy in STRATEGIES]
            order.shuffle(cells)
            for bug, strategy in cells:
                observation = self._search(
                    lambda: nice.run(bug_scenario(bug, strategy)))
                observation["cell"] = f"{sweep}/{bug}/{strategy}"
                observations.append(observation)
        observations.sort(key=lambda observation: observation["cell"])
        return observations


class PingQuick(Workload):
    """``--quick`` only: the smoke test's stand-in for a real workload."""

    name = "ping_quick"
    expect_s = 0.2

    def prepare(self) -> None:
        self.scenario = scenarios.ping_experiment(pings=2)

    def run(self, seed: int) -> list[dict]:
        return [self._search(lambda: nice.run(self.scenario))]


WORKLOADS = {cls.name: cls for cls in (
    Lb3Serial, Lb3Fork2, Lb3Socket2, Lb3SpillResume, Table2Sweep)}
QUICK_WORKLOADS = {PingQuick.name: PingQuick}
ALL_WORKLOADS = {**WORKLOADS, **QUICK_WORKLOADS}


def warm_up() -> None:
    """One untimed tiny search, so lazy imports and first-call caches are
    paid before the timed region of every sample alike."""
    nice.run(scenarios.ping_experiment(pings=2))
