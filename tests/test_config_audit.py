"""No dead knob can come back (DESIGN.md, "Configuration").

Every ``NiceConfig`` field must be read by the engine — some file under
``src/repro`` other than ``config.py``/``cli.py`` contains
``config.<field>`` — and must have a row in DESIGN.md's "Configuration"
table naming its reader and a test that fails without it; the named test
must exist.  A field added without a reader, a row or a test fails here.

A knob is declared once: ``nice run``'s defaults, its flag -> field
mapping and its "ignored without --workers" warning all derive from the
dataclass, so the guards below hold the parser to ``NiceConfig`` as a
whole instead of flag by flag.

Fields whose only readers copy a value into the object that acts on it
(a bound handed to a constructor) have no behavioural test that would
notice the copy going missing; the reader pins hold those copies
directly.  What has no knob — the scheduler's one batching policy, a
task sized by its worker's share of the pending frontier — is pinned by
its decisions at the bottom.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from repro import scenarios
from repro.cli import POOL_FIELDS, build_parser, main, make_config
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.scheduler import _Scheduler
from repro.mc.strategies import make_strategy
from scripted_transport import enrolled_scheduler

REPO = pathlib.Path(__file__).resolve().parent.parent
FIELDS = [field.name for field in dataclasses.fields(NiceConfig)]


@functools.cache
def _configuration_table() -> dict:
    """``field -> (readers cell, test id)`` from DESIGN.md's table."""
    design = (REPO / "DESIGN.md").read_text()
    section = design[design.index("\n## Configuration\n"):]
    section = section[:section.index("\n## ", 1)]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1], cells[2].strip("`"))
    return rows


@functools.cache
def _engine_sources() -> str:
    """Everything under ``src/repro`` that could read a config."""
    return "\n".join(path.read_text()
                     for path in sorted((REPO / "src" / "repro").rglob("*.py"))
                     if path.name not in ("config.py", "cli.py"))


def test_the_config_has_30_fields():
    assert len(FIELDS) == 30


@pytest.mark.parametrize("field", FIELDS)
def test_field_is_read_by_the_engine(field):
    assert re.search(rf"config\.{field}\b(?!\s*=[^=])", _engine_sources()), (
        f"nothing under src/repro reads NiceConfig.{field}")


@pytest.mark.parametrize("field", FIELDS)
def test_field_has_a_row_naming_an_existing_test(field):
    table = _configuration_table()
    assert field in table, (
        f"DESIGN.md 'Configuration' has no row for NiceConfig.{field}")
    _, test_id = table[field]
    path, _, name = test_id.partition("::")
    function = name.split("::")[-1].split("[")[0]
    assert (REPO / path).is_file(), f"{field}: no such file {path}"
    assert re.search(rf"def {function}\(", (REPO / path).read_text()), (
        f"{field}: {path} defines no {function}")


def test_the_table_lists_nothing_else():
    assert sorted(_configuration_table()) == sorted(FIELDS)


def test_config_pickled_before_a_field_existed_reads_its_default():
    """A dataclass default is a class attribute: unpickling restores only
    the instance ``__dict__``, so a field the pickle predates falls back
    to the default with plain attribute access (no ``getattr`` guard)."""
    config = NiceConfig(store_shards=64)
    del config.__dict__["store_shards"]
    assert pickle.loads(pickle.dumps(config)).store_shards \
        == NiceConfig.store_shards


# ----------------------------------------------------------------------
# Declared once: the parser is built from the dataclass
# ----------------------------------------------------------------------

def test_run_defaults_are_the_dataclass():
    assert make_config(build_parser().parse_args(["run", "ping"])) \
        == NiceConfig()


def test_every_run_option_sets_the_field_it_is_named_for():
    run_flags = build_parser().run_flags
    assert set(run_flags) - {"pings", "mode", "arm_file", "trace", "json"} \
        <= set(FIELDS)
    assert POOL_FIELDS <= set(run_flags)


def test_run_help_lists_25_options(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out,
                            re.MULTILINE))
    assert listed == set(build_parser().run_flags.values())
    assert len(listed) == 25


# ----------------------------------------------------------------------
# Reader pins
# ----------------------------------------------------------------------

def _ping_system(**knobs):
    return scenarios.ping_experiment(
        pings=1, config=NiceConfig(**knobs)).system_factory()


def _sharded_store(**knobs):
    store = store_mod.create_store(NiceConfig(store="sharded", **knobs))
    store.close()
    return store


def _same_flow(packet_a, packet_b) -> bool:
    return True


READER_PINS = {
    "max_outstanding": lambda:
        _ping_system(max_outstanding=3).hosts["A"].counter_c == 3,
    "hash_counters": lambda:
        _ping_system(hash_counters=True).switches["s1"].hash_counters
        and not _ping_system().switches["s1"].hash_counters,
    "max_paths": lambda:
        scenarios.pyswitch_direct_path().with_config(max_paths=3)
        .make_searcher().discoverer.max_paths == 3,
    "seed": lambda:
        scenarios.ping_experiment().with_config(seed=7).make_searcher()
        ._rng.getstate() == random.Random(7).getstate(),
    "extra": lambda:
        make_strategy(NiceConfig(strategy="FLOW-IR",
                                 extra={"is_same_flow": _same_flow}))
        .is_same_flow is _same_flow,
    "store_shards": lambda: _sharded_store(store_shards=4).shards == 4,
    "store_memory_budget": lambda:
        _sharded_store(store_memory_budget=7).memory_budget == 7,
}


@pytest.mark.parametrize("field", sorted(READER_PINS))
def test_reader_pin(field):
    assert READER_PINS[field]()


# ----------------------------------------------------------------------
# The one batching policy (DESIGN.md, "Batch sizing")
# ----------------------------------------------------------------------

def _scheduler(pending: int, rtt: float | None = 0.005) -> _Scheduler:
    """Worker 0 of two live ones, past the fan-out phase, with ``pending``
    groups queued and ``rtt`` its RTT average (None: no task back yet)."""
    sched = enrolled_scheduler(scenarios.ping_experiment(pings=1))
    sched._workers[0].rtt = rtt
    sched._pending_groups = pending
    return sched


def _task_budgets(sched: _Scheduler) -> tuple[int, int]:
    """``(nodes, groups)`` worker 0's next task may carry."""
    nodes = sched._node_budget(0)
    return nodes, sched._group_budget(nodes)


@pytest.mark.parametrize("pending,nodes,groups", [
    (3, 16, 8),           # never below BATCH_NODES
    (50, 16, 8),
    (100, 25, 12),        # fair share: 100 groups / (2 workers x 2)
    (1000, 250, 125),
    (10000, 512, 256),    # never above MAX_BATCH_NODES
])
def test_task_budgets_at_the_defaults(pending, nodes, groups):
    """Literal packing decisions: a drift in the policy or its constants
    fails here."""
    assert _task_budgets(_scheduler(pending)) == (nodes, groups)


def test_a_worker_without_an_rtt_sample_gets_batch_nodes():
    assert _task_budgets(_scheduler(1000, rtt=None)) == (16, 8)


def test_fan_out_sends_one_node_per_task():
    sched = _scheduler(1000)
    sched.searcher._explored = range(7)  # fewer than 4 per live worker
    assert _task_budgets(sched) == (1, 1)


@given(rtts=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                     max_size=60),
       pending=st.integers(min_value=0, max_value=100_000))
def test_budgets_stay_in_bounds_and_ignore_rtt_samples(rtts, pending):
    """A round-trip time moves the deadline, never the batch: from the
    first sample on, a task's size is a function of the frontier."""
    sched = _scheduler(pending, rtt=None)
    sched._observe_rtt(0, rtts[0])
    budgets = _task_budgets(sched)
    for rtt in rtts[1:]:
        sched._observe_rtt(0, rtt)
        assert _task_budgets(sched) == budgets
    nodes, groups = budgets
    assert _Scheduler.BATCH_NODES <= nodes <= _Scheduler.MAX_BATCH_NODES
    assert 1 <= groups <= nodes
    assert nodes <= max(_Scheduler.BATCH_NODES, pending // 4)
