"""No dead knob can come back (DESIGN.md, "Configuration").

Every ``NiceConfig`` field must be read by the engine — some file under
``src/repro`` other than ``config.py``/``cli.py`` contains
``config.<field>`` — and must have a row in DESIGN.md's "Configuration"
table naming its reader and a test that fails without it; the named test
must exist.  A field added without a reader, a row or a test fails here.

Fields whose only readers copy a value into the object that acts on it
(a bound handed to a constructor, a budget the scheduler returns) have no
behavioural test that would notice the copy going missing; the reader
pins at the bottom hold those copies directly.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import pickle
import random
import re
from types import SimpleNamespace

import pytest

from repro import scenarios
from repro.config import NiceConfig
from repro.mc import store as store_mod
from repro.mc.scheduler import _Scheduler
from repro.mc.strategies import make_strategy

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


def test_the_config_has_41_fields():
    assert len(FIELDS) == 41


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
    config = NiceConfig(store_bloom_bits=64)
    del config.__dict__["store_bloom_bits"]
    assert pickle.loads(pickle.dumps(config)).store_bloom_bits \
        == NiceConfig.store_bloom_bits


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


def _task_budgets(**knobs) -> tuple[int, int]:
    """``(nodes, groups)`` one task for worker 0 of two may carry, past
    the fan-out phase, its RTT-grown batch at 40 nodes and 1000 groups
    pending."""
    sched = _Scheduler.__new__(_Scheduler)
    sched.config = NiceConfig(**knobs)
    sched.searcher = SimpleNamespace(_explored=range(1000))
    sched._live = {0, 1}
    sched._batch = {0: 40.0}
    sched._pending_groups = 1000
    nodes = sched._node_budget(0)
    return nodes, sched._group_budget(0, nodes)


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
    "batch_nodes": lambda:
        _task_budgets(adaptive_batching=False, batch_nodes=3)[0] == 3,
    "batch_groups": lambda:
        _task_budgets(adaptive_batching=False, batch_groups=2)[1] == 2,
    "adaptive_batching": lambda:
        _task_budgets(batch_nodes=3, batch_groups=2) == (40, 27),
}


@pytest.mark.parametrize("field", sorted(READER_PINS))
def test_reader_pin(field):
    assert READER_PINS[field]()
