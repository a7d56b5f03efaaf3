"""The frontier order of the one search loop, pinned in tier-1.

A first-violation search stops where its frontier order takes it, so its
counts move the moment a node is visited out of turn.  ``bench/`` pins
that order for the nightly (``bench/reference.json``: 88 ``table2_sweep``
cells, the ``lb3`` counts); these tests hold the same line in ``pytest``:

* the ten cheapest ``table2_sweep`` cells and ``ping_quick`` reproduce
  their reference counts exactly (read-only use of the reference file);
* literal first-violation counts for ``pyswitch-direct-path`` under
  ``dfs``, ``bfs`` and two ``random`` seeds, cut at the commit before the
  serial loop and the scheduler's loop became one;
* a checkpoint whose frontier is in the one-node-per-group shape serial
  runs wrote before that commit resumes — serially in the old order, and
  on a pool — to the uninterrupted counts.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.test_table2 import bug_scenario
from checkpoint_helpers import Interrupted, interrupt_after
from contract import counters, requires_fork
from repro import nice, scenarios
from repro.mc.search import _InlineExpander
from repro.mc.store import load_latest_checkpoint
from repro.scenarios import with_config

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent
     / "bench" / "reference.json").read_text())

#: ``(bug, strategy) -> counts`` of the ten cheapest cells (the sweep's
#: two passes pin the same counts; the first is read).
CHEAPEST_CELLS = {
    tuple(cell.pop("cell").split("/")[1:]): cell
    for cell in sorted(
        (dict(search) for search in REFERENCE["table2_sweep"]["searches"]
         if search["cell"].startswith("0/")),
        key=lambda search: search["transitions"])[:10]}


def observe(stats) -> dict:
    """``bench/workloads.py``'s observation of one finished search."""
    return {
        "terminated": stats.terminated,
        "transitions": stats.transitions_executed,
        "unique": stats.unique_states,
        "revisited": stats.revisited_states,
        "quiescent": stats.quiescent_states,
        "violations": len(stats.violations),
    }


@pytest.mark.parametrize("bug,strategy", sorted(CHEAPEST_CELLS))
def test_table2_cell_reproduces_the_benchmark_reference(bug, strategy):
    assert observe(nice.run(bug_scenario(bug, strategy))) \
        == CHEAPEST_CELLS[bug, strategy]


def test_ping_quick_reproduces_the_benchmark_reference():
    expected, = REFERENCE["ping_quick"]["searches"]
    assert observe(nice.run(scenarios.ping_experiment(pings=2))) == expected


#: ``(search_order, seed) -> (transitions, unique, revisited, quiescent)``
#: of ``pyswitch-direct-path`` to its first violation.
FIRST_VIOLATION = {
    ("dfs", 0): (431, 266, 165, 5),
    ("bfs", 0): (329, 203, 126, 0),
    ("random", 0): (481, 338, 143, 0),
    ("random", 7): (319, 224, 95, 0),
}


def _direct_path(order, seed, **overrides):
    return with_config(scenarios.pyswitch_direct_path(), search_order=order,
                       seed=seed, **overrides)


@pytest.mark.parametrize("order,seed", sorted(FIRST_VIOLATION))
def test_first_violation_counts_are_literal(order, seed):
    stats = nice.run(_direct_path(order, seed))
    assert stats.terminated == "first_violation"
    assert (stats.transitions_executed, stats.unique_states,
            stats.revisited_states, stats.quiescent_states) \
        == FIRST_VIOLATION[order, seed]


# ----------------------------------------------------------------------
# Older serial checkpoints: one ``(full trace, None)`` group per node
# ----------------------------------------------------------------------

def _one_node_per_group(groups):
    return [(trace if step is None else trace + (step,), None)
            for trace, steps in groups
            for step in ([None] if steps is None else steps)]


@pytest.fixture
def old_shape(monkeypatch):
    """Serial checkpoints written while this is active keep their
    frontier the way serial runs wrote it before sibling groups."""
    groups = _InlineExpander.groups
    monkeypatch.setattr(_InlineExpander, "groups",
                        lambda self: _one_node_per_group(groups(self)))


def _interrupted_checkpoints(monkeypatch, tmp_path, order, seed, **overrides):
    """Checkpoint ``pyswitch-direct-path`` every 40 states and interrupt
    it at 150; returns the directory (three snapshots in, the newest with
    one single-node group per frontier node)."""
    directory = tmp_path / "c"
    with monkeypatch.context() as patch:
        interrupt_after(patch, 150)
        with pytest.raises(Interrupted):
            nice.run(_direct_path(order, seed, checkpoint_interval=40,
                                  checkpoint_dir=str(directory),
                                  **overrides))
    frontier = load_latest_checkpoint(directory).frontier
    assert len(frontier) > 1
    assert all(steps is None for _, steps in frontier)
    return directory


@pytest.mark.parametrize("order,seed", sorted(FIRST_VIOLATION))
def test_old_shape_checkpoint_resumes_serially_in_the_old_order(
        order, seed, old_shape, monkeypatch, tmp_path):
    """To the first violation: the resumed leg must visit the remaining
    nodes exactly as the uninterrupted search would have."""
    directory = _interrupted_checkpoints(monkeypatch, tmp_path, order, seed)
    _, stats = nice.resume(directory)
    assert stats.engine == "serial" and stats.resumed_from
    assert (stats.transitions_executed, stats.unique_states,
            stats.revisited_states, stats.quiescent_states) \
        == FIRST_VIOLATION[order, seed]


@pytest.mark.parametrize("workers", [
    pytest.param(0, id="serial"),
    pytest.param(2, id="fork2", marks=requires_fork)])
@pytest.mark.parametrize("order", ["dfs", "bfs", "random"])
def test_old_shape_checkpoint_resumes_to_the_uninterrupted_counts(
        order, workers, old_shape, monkeypatch, tmp_path):
    uninterrupted = nice.run(
        _direct_path(order, 0, stop_at_first_violation=False))
    directory = _interrupted_checkpoints(
        monkeypatch, tmp_path, order, 0, stop_at_first_violation=False)
    _, stats = nice.resume(directory, workers=workers,
                           start_method="fork" if workers else None)
    assert stats.workers == workers and stats.resumed_from
    assert counters(stats) == counters(uninterrupted)
