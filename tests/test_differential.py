"""Differential testing over randomized scenarios (ISSUE 4, extended by
ISSUE 5).

Every engine variant of the search — serial, the reference engine
(deep-copied checkpoints hashed from scratch, :mod:`reference_engine`),
parallel over two fork workers, the sharded
explored-set store under a spill-forcing memory budget, and the
workers' retention hint saturated (:func:`fault_helpers.saturated_hint`:
nothing is retained, every restoration is a rebuild) — must explore
the identical state space and reach identical property verdicts on
every scenario :mod:`scenario_gen` can generate.  On top of the
variants, every seed also runs **interrupted-then-resumed**: the search
is cut at a seed-derived state count past its first checkpoint and
continued with ``nice.resume``, and the combined legs must match the
uninterrupted serial run exactly (the checkpoint/resume invariant of
DESIGN.md, "State store and restartability").  A failing seed is
printed in the assertion message for replay
(``random_scenario(seed)`` rebuilds it exactly).

A small seed range runs in the fast tier; the wide sweep is ``slow``
and rides the nightly matrix.  Twenty seeds in all, each under
``TRANSITION_CAP`` serial transitions: the reference engine is ~15x
slower than the product, so the generator's two largest spaces (seeds 6
and 17: 27 746 and 12 048 transitions, 89 s of the sweep's 124 s) were
re-picked — the next seeds under the cap, 20 and 21, stand in for them —
rather than truncated, because a ``max_transitions`` stop is approximate
on a pool and would weaken the equality below.  ``check_seed`` fails a
seed that outgrows the cap (a generator change), naming the remedy.
"""

from __future__ import annotations

import pytest

from checkpoint_helpers import Interrupted, interrupt_after
from contract import counters, requires_fork, violated_properties
from fault_helpers import saturated_hint
from reference_engine import reference_run
from repro import nice
from repro.scenarios import with_config
from scenario_gen import random_scenario

#: Engine variants cross-checked against the serial default.
VARIANTS = {
    "parallel-2": dict(workers=2),
    # A tiny resident budget forces the disk-spill lookup path on every
    # generated scenario, not just giant ones.
    "sharded-store": dict(store="sharded", store_shards=4,
                          store_memory_budget=16),
}

#: Serial ``transitions_executed`` a generated scenario may take.
TRANSITION_CAP = 10_000

FAST_SEEDS = range(4)
SLOW_SEEDS = [seed for seed in range(4, 22) if seed not in (6, 17)]


def variant_runs(scenario):
    yield "reference", reference_run(scenario)
    for variant, overrides in VARIANTS.items():
        yield variant, nice.run(with_config(scenario, **overrides))
    # The workers' retention hint (parallel-2 above runs it at its real
    # size) saturated: an 8-bit filter answers "seen" for nearly every
    # digest, so nothing is retained and every handle misses.
    with pytest.MonkeyPatch.context() as patch:
        saturated_hint(patch.setattr)
        saturated = nice.run(with_config(scenario, workers=2))
    yield "hint-saturated", saturated


def check_seed(seed: int, tmp_path, monkeypatch) -> None:
    scenario = random_scenario(seed)
    baseline = nice.run(scenario)
    replay = f"replay with scenario_gen.random_scenario({seed})"
    assert baseline.transitions_executed <= TRANSITION_CAP, (
        f"seed {seed} takes {baseline.transitions_executed} serial"
        f" transitions, over the {TRANSITION_CAP} cap: pick the next seed"
        f" under it")
    for variant, result in variant_runs(scenario):
        assert counters(result) == counters(baseline), (
            f"seed {seed}: {variant} explored a different state space"
            f" ({counters(result)} != {counters(baseline)}); {replay}")
        assert violated_properties(result) == violated_properties(baseline), (
            f"seed {seed}: {variant} reached different verdicts"
            f" ({violated_properties(result)} !="
            f" {violated_properties(baseline)}); {replay}")
    resumed = interrupted_then_resumed(scenario, seed, baseline, tmp_path,
                                       monkeypatch)
    assert counters(resumed) == counters(baseline), (
        f"seed {seed}: interrupted-then-resumed explored a different state"
        f" space ({counters(resumed)} != {counters(baseline)}); {replay}")
    assert violated_properties(resumed) == violated_properties(baseline), (
        f"seed {seed}: interrupted-then-resumed reached different verdicts;"
        f" {replay}")


def interrupted_then_resumed(scenario, seed, baseline, tmp_path, monkeypatch):
    """Cut the search at a seed-derived point past its first checkpoint,
    then continue from the snapshot.  Generated scenarios carry no
    registry spec, so the resume rebuilds from the scenario object — the
    path `nice.resume(scenario=...)` exists for."""
    unique = baseline.unique_states
    if unique < 6:
        pytest.skip(f"seed {seed} explores only {unique} states — nothing "
                    f"meaningful to interrupt")
    interval = max(2, unique // 4)
    cut = min(unique - 1, interval + 1 + (seed % max(unique - interval - 2, 1)))
    ckpt_dir = tmp_path / f"ckpt-{seed}"
    interrupted = with_config(scenario, checkpoint_dir=str(ckpt_dir),
                              checkpoint_interval=interval)

    def cut_after_first_checkpoint():
        # Only interrupt once a completed snapshot exists to fall back
        # on — checkpoints are written between expansions, and a bushy
        # node can blow through `cut` before the first one lands.
        if any(ckpt_dir.glob("ckpt-*")):
            raise Interrupted(f"cut at >= {cut} states")

    interrupt_after(monkeypatch, cut, action=cut_after_first_checkpoint)
    try:
        with pytest.warns(RuntimeWarning, match="hand-built"):
            finished = nice.run(interrupted)
    except Interrupted:
        pass
    else:
        # The space was too shallow to cut after its first checkpoint;
        # the completed checkpointing run is still a valid variant.
        monkeypatch.undo()
        return finished
    monkeypatch.undo()
    _, stats = nice.resume(ckpt_dir, scenario=scenario, checkpoint_dir=None)
    assert stats.resumed_from is not None
    return stats


class TestDifferentialRandomScenarios:
    @requires_fork
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_engines_agree(self, seed, tmp_path, monkeypatch):
        check_seed(seed, tmp_path, monkeypatch)

    @requires_fork
    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_engines_agree_wide_sweep(self, seed, tmp_path, monkeypatch):
        check_seed(seed, tmp_path, monkeypatch)


class TestUnusualStamps:
    """UNUSUAL keeps the oldest- and the newest-issued pending
    installation, read off the ``seq`` the stamping API wrapper gives
    every controller->switch message (``mc/system.py::_StampingAPI``) —
    so the space it explores moves with those stamps.  Seed 20 is one
    the strategy actually prunes (917 transitions without it); the
    literals were measured before the wrapper stopped copying the queue
    it stamps."""

    @requires_fork
    def test_a_seq_sensitive_seed_is_pinned_on_every_engine(self):
        scenario = with_config(random_scenario(20), strategy="UNUSUAL")
        baseline = nice.run(scenario)
        assert (baseline.transitions_executed, baseline.unique_states,
                baseline.bytes_hashed, baseline.hash_hits,
                baseline.hash_misses, baseline.cow_copied) == (
            913, 406, 101196, 4764, 1634, 1627)
        assert nice.run(with_config(random_scenario(20))) \
            .transitions_executed == 917
        for variant, result in variant_runs(scenario):
            assert counters(result) == counters(baseline), variant
            assert violated_properties(result) \
                == violated_properties(baseline), variant


class TestGeneratorDeterminism:
    def test_same_seed_same_scenario(self):
        a, b = random_scenario(7), random_scenario(7)
        assert a.system_factory().state_hash() == \
            b.system_factory().state_hash()
        assert a.config == b.config

    def test_seeds_vary_the_scenario(self):
        hashes = {random_scenario(seed).system_factory().state_hash()
                  for seed in range(8)}
        assert len(hashes) > 1

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_spaces_stay_bounded(self, seed):
        """The generator's size contract: every scenario exhausts within
        a bounded transition budget (loop-free topologies, <=3 packets)."""
        result = nice.run(with_config(random_scenario(seed),
                                      max_transitions=40000))
        assert result.terminated == "exhausted"
