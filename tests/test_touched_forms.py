"""Cached sub-forms and sealed packets against the from-scratch oracle.

Contracts under test (DESIGN.md, "Sub-forms and sealed packets"):

* **no stale cache, no CoW leak** — on a random walk driven the way the
  search drives a system (clone, execute, hash; several children per
  parent, earlier states revisited), after every step each component's
  ``canonical()`` equals :mod:`reference_forms` on the child *and* on the
  parent, and ``state_hash()`` equals the digest built from those
  from-scratch forms — on the product's copy-on-write clones (``cow``)
  and again on the reference engine's eager deep copies (``eager``), where
  nothing is shared: a failure in both legs is a stale cache, in the first
  alone a CoW leak;
* **the seal** — no packet reachable from the parent changes its
  from-scratch form while a child executes;
* **byte identity** — the digest sets and hot-path counters of three
  exhaustive searches, as measured at the commit before any sub-form was
  cached (Python 3.11.7);
* **the digest memo** (DESIGN.md, "The digest tree") — every digest it
  holds at the end of a walk is the digest of its form's rendering, it
  holds at most two generations of forms, and the three searches read
  the same with it effectively switched off.
"""

from __future__ import annotations

import hashlib
import random
import tempfile

import pytest

import reference_forms as ref
from checkpoint_helpers import stored_digests
from reference_engine import reference_factory
from repro import scenarios
from repro.config import NiceConfig
from repro.mc import canonical
from repro.mc import store as store_mod
from repro.mc.canonical import digest_bytes, render_canonical
from repro.mc.strategies import make_strategy
from repro.scenarios import REGISTRY, with_config
from scenario_gen import (
    arp_client_scenario,
    random_scenario,
    tcp_client_scenario,
)

#: Steps per walk (the issue's floor) and states kept to branch from.
STEPS = 200
POOL = 8


def _walks():
    """Every registered scenario — the looping one included: a walk is
    bounded by its step count, not by the state space; it has the mobile
    host — four generated ones, the two host models no registered
    scenario uses and the fault model.  (Counter hashing is
    ``energy-te``'s: its app reads switch statistics.)"""
    cases = [pytest.param(builder, {}, id=name)
             for name, builder in sorted(REGISTRY.items())]
    cases += [pytest.param(lambda seed=seed: random_scenario(seed), {},
                           id=f"random-{seed}")
              for seed in (1, 2, 3, 4)]
    cases.append(pytest.param(arp_client_scenario, {}, id="arp-client"))
    cases.append(pytest.param(tcp_client_scenario, {}, id="tcp-client"))
    cases.append(pytest.param(lambda: scenarios.ping_experiment(pings=2),
                              dict(channel_faults=True), id="channel-faults"))
    return cases


def assert_forms_match_oracle(system, where: str) -> None:
    expected = ref.component_forms(system)
    for sw_id, switch in system.switches.items():
        assert switch.canonical() == expected["sw", sw_id], (where, sw_id)
    for name, host in system.hosts.items():
        assert host.canonical() == expected["host", name], (where, name)
    assert system.ledger.canonical() == expected["ledger"], where
    assert system.app.canonical_state() == expected["app"], where
    assert system.state_hash() == ref.state_hash(system), where


def assert_memo_is_exact(memo) -> None:
    """Every remembered digest is what rendering its form again yields."""
    held = {**memo._old, **memo._young}
    assert held
    for form, digest in held.items():
        assert digest == digest_bytes(render_canonical(form)), form


@pytest.mark.parametrize("factory", [
    lambda scenario: scenario.system_factory, reference_factory,
], ids=["cow", "eager"])
@pytest.mark.parametrize("builder,overrides", _walks())
def test_random_walk_matches_oracle_and_keeps_the_seal(builder, overrides,
                                                       factory):
    scenario = with_config(builder(), stop_at_first_violation=False,
                           **overrides)
    searcher = scenario.make_searcher()
    system_factory = factory(scenario)
    initial = system_factory()
    strategy = make_strategy(scenario.config, initial.app)
    rng = random.Random(13)
    assert_forms_match_oracle(initial, "initial")
    pool = [initial]
    steps = 0
    while steps < STEPS:
        parent = rng.choice(pool)
        enabled = searcher._enabled(parent, strategy)
        if not enabled:
            pool.remove(parent)
            if not pool:
                pool.append(system_factory())
            continue
        transition = rng.choice(enabled)
        sealed = [(packet, ref.packet_form(packet))
                  for packet in ref.reachable_packets(parent)]
        child = parent.clone()
        child.execute(transition)
        strategy.post_execute(child, transition)
        child.state_hash()
        steps += 1
        where = f"step {steps}: {transition!r}"
        for packet, before in sealed:
            assert ref.packet_form(packet) == before, where
        assert_forms_match_oracle(child, where + " (child)")
        assert_forms_match_oracle(parent, where + " (parent)")
        if len(pool) < POOL:
            pool.append(child)
        else:
            pool[rng.randrange(POOL)] = child
    # One memo per lineage: every system of the walk fed the initial one's.
    assert_memo_is_exact(initial._hash_stats)


# ----------------------------------------------------------------------
# Literal pins
# ----------------------------------------------------------------------

def _exhaust(scenario, monkeypatch):
    """``(stats, blake2b-16 over the concatenated sorted digest set, the
    search's digest memo)``."""
    stores = []
    create = store_mod.create_store

    def capturing(config):
        stores.append(create(config))
        return stores[-1]

    monkeypatch.setattr(store_mod, "create_store", capturing)
    searcher = with_config(scenario,
                           stop_at_first_violation=False).make_searcher()
    stats = searcher.run()
    (store,) = stores
    with tempfile.TemporaryDirectory() as scratch:
        digests = "".join(sorted(stored_digests(store, scratch))).encode()
    return (stats, hashlib.blake2b(digests, digest_size=16).hexdigest(),
            searcher._initial._hash_stats)


# The digest sets, misses and CoW copies are the literals recorded before
# any sub-form was cached.  ``bytes_hashed`` was re-cut when the digest
# memo arrived (it counts bytes *rendered*: 751 714 / 2 362 789 /
# 13 483 973 before).  ``hash_hits`` of the two searches that run concolic
# discovery fell in the same PR by exactly one per expanded state (10 612
# and 67 039 before): ``Searcher._enabled`` asks for the controller digest
# once per node, not twice — the memo itself moved no hit.
@pytest.mark.parametrize("build,states,digest_set,hot_path", [
    pytest.param(lambda: scenarios.ping_experiment(pings=2), 510,
                 "d9d9354f5870deb69c3d249293e592b7",
                 (163506, 3644, 1582, 1576), id="ping-2"),
    pytest.param(scenarios.pyswitch_direct_path, 1284,
                 "6fe619a94bc173b68498e1be7ff30e85",
                 (543500, 10612 - 1284, 4731, 4726),
                 id="pyswitch-direct-path"),
    pytest.param(lambda: scenarios.loadbalancer_scenario(
                     config=NiceConfig(max_pkt_sequence=2)), 5190,
                 "877c4f7ddc8b3c72cd6c71baa166f2b1",
                 (2419382, 67039 - 5190, 25331, 25325), id="loadbalancer-2"),
])
def test_digest_sets_and_counters_are_pinned(build, states, digest_set,
                                             hot_path, monkeypatch):
    stats, measured, memo = _exhaust(build(), monkeypatch)
    assert stats.unique_states == states
    assert measured == digest_set
    assert (stats.bytes_hashed, stats.hash_hits, stats.hash_misses,
            stats.cow_copied) == hot_path
    # The bound: two generations, however many forms the search saw.
    assert len(memo._young) <= canonical.MEMO_GENERATION
    assert len(memo._old) <= canonical.MEMO_GENERATION
    assert_memo_is_exact(memo)
    # Purity: with one-form generations nearly everything is rendered
    # again, and nothing but the rendering count moves.
    monkeypatch.setattr(canonical, "MEMO_GENERATION", 1)
    unmemoized, measured, memo = _exhaust(build(), monkeypatch)
    assert measured == digest_set
    assert (unmemoized.hash_hits, unmemoized.hash_misses,
            unmemoized.cow_copied) == hot_path[1:]
    assert unmemoized.bytes_hashed > 3 * stats.bytes_hashed
    assert len(memo._young) + len(memo._old) <= 2
