"""The reference engine is a real oracle (DESIGN.md, "Per-state hot
path"; :mod:`reference_engine`).

* ``reference_run`` explores exactly the product's state space —
  counters, violation messages and violation digests — on loadbalancer-2
  and energy-te (``tests/test_hotpath.py`` holds the three pyswitch
  scenarios to it, ``tests/test_parallel_search.py`` ping-2,
  ``tests/test_differential.py`` every generated seed);
* walked in lockstep with the product, the way the search drives a system
  (clone, execute, hash; several children per parent), its digests are
  byte-identical after every step;
* it trusts nothing the product caches or shares: it never calls a
  component's ``clone()``, and it *disagrees* with the product as soon as a
  cache reset or the ``process_pkt`` take-out copy is removed — the two
  mutations that ``System.state_hash`` alone cannot see — as soon as a
  handler of one of the three paper apps writes an attribute its
  ``canonical_state()`` renders once as configuration (the
  ``_static_canon`` slot of ``App._assemble_state``), or as soon as any
  one write accessor — of a System's slot, of a component's part — skips
  its reset or its first-write copy (``TestOwnershipMutantsAreCaught``:
  DESIGN.md, "Sub-forms and sealed packets").

The digest memo under ``state_hash`` (``repro.mc.canonical.DigestMemo``)
has no demo here because it has no way to go stale: its key is the
canonical form itself, an immutable value, and its value a pure function
of the key — there is no mutator to forget a reset in.  What it relies on
instead, forms compared by value, is pinned in ``tests/test_hotpath.py``.
"""

from __future__ import annotations

import random

import pytest

import reference_forms
from contract import counters, violation_messages
from reference_engine import ReferenceSystem, reference_factory, reference_run
from repro import nice, scenarios
from repro.apps.energy_te import EnergyTrafficEngineering
from repro.apps.loadbalancer import LoadBalancer
from repro.apps.pyswitch import PySwitch
from repro.config import NiceConfig
from repro.controller.app import App
from repro.hosts.base import Host
from repro.mc.canonical import canonicalize
from repro.mc.strategies import make_strategy
from repro.mc.system import PacketLedger, System
from repro.openflow.channels import Channel
from repro.openflow.flowtable import FlowTable
from repro.openflow.switch import SwitchModel
from repro.scenarios import with_config

STEPS = 200
POOL = 8


def first_disagreement(scenario, steps: int = STEPS):
    """Walk the product and the reference in lockstep; the first step after
    which their digests differ — on the child, or on the parent it was
    cloned from: as the product answers (a digest it may have cached) and
    as its live parts hash from scratch (what a write leaked into them
    shows there first) — or None."""
    rng = random.Random(13)
    roots = (scenario.system_factory, reference_factory(scenario))

    def initial_pair():
        return tuple(root() for root in roots)

    pool = [initial_pair()]
    searcher = scenario.make_searcher()
    strategy = make_strategy(scenario.config, pool[0][0].app)
    for step in range(steps):
        pair = rng.choice(pool)
        product, reference = pair
        assert product.enabled_transitions() == reference.enabled_transitions()
        enabled = searcher._enabled(product, strategy)
        if not enabled:
            pool.remove(pair)
            if not pool:
                pool.append(initial_pair())
            continue
        transition = rng.choice(enabled)
        children = (product.clone(), reference.clone())
        for child in children:
            child.execute(transition)
            strategy.post_execute(child, transition)
        parent_digest = reference.state_hash()
        if (children[0].state_hash() != children[1].state_hash()
                or product.state_hash() != parent_digest
                or reference_forms.state_hash(product) != parent_digest):
            return step, transition
        if len(pool) < POOL:
            pool.append(children)
        else:
            pool[rng.randrange(POOL)] = children
    return None


def faulty_ping():
    return scenarios.ping_experiment(pings=2,
                                     config=NiceConfig(channel_faults=True))


@pytest.mark.parametrize("build,cap", [
    (lambda: scenarios.loadbalancer_scenario(
        config=NiceConfig(max_pkt_sequence=2)), 3000),
    (scenarios.energy_te_scenario, None),
], ids=["loadbalancer-2", "energy-te"])
def test_reference_run_matches_product(build, cap):
    scenario = with_config(build(), max_transitions=cap,
                           stop_at_first_violation=False)
    product = nice.run(scenario)
    reference = reference_run(scenario)
    assert counters(product) == counters(reference)
    assert violation_messages(product) == violation_messages(reference)
    assert ([v.state_hash for v in product.violations]
            == [v.state_hash for v in reference.violations])
    # From scratch means every component of every hash is a miss.
    assert reference.hash_hits == 0 and reference.cow_copied == 0
    assert reference.bytes_hashed > product.bytes_hashed


@pytest.mark.parametrize("build", [
    faulty_ping, scenarios.pyswitch_direct_path, scenarios.energy_te_scenario,
], ids=["channel-faults", "pyswitch-direct-path", "energy-te"])
def test_lockstep_walk_digests_are_byte_identical(build):
    assert first_disagreement(build()) is None


class CountingHub(App):
    """A user app: floods, counts, and overrides neither ``clone`` nor
    ``canonical_state``."""

    name = "counting-hub"

    def __init__(self):
        self.seen = {}

    def packet_in(self, api, sw_id, inport, pkt, bufid, reason):
        self.seen[sw_id] = self.seen.get(sw_id, 0) + 1
        api.flood_packet(sw_id, None, bufid)


def test_a_user_app_keeps_the_generic_copy_and_form():
    scenario = scenarios.ping_experiment(pings=2, app_factory=CountingHub)
    assert first_disagreement(scenario) is None
    app = scenario.system_factory().app
    assert app.canonical_state() == canonicalize(app.state_vars())
    assert app._static_canon is None


def test_reference_clones_through_no_component_clone(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.clone() called")

    scenario = scenarios.ping_experiment(pings=1)
    for component in (SwitchModel, FlowTable, Channel, Host, PacketLedger,
                      type(scenario.app_factory())):
        monkeypatch.setattr(component, "clone", forbidden)
    parent = reference_factory(scenario)()
    before = parent.state_hash()
    child = parent.clone()
    assert type(child) is ReferenceSystem
    child.execute(child.enabled_transitions()[0])
    assert child.state_hash() != before and parent.state_hash() == before
    assert not child._shared and not any(child._digests)


class TestMutantsAreCaught:
    """Break the product the ways a cached, shared hot path can break; the
    reference must notice each."""

    @pytest.mark.parametrize("mutator,build", [
        ("apply_fault", faulty_ping),
        ("enqueue", scenarios.pyswitch_direct_path),
        ("dequeue", scenarios.pyswitch_direct_path),
    ])
    def test_a_channel_form_left_behind(self, monkeypatch, mutator, build):
        """A fault resets the channel's form, ``enqueue`` / ``dequeue``
        extend and shorten it: each of them skipped."""
        mutate = getattr(Channel, mutator)

        def leaving_the_form(self, *args):
            stale = self._canon
            result = mutate(self, *args)
            self._canon = stale
            return result

        monkeypatch.setattr(Channel, mutator, leaving_the_form)
        assert first_disagreement(build()) is not None

    def test_a_missing_take_out_copy(self, monkeypatch):
        def without_the_copy(self):
            emissions = []
            for port in self.ports:
                if len(self.port_in[port]):
                    emissions.extend(self._handle_packet(
                        self._write_port(port).dequeue(), port))
            return emissions

        monkeypatch.setattr(SwitchModel, "process_pkt", without_the_copy)
        assert first_disagreement(scenarios.pyswitch_direct_path()) is not None

    @pytest.mark.parametrize("build,app,configuration", [
        (scenarios.pyswitch_direct_path, PySwitch, "soft_timer"),
        (lambda: scenarios.loadbalancer_scenario(
            config=NiceConfig(max_pkt_sequence=2)), LoadBalancer,
         "client_port"),
        (scenarios.energy_te_scenario, EnergyTrafficEngineering,
         "monitor_port"),
    ], ids=["pyswitch", "loadbalancer", "energy-te"])
    def test_a_handler_writing_what_the_app_form_holds_static(
            self, monkeypatch, build, app, configuration):
        """``_static_canon`` is never reset: an attribute outside the
        app's ``written`` names must not change once the search hashes."""
        packet_in = app.packet_in

        def reconfiguring(self, *args, **kwargs):
            setattr(self, configuration, getattr(self, configuration) + 1)
            return packet_in(self, *args, **kwargs)

        monkeypatch.setattr(app, "packet_in", reconfiguring)
        assert first_disagreement(build()) is not None


# ----------------------------------------------------------------------
# One planted bug per write accessor (DESIGN.md, "Sub-forms and sealed
# packets": the ownership rule)
# ----------------------------------------------------------------------

#: Every write accessor of a part: ``(class, accessor, what it resets or
#: keeps in step, a scenario whose walk writes through it)``.
#: ``SwitchModel._write_port_up`` is reached by no transition
#: (``set_port_state`` has no caller in the model yet) and has its demo
#: below the walks.
PART_ACCESSORS = [
    (SwitchModel, "_write_port", ("_ports_canon",),
     scenarios.pyswitch_direct_path),
    (SwitchModel, "_write_ofp_in", ("_ofp_in_canon",),
     scenarios.pyswitch_direct_path),
    (SwitchModel, "_write_ofp_out", ("_ofp_out_canon",),
     scenarios.pyswitch_direct_path),
    (SwitchModel, "_write_buffers", ("_buffers_canon",),
     scenarios.pyswitch_direct_path),
    (SwitchModel, "_write_port_stats", ("_stats_canon",),
     scenarios.energy_te_scenario),
    (SwitchModel, "_write_table", (), scenarios.pyswitch_direct_path),
    (Host, "_write_inbox", ("_inbox_canon",), scenarios.ping_experiment),
    (Host, "_write_pending", ("_pending_canon",), scenarios.ping_experiment),
    (Host, "_write_received", ("_received_keys", "_received_canon"),
     scenarios.ping_experiment),
    (Host, "_write_script_done", ("_script_done_canon",),
     scenarios.ping_experiment),
    (Host, "_write_send_sig_counts", ("_send_sig_counts_canon",),
     scenarios.ping_experiment),
    (PacketLedger, "_record", ("_keys", "_canon"),
     scenarios.ping_experiment),
]

#: The System's own: ``(accessor, a scenario whose walk goes through it)``.
COMPONENT_ACCESSORS = [
    ("_write_switch", scenarios.pyswitch_direct_path),
    ("_write_host", scenarios.ping_experiment),
    ("_write_app", scenarios.pyswitch_direct_path),
    ("_write_ledger", scenarios.ping_experiment),
    ("_write_meta", scenarios.pyswitch_mobile),
]


def _params(cases):
    """``cases`` as pytest params named ``Class.accessor``."""
    return [pytest.param(*case, id=".".join(
                [case[0].__name__, case[1]] if isinstance(case[0], type)
                else ["System", case[0]]))
            for case in cases]


class TestOwnershipMutantsAreCaught:
    """The ownership rule broken at each depth, one accessor at a time:
    a write that leaves the form it renders in place (stale cache), and a
    write that skips the first-write copy (CoW leak: the state it was
    cloned from changes under it)."""

    @pytest.mark.parametrize(
        "component,accessor,forms,build",
        _params(case for case in PART_ACCESSORS if case[2]))
    def test_a_part_written_without_its_form_reset(
            self, monkeypatch, component, accessor, forms, build):
        write = getattr(component, accessor)

        def without_the_reset(self, *args):
            stale = [getattr(self, form) for form in forms]
            part = write(self, *args)
            for form, value in zip(forms, stale):
                setattr(self, form, value)
            return part

        monkeypatch.setattr(component, accessor, without_the_reset)
        assert first_disagreement(build()) is not None

    @pytest.mark.parametrize("component,accessor,forms,build",
                             _params(PART_ACCESSORS))
    def test_a_part_written_without_its_first_write_copy(
            self, monkeypatch, component, accessor, forms, build):
        write = getattr(component, accessor)

        def without_the_copy(self, *args):
            self._owned = -1        # every bit: "all of it is mine"
            return write(self, *args)

        monkeypatch.setattr(component, accessor, without_the_copy)
        assert first_disagreement(build()) is not None

    @pytest.mark.parametrize("accessor,build",
                             _params(COMPONENT_ACCESSORS))
    def test_a_component_written_without_its_digest_dropped(
            self, monkeypatch, accessor, build):
        write = getattr(System, accessor)

        def without_the_drop(self, *args):
            stale = self._digests[:]
            component = write(self, *args)
            self._digests[:] = stale
            return component

        monkeypatch.setattr(System, accessor, without_the_drop)
        assert first_disagreement(build()) is not None

    @pytest.mark.parametrize(
        "accessor,build",
        _params(case for case in COMPONENT_ACCESSORS
                if case[0] != "_write_meta"))
    def test_a_component_written_without_its_copy(
            self, monkeypatch, accessor, build):
        write = getattr(System, accessor)

        def without_the_copy(self, *args):
            self._shared = 0
            return write(self, *args)

        monkeypatch.setattr(System, accessor, without_the_copy)
        assert first_disagreement(build()) is not None

    @pytest.mark.parametrize("mutant", ["no reset", "no copy"])
    def test_port_up_written_around_the_rule(self, monkeypatch, mutant):
        """The one part no transition writes, held to the from-scratch
        form directly: a copy's ``set_port_state`` must show in the
        copy's form and not in the original's."""
        write = SwitchModel._write_port_up

        def broken(self):
            if mutant == "no copy":
                self._owned = -1
                return write(self)
            stale = self._port_up_canon
            part = write(self)
            self._port_up_canon = stale
            return part

        def leaks_or_goes_stale():
            original = SwitchModel("s1", [1, 2])
            original.canonical()
            before = reference_forms.switch_form(original)
            copy = original.clone()
            copy.set_port_state(2, False)
            return (copy.canonical() != reference_forms.switch_form(copy)
                    or reference_forms.switch_form(original) != before)

        assert not leaks_or_goes_stale()
        monkeypatch.setattr(SwitchModel, "_write_port_up", broken)
        assert leaks_or_goes_stale()
