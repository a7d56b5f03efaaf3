"""Base class for controller applications under test.

An application is a set of event handlers (Section 2.2.1) that execute
atomically and keep their state in instance attributes — the equivalent of
``ctrl_state`` in Figure 3.  NICE treats each handler invocation as one
transition and canonically serializes ``vars(app)`` as the controller's
component state.

Handlers receive the :class:`~repro.controller.api.ControllerAPI` explicitly
rather than storing it, so application state stays a pure value (deep-copy
and hashing never see channel references).
"""

from __future__ import annotations

import copy

from repro.mc.canonical import canonicalize


class App:
    """Subclass and override the handlers your application needs."""

    name = "app"

    #: Optional user hook for the FLOW-IR strategy: ``is_same_flow(pkt_a,
    #: loc_a, pkt_b, loc_b)`` returns whether two packets belong to the same
    #: group (Section 4).  ``None`` selects the default microflow grouping.
    is_same_flow = None

    def boot(self, api, topo) -> None:
        """Called once before the search starts, with the static topology."""

    def switch_join(self, api, sw_id: str, stats: dict) -> None:
        """A switch joined the network."""

    def switch_leave(self, api, sw_id: str) -> None:
        """A switch left the network."""

    def packet_in(self, api, sw_id: str, inport: int, pkt, bufid: int,
                  reason: str) -> None:
        """A packet arrived at the controller (table miss or rule action)."""

    def port_stats_in(self, api, sw_id: str, stats: dict, xid: int = 0) -> None:
        """A statistics reply arrived (the paper's ``process_stats``)."""

    def port_status(self, api, sw_id: str, port: int, is_up: bool) -> None:
        """A port changed state."""

    def flow_removed(self, api, sw_id: str, match, priority: int) -> None:
        """A rule expired or was evicted."""

    def barrier_reply(self, api, sw_id: str, xid: int = 0) -> None:
        """A barrier completed."""

    def external_events(self) -> list[str]:
        """External one-shot events the model may fire (e.g. an operator
        reconfiguration).  Each becomes a ``ctrl_event`` transition that
        fires at most once per execution."""
        return []

    def handle_event(self, api, event: str) -> None:
        """Handle one of :meth:`external_events`."""

    def state_vars(self) -> dict:
        """The controller state to serialize; defaults to all attributes
        (less the ``_static_canon`` cache slot, which is no state)."""
        state = dict(vars(self))
        state.pop("_static_canon", None)
        return state

    def clone(self) -> "App":
        """Checkpoint copy of the controller state (``System.clone``).

        The default deep-copies the instance — always safe for arbitrary
        user applications.  The bundled apps override it with hand-rolled
        copies; override it in your app too if cloning shows up in search
        profiles.
        """
        return copy.deepcopy(self)

    def canonical_state(self) -> tuple:
        """The canonical form of :meth:`state_vars` — what the ``"app"``
        component digest is taken over.  The default walks the dict
        generically on every call, always right for arbitrary user
        applications; the bundled apps assemble the same tuple around the
        few attributes their handlers write (:meth:`_assemble_state`)."""
        return canonicalize(self.state_vars())

    #: :meth:`_assemble_state`'s template, built on its first call and
    #: shared by every clone.
    _static_canon = None

    def _assemble_state(self, written: tuple[str, ...]) -> tuple:
        """:meth:`canonical_state` for an app whose handlers, once booted,
        write only the attributes named in ``written``: every other
        attribute is configuration, rendered once — on the first call,
        which the search makes after boot — and the generic forms of the
        written few are set into a copy of that rendering.  An attribute
        a subclass adds and writes must be named too, or its changes go
        unhashed (the oracle walk of ``tests/test_touched_forms.py`` shows
        such a difference on the first step that makes one)."""
        static = self._static_canon
        if static is None:
            form = canonicalize(self.state_vars())
            static = self._static_canon = (
                list(form),
                [(at, item[0]) for at, item in enumerate(form)
                 if at and item[0] in written])
        template, slots = static
        items = template.copy()
        for at, name in slots:
            items[at] = (name, canonicalize(getattr(self, name)))
        return tuple(items)
