"""Hostile controller applications for the failure-containment suite.

The paper's engine assumes model code is merely *buggy* — handlers that
install the wrong rule, not handlers that never return.  The containment
layer drops that assumption, and this module supplies the
adversaries it is tested against: a MAC-learning switch that misbehaves
when it sees a *poison* packet (payload tagged ``poison*``).

Misbehavior modes:

* ``raise`` — the handler raises, every time it sees poison.  This is a
  deterministic *model bug*: the engine must contain it as a replayable
  :class:`~repro.mc.search.ModelError` counterexample, identically in the
  serial and parallel engines.
* ``hang`` — a pure-Python infinite loop: the worker process stays alive
  and its channel open, so no death notice ever comes — a *live process
  making no progress*, exactly the failure the task deadline exists to
  catch.
* ``crash`` — ``SIGKILL`` to the worker's own process mid-handler.
* ``oom`` — grow a module-global ballast list until the worker's memory
  watchdog sheds its cache and recycles the process.

``hang``/``crash``/``oom`` would break the *serial* engine too (nothing
contains a hung master), so they fire only when **armed**: an arm-count
file holds how many times the misbehavior may still fire, and each firing
atomically decrements it.  A count of ``-1`` is sticky — fire every time —
which is how the tests drive quarantine to exhaustion.  The serial
baseline simply runs with the count at zero (or ``mode="benign"``) and the
armed parallel run must reproduce its counters bit-for-bit once the
containment machinery has absorbed the induced failures.
"""

from __future__ import annotations

import os
import signal
import tempfile

from repro.apps.pyswitch import PySwitch

#: Payload prefix that triggers misbehavior.
POISON = "poison"

MODE_BENIGN = "benign"
MODE_RAISE = "raise"
MODE_HANG = "hang"
MODE_CRASH = "crash"
MODE_OOM = "oom"
MODES = (MODE_BENIGN, MODE_RAISE, MODE_HANG, MODE_CRASH, MODE_OOM)

#: Set (to "1") in the quarantine sandbox's environment by
#: ``repro.mc.worker.local_worker_main``.  A hostile app with
#: ``spare_quarantine=True`` behaves inside the sandbox, which is how the
#: tests model a *flaky* poison task: one that killed every fleet worker
#: it touched but succeeds on the isolated retry.
QUARANTINE_ENV = "NICE_QUARANTINE"

#: OOM ballast lives at module scope, NOT on the app instance: controller
#: state is canonically hashed (``App.state_vars`` serializes
#: ``vars(app)``), and a hundred megabytes of bytearray on the instance
#: would both break hashing and be cloned on every state checkpoint.
_BALLAST: list = []


def consume_arm(path) -> bool:
    """Consume one shot from an arm-count file; return whether to fire.

    The file holds a decimal count.  ``-1`` is sticky (always fire, never
    decremented); ``0``, a missing file, or ``path=None`` mean disarmed.
    The decrement is atomic (temp file + ``os.replace``) so concurrent
    workers cannot corrupt the count — at worst two workers read the same
    value and the misbehavior overshoots by one, which the containment
    layer must absorb anyway.
    """
    if path is None:
        return False
    try:
        with open(path) as handle:
            count = int(handle.read().strip() or 0)
    except (OSError, ValueError):
        return False
    if count < 0:
        return True
    if count == 0:
        return False
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp = tempfile.mkstemp(dir=directory, prefix=".arm-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(str(count - 1))
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
    return True


class HostileApp(PySwitch):
    """pyswitch that misbehaves on ``poison*`` packets (see module doc)."""

    name = "hostile"

    def __init__(self, mode: str = MODE_BENIGN, arm_file: str | None = None,
                 ballast_mb: int = 64, spare_quarantine: bool = True,
                 **kwargs):
        super().__init__(**kwargs)
        if mode not in MODES:
            raise ValueError(f"unknown hostile mode {mode!r};"
                             f" expected one of {MODES}")
        self.mode = mode
        self.arm_file = arm_file
        self.ballast_mb = ballast_mb
        self.spare_quarantine = spare_quarantine

    def packet_in(self, api, sw_id, inport, pkt, bufid, reason):
        if str(pkt.payload).startswith(POISON):
            self._misbehave()
        super().packet_in(api, sw_id, inport, pkt, bufid, reason)

    def _misbehave(self) -> None:
        mode = self.mode
        if mode == MODE_BENIGN:
            return
        if mode == MODE_RAISE:
            # Deterministic model bug — no arming, no process damage; the
            # engine must turn this into a ModelError counterexample.
            raise RuntimeError("hostile handler refused the poison packet")
        if self.spare_quarantine and os.environ.get(QUARANTINE_ENV):
            return
        if not consume_arm(self.arm_file):
            return
        if mode == MODE_HANG:
            while True:  # pragma: no cover - killed from outside
                pass
        if mode == MODE_CRASH:
            os.kill(os.getpid(), signal.SIGKILL)
        if mode == MODE_OOM:
            _BALLAST.append(bytearray(self.ballast_mb * 1024 * 1024))
