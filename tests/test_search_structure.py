"""One of each, by construction: a structure guard over ``src/repro/mc``.

The search has one driver (``Searcher.run``), one per-node body
(``Searcher.expand_node``) and one commit (``Searcher.absorb``); the
serial engine is that loop with an in-process expander, the parallel one
the same loop with the scheduler as its expander.  "Bit-identical to
serial" rests on there being no second copy of any of the three, so a
second copy must fail ``pytest`` rather than wait for the differential
suite to catch the two drifting apart.

The process boundary around that loop has one of each too: one place a
worker process is launched (the quarantine sandbox is a one-worker local
transport, not a second launcher), one channel to a worker however it
was launched — a stream socket read in one function, waited on in one
other, with no thread on the master's side — and one pair of functions
that turn a digest into its stored-or-shipped record and back.

And under the loop, every part of a component has one owner of its
writes: the module whose write accessors copy it before the first write
and reset the form it renders (DESIGN.md, "Sub-forms and sealed
packets") — so a write from anywhere else, which would skip both, fails
here rather than as a digest mismatch three PRs later.
"""

from __future__ import annotations

import ast
import pathlib
import re

import repro

MC = pathlib.Path(repro.__file__).resolve().parent / "mc"


SOURCES = {path.relative_to(MC).with_suffix("").as_posix(): path.read_text()
           for path in sorted(MC.rglob("*.py"))}


def _functions(sources: dict = SOURCES) -> dict:
    """``(module, qualified name) -> FunctionDef`` for every module-level
    function and every method of ``src/repro/mc``."""
    found = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                found[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, ast.FunctionDef):
                        found[module, f"{node.name}.{child.name}"] = child
    return found


FUNCTIONS = _functions()


def _calls(function) -> set[str]:
    """Names called inside ``function`` (its nested functions included,
    they run as part of it): ``f(...)`` as ``f``, ``x.y.f(...)`` as
    ``.f``."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                names.add("." + node.func.attr)
            elif isinstance(node.func, ast.Name):
                names.add(node.func.id)
    return names


def _callers(*wanted: str, outside: str | None = None) -> set[tuple]:
    """The functions calling every name of ``wanted``."""
    return {(module, name) for (module, name), function in FUNCTIONS.items()
            if module != outside and set(wanted) <= _calls(function)}


def test_one_clone_execute_check_hash_body():
    """Besides ``WorkerRuntime.restore``'s rebuild of a sibling it did
    not retain (restoration: never counted, never property-checked), the
    only function that clones a System and executes a transition on the
    clone is ``expand_node`` — and it alone goes on to hash the child."""
    assert _callers(".clone", ".execute") == {
        ("search", "Searcher.expand_node"), ("worker", "WorkerRuntime.restore")}
    assert _callers(".clone", ".execute", ".state_hash") == {
        ("search", "Searcher.expand_node")}


def test_one_driver_owns_the_store_and_the_checkpointer():
    run = {("search", "Searcher.run")}
    assert _callers(".Checkpointer") | _callers("Checkpointer") == run
    assert _callers(".create_store") | _callers("create_store") == run
    assert _callers(".restore_store") | _callers("restore_store") == run


def test_one_commit():
    """Outside the store itself, only ``absorb`` appends to the explored
    set, and only ``_record`` (called by nothing else) builds the
    violation objects."""
    assert _callers(".add_batch", outside="store") == {
        ("search", "Searcher.absorb")}
    assert _callers("Violation") | _callers("ModelError") == {
        ("search", "Searcher._record")}
    assert {caller for caller in _callers("._record")
            if caller[0] in ("search", "scheduler", "worker")} == {
        ("search", "Searcher.absorb")}


def test_the_scheduler_is_an_expander_not_a_second_loop():
    methods = {name.split(".", 1)[1] for module, name in FUNCTIONS
               if module == "scheduler" and name.startswith("_Scheduler.")}
    assert "run" not in methods
    assert {"start", "pending", "pump", "drain", "groups", "stop",
            "push"} <= methods
    tree = ast.parse((MC / "scheduler.py").read_text())
    # No statistics and no store of its own: both are the searcher's.
    assert "SearchStats" not in {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not any("store" in alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names)
    parallel, = (node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "ParallelSearcher")
    assert [child.name for child in parallel.body
            if isinstance(child, ast.FunctionDef)] == ["_expander"]
    assert parallel.end_lineno - parallel.lineno + 1 <= 20


#: What ``_Scheduler`` kept by worker or task id before its two tables.
RETIRED_SCHEDULER_FIELDS = {
    "_live", "_dead", "_load", "_batch", "_rtt", "_last_beat", "_queues",
    "_in_flight", "_submit_times", "_deadlines", "_pending_respawns",
    "_respawn_deadline"}


def test_the_scheduler_keeps_two_tables_with_one_writer_per_edge():
    """Everything the scheduler knows by id is a row of ``_workers`` or
    ``_tasks`` (``mc/scheduler.py``, "Two records"): no parallel
    container comes back, a worker's row is made where it is enrolled or
    found dead and its liveness cleared where it is retired, and a task
    gets its row where it is dispatched."""
    scheduler = "scheduler"
    assigned = {
        node.attr for node in ast.walk(
            FUNCTIONS[scheduler, "_Scheduler.__init__"])
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert {"_workers", "_tasks"} <= assigned
    assert not assigned & RETIRED_SCHEDULER_FIELDS
    retired = re.compile(
        rf"\b({'|'.join(sorted(RETIRED_SCHEDULER_FIELDS))})\b")
    for path in sorted(MC.parent.rglob("*.py")):
        assert not retired.search(path.read_text()), path
    assert _assigners("alive") == {(scheduler, "_Scheduler._retire")}
    assert _callers("_Worker") == {(scheduler, "_Scheduler._enroll"),
                                   (scheduler, "_Scheduler._retire")}
    assert _callers("_Task") == {(scheduler, "_Scheduler._dispatch")}
    inserters = {
        key for key, function in FUNCTIONS.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "attr", None) == "_tasks"}
    assert inserters == {(scheduler, "_Scheduler._dispatch")}


# ----------------------------------------------------------------------
# One of each at the process boundary
# ----------------------------------------------------------------------

def _assigners(name: str) -> set[tuple]:
    """The functions assigning to ``name`` or to ``<anything>.name``."""
    def targets(function):
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    yield getattr(target, "attr", getattr(target, "id", None))
    return {key for key, function in FUNCTIONS.items()
            if name in targets(function)}


def test_one_launch_path():
    """A child process is started — and handed the live searcher through
    the fork-inheritance seam — in one function; everything that wants a
    sandboxed or replacement worker asks the local transport for one."""
    launch = {("transport/local", "LocalTransport._launch")}
    assert _callers(".Process") | _callers("Process") == launch
    assert _assigners("_INHERITED_SEARCHER") == launch
    assert not [name for _, name in FUNCTIONS if "quarantine_worker" in name]


#: A call that blocks on descriptors, as written at the call site.
WAITS = re.compile(r"(select|selectors)\.\w+|(\w+\.)?connection\.wait"
                   r"|select|wait")


def _one_channel_breaches(sources: dict = SOURCES) -> set[str]:
    """Everything in ``sources`` (``src/repro/mc``, by module) that opens
    a second way to a worker."""
    functions = _functions(sources)
    master = {module for module in sources if module.startswith("transport/")}
    breaches = set()
    for module in master:
        for node in ast.walk(ast.parse(sources[module])):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                names.append(getattr(node, "module", None) or "")
                breaches |= {f"{module} imports {name}" for name in names
                             if name.split(".")[0] in ("threading", "queue")}
    for (module, name), function in functions.items():
        calls = _calls(function)
        where = f"{module}:{name}"
        if module in master:
            # One place waits: multiprocessing's ``connection.wait``.
            waits = {ast.unparse(node.func) for node in ast.walk(function)
                     if isinstance(node, ast.Call)
                     and WAITS.fullmatch(ast.unparse(node.func))}
            if waits and where != "transport/stream:StreamTransport._poll":
                breaches.add(f"{where} waits on descriptors")
            for call in calls & {"Thread", ".Thread", ".Pipe", "Pipe",
                                 ".SimpleQueue", ".Queue", "Queue"}:
                breaches.add(f"{where} calls {call}")
        # A socket's bytes are read and written in ``mc/wire.py`` alone.
        if module in master | {"worker"}:
            for call in calls & {".recv", ".recv_into", ".send", ".sendall"}:
                breaches.add(f"{where} calls {call}")
        if module == "wire" and calls & {".recv", ".sendall"} and name \
                not in ("send_msg", "_recv_exact"):
            breaches.add(f"{where} is a second framing function")
    return breaches


def test_one_channel():
    """No master-side thread, queue or pipe; one function that waits
    (``StreamTransport._poll``), one that reads a socket
    (``wire._recv_exact``), one that writes one (``wire.send_msg``); and
    the only thread ``src/repro`` starts is the worker's heartbeat."""
    assert _one_channel_breaches() == set()
    assert _callers("._poll") == {("transport/stream", "StreamTransport.recv"),
                                  ("transport/socket", "SocketTransport.start")}
    starts = [(path.name, line.strip())
              for path in sorted(MC.parent.rglob("*.py"))
              for line in path.read_text().splitlines()
              if re.search(r"\bThread\(", line)]
    assert starts == [("worker.py", "self._thread = threading.Thread(")]


def test_a_reader_thread_planted_back_is_caught():
    """The guard's own mutation demo: the parent design's reader thread,
    put back into ``SocketTransport``."""
    planted = dict(SOURCES)
    planted["transport/socket"] += '''
import threading

def _reader(worker_id, connection, results):
    while True:
        results.put(recv_msg(connection))

def _admit(connection):
    threading.Thread(target=_reader, args=(0, connection, None)).start()
    connection.recv(4)
'''
    assert _one_channel_breaches(planted) == {
        "transport/socket imports threading",
        "transport/socket:_admit calls .Thread",
        "transport/socket:_admit calls .recv"}
    assert "transport/local:LocalTransport._put_away waits on descriptors" \
        in _one_channel_breaches({**SOURCES, "transport/local": SOURCES[
            "transport/local"].replace("process.join(", "connection.wait(")})


def test_one_record_codec():
    """Workers and the scheduler move digests as packed records without
    knowing how one is packed — ``mc/store.py``'s pair does both ways —
    and a result is built in its final layout, not rewritten into it."""
    for module in ("worker", "scheduler"):
        attributes = {node.attr for node in ast.walk(
                          ast.parse((MC / f"{module}.py").read_text()))
                      if isinstance(node, ast.Attribute)}
        assert not attributes & {"fromhex", "hex"}, module
    assert not {"_compact_digests", "_inflate_digests"} & {
        name.rpartition(".")[2] for _, name in FUNCTIONS}


# ----------------------------------------------------------------------
# One writer per part
# ----------------------------------------------------------------------

SRC = MC.parent

ALL_SOURCES = {path.relative_to(SRC).with_suffix("").as_posix():
               path.read_text() for path in sorted(SRC.rglob("*.py"))}

#: The parts, by the only place allowed to write them: a module, or one
#: class of a module and the methods of it named.
PART_WRITERS = {
    ("openflow/switch", None): {
        "port_in", "ofp_in", "ofp_out", "buffers", "port_stats", "port_up"},
    ("hosts/base", None): {
        "inbox", "pending", "received", "script_done", "send_sig_counts"},
    ("mc/system", ("PacketLedger.__init__", "PacketLedger._record")): {
        "injected", "delivered", "lost", "faults", "log", "history"},
}

#: Same attribute name, another object: the expander's ``pending()``.
NOT_A_PART = {"mc/search:_InlineExpander.__init__ writes .pending"}

MUTATORS = {
    "enqueue", "dequeue", "extend", "clear", "apply_fault", "append",
    "pop", "popitem", "add", "remove", "discard", "insert", "update",
    "setdefault", "sort", "reverse", "__setitem__", "__delitem__"}


def _written_part(node):
    """The part name ``node`` writes, if it writes one: a mutator called
    on ``x.part`` / ``x.part[k]``, a store or ``del`` of ``x.part[k]``,
    or ``x.part`` rebound."""
    def part_of(target):
        if isinstance(target, ast.Subscript):
            target = target.value
        return target.attr if isinstance(target, ast.Attribute) else None

    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        return part_of(node.func.value)
    if isinstance(node, (ast.Subscript, ast.Attribute)) \
            and isinstance(node.ctx, (ast.Store, ast.Del)):
        return part_of(node.value) if isinstance(node, ast.Subscript) \
            else node.attr
    return None


def _part_write_breaches(sources: dict = ALL_SOURCES) -> set[str]:
    breaches = set()
    for (module, name), function in _functions(sources).items():
        for node in ast.walk(function):
            part = _written_part(node)
            for (owner, methods), parts in PART_WRITERS.items():
                if part in parts and not (
                        module == owner
                        and (methods is None or name in methods)):
                    breaches.add(f"{module}:{name} writes .{part}")
    return breaches - NOT_A_PART


def test_one_writer_per_part():
    """Outside ``openflow/switch.py`` nothing writes a switch's channels
    or dicts, outside ``hosts/base.py`` nothing writes a host's five
    containers, and the ledger's records are appended to by
    ``PacketLedger._record`` alone."""
    assert _part_write_breaches() == set()


def test_a_write_around_the_accessors_planted_back_is_caught():
    """The guard's own mutation demo: the parent design's direct writes,
    put back where they were."""
    planted = dict(ALL_SOURCES)
    planted["controller/runtime"] += '''
def handle_message(api, switch):
    return switch.ofp_out.dequeue()
'''
    planted["mc/system"] += '''
def route(system, endpoint, packet, host, signature):
    system.switches[endpoint.node].port_in[endpoint.port].enqueue(packet)
    system.switches[endpoint.node].buffers[7] = (packet, 1)
    host.send_sig_counts[signature] = 1
    host.inbox = []
    system.ledger.delivered.append((packet.uid, (), host.name))
'''
    assert _part_write_breaches(planted) == {
        "controller/runtime:handle_message writes .ofp_out",
        "mc/system:route writes .port_in",
        "mc/system:route writes .buffers",
        "mc/system:route writes .send_sig_counts",
        "mc/system:route writes .inbox",
        "mc/system:route writes .delivered"}
