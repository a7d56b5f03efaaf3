"""Explored-set state store + master checkpointing (DESIGN.md, "State
store and restartability").

Two concerns the search engines delegate here:

* **Membership storage** for the explored state set.  A digest is kept
  as its packed record (``bytes.fromhex``: 16 B for the engines'
  32-character hashes), never as the string itself, and every store
  finds a record through the one :class:`DigestTable`: a flat
  open-addressing table of entry numbers in an ``array``, keyed by the
  record's first six bytes, the full record compared on a key match.
  :class:`MemoryStore` (the default) keeps its records in one
  insertion-ordered ``bytearray`` — byte for byte the record file it
  snapshots — so an explored state costs its 16 B record plus 8-16 B of
  table, about 25 B in all, behind a fixed-size dict of the digests
  seen last.  :class:`ShardedStore` appends its records to per-shard
  files instead and keeps an LRU-bounded *resident* dict of digests; a
  digest that spills out of it enters the table, its prefix and slot in
  two more flat arrays (20-28 B per spilled digest, kept for good) —
  the explored set of a NICE-style exhaustive search then scales past
  one process's RAM while the hot working set stays dictionary-fast.
  Both expose one API: ``add(digest) -> bool`` (False = already
  present), ``add_batch``, ``in``, ``len``; both refuse a digest of a
  second width or encoding on arrival.

  The table is exact — a prefix it does not hold is a definitive,
  I/O-free "new" — so no approximate filter sits in front of the
  sharded store's disk probe (DESIGN.md says what one cost and what it
  answered).  Appends land in a per-shard tail buffer flushed in 64 KiB
  runs instead of one ``write()`` per state.

* **Checkpointing** the master's irreplaceable state.  A checkpoint
  directory is a *lineage*: one append-only record log per shard,
  ``states-SSSS-GGGG.bin`` (shard, generation), and snapshots
  ``ckpt-NNNNNNNN/``, each a pickled ``meta`` blob (scenario spec,
  config, stats counters, frontier sibling groups, RNG state) and a
  ``MANIFEST.json`` naming a byte prefix of each log with its blake2b.
  A store only says how many record bytes each shard holds and copies
  a byte range of one (the memory store's log is shard 0); its records
  are append-only, so a snapshot appends what was added since the one
  it continues — O(new states) — and never touches that one's prefix.
  Snapshots are **atomic**: the logs are appended and fsynced, then
  ``meta`` and the manifest go into a temp directory renamed into
  place; a crash mid-write leaves a temp directory resume ignores and a
  log tail the next append cuts off.  :func:`load_latest_checkpoint`
  returns the newest snapshot that *validates* (every prefix and file
  present, sizes and checksums match), so a torn one falls back to the
  previous.  Nothing in a snapshot names a path: a lineage can move.
  The frontier is stored as transport-agnostic ``(parent trace,
  [transition, ...] | None)`` sibling groups — the wire format of
  :class:`~repro.mc.wire.ExpandTask` — so a search checkpointed
  serially can resume on any transport and vice versa.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import re
import shutil
import signal
import struct
import tempfile
import time
import warnings
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.config import STORE_MEMORY, STORE_SHARDED

#: Bump when the checkpoint layout changes.  Format 3 names a prefix of
#: one record log per shard at the lineage root.  The loader also reads
#: format 2, whose snapshots held their own record files: each is read as
#: its own whole prefix.  Both pack hex digests to raw bytes.
CHECKPOINT_FORMAT = 3

#: Complete checkpoints kept per directory.  Two, not one: torn-write
#: recovery needs the previous snapshot to still exist when the newest
#: turns out to be corrupt.
CHECKPOINT_KEEP = 2

#: The one record encoding, as manifests name it: a digest is lowercase
#: hex in memory and ``bytes.fromhex(digest)`` wherever it is stored or
#: shipped (record width = len(digest) / 2).
RECORD_HEX = "hex"

#: A shard's tail buffer is appended to its record file once it reaches
#: this many bytes (and always at flush/snapshot time).
_FLUSH_BYTES = 1 << 16

#: Cells of an empty :class:`DigestTable` (a power of two).
_FIRST_CELLS = 8

#: Digests per generation of the memory store's recent set.
_RECENT = 1024

#: Pre-bound for the insert/lookup hot paths — skips the global + attr
#: lookup per call.
_from_bytes = int.from_bytes
_fromhex = bytes.fromhex

#: A record's key: its first six bytes, little-endian.
_KEY_MASK = (1 << 48) - 1

_CKPT_PREFIX = "ckpt-"
_TMP_PREFIX = "tmp-ckpt-"
_MANIFEST = "MANIFEST.json"
_META = "meta.pkl"


class CheckpointError(RuntimeError):
    """No usable checkpoint could be written or loaded."""


#: ``digest`` as its packed record (ValueError for anything but hex).
pack_digest = bytes.fromhex


def unpack_digests(blob: bytes, count: int) -> list:
    """The ``count`` digests whose fixed-width records ``blob``
    concatenates, in order — :data:`pack_digest`'s inverse, for the
    checkpoint reader and the scheduler alike.  An empty blob is
    ``count`` Nones: without state matching nothing is hashed."""
    if not blob:
        return [None] * count
    hexed = blob.hex()
    width, odd = divmod(len(hexed), count) if count else (0, True)
    if odd:
        raise ValueError(
            f"{len(blob)} record bytes do not hold {count} digests of one "
            f"width")
    return [hexed[start:start + width]
            for start in range(0, len(hexed), width)]


def _packed(digest: str, width: int) -> bytes:
    """``digest`` as a ``width``-byte record; anything else — another
    width, not hex — is a second digest scheme."""
    if width and len(digest) == 2 * width:
        try:
            return bytes.fromhex(digest)
        except ValueError:
            pass
    raise ValueError(
        f"digest width changed mid-run: {digest!r} does not pack to "
        f"{width} hex bytes (two digest schemes in one store?)")


# ----------------------------------------------------------------------
# State stores
# ----------------------------------------------------------------------

class StateStore:
    """Explored-set membership storage; see module docstring."""

    #: Engine-facing name ("memory" / "sharded"), surfaced in SearchStats.
    kind = "store"

    #: Bytes per record and hex characters per digest, both set by the
    #: first digest.  ``_hexlen`` is -1 until then: ``len(digest)`` can
    #: never be negative, so the packing fast path's single comparison
    #: stays false before the width is known.
    _width = 0
    _hexlen = -1

    def add(self, digest: str) -> bool:
        """Record ``digest``; False means it was already present."""
        raise NotImplementedError

    def add_batch(self, digests) -> list[bool]:
        """Record a batch of digests; one bool per digest, in order
        (False = already present).

        Deliberately routed through ``self.add`` for every store: the
        crash-recovery harness plants kill points by monkeypatching
        ``add`` on the store *instance*, and batching must not tunnel
        past that seam.  Stores that buffer writes (ShardedStore)
        amortise the I/O inside ``add`` itself.
        """
        add = self.add
        return [add(digest) for digest in digests]

    def __contains__(self, digest: str) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def counters(self) -> dict:
        """Spill/hit counters: ``hits`` (lookups answered from memory),
        ``spill_reads`` (lookups that had to read shard records) and
        ``evictions`` (digests spilled out of the resident set)."""
        return {"hits": 0, "spill_reads": 0, "evictions": 0}

    def preload(self, digests) -> None:
        """Bulk-load digests (checkpoint resume) without counter noise."""
        for digest in digests:
            self.add(digest)
        self.reset_counters()

    def reset_counters(self) -> None:
        pass

    def record_bytes(self) -> list[int]:
        """How many record bytes each shard holds — every record added so
        far, buffered ones included.  A store's shards are append-only
        logs of fixed-width records in insertion order: the checkpoint
        writer snapshots byte ranges of them and knows nothing else."""
        raise NotImplementedError

    def copy_records(self, shard: int, start: int, end: int, dest) -> None:
        """Write bytes ``start:end`` of ``shard``'s records to the binary
        file ``dest``."""
        raise NotImplementedError

    def record_width(self) -> int:
        """Bytes per record (0 while empty)."""
        return self._width

    def close(self) -> None:
        pass

    def _pack(self, digest: str) -> bytes:
        """``digest`` as this store's packed record — the first one sets
        the width; raises the mixed-width ValueError on any mismatch,
        from lookups as well as inserts (a silent False here would let
        one run mix digest schemes and corrupt dedup).  Records
        canonicalize to lowercase (``bytes.fromhex`` is case-blind)."""
        if len(digest) == self._hexlen:
            try:
                return _fromhex(digest)
            except ValueError:
                pass
        width = self._width or len(digest) // 2
        record = _packed(digest, width)
        if not self._width:
            self._width, self._hexlen = width, len(digest)
        return record


class DigestTable:
    """The explored set's one index: an open-addressing table of entry
    numbers in one flat ``array('I')``.

    Entry ``n`` is the ``n``-th record its store entered, wherever the
    store keeps it.  A cell holds ``n + 1`` (0 is empty).  A record's
    *key* is its first six bytes, little-endian; its probe starts at the
    cell ``key & mask`` and walks forward to the first empty cell,
    comparing on the way (the store compares: this class only places).
    Nothing is ever removed, so the entries of one key lie along their
    probe in insertion order, regrowth included — it re-places entries
    in entry order.  At most half the cells are used: a lookup reads
    ~1.5 cells, and a cell costs 8-16 bytes per entry.
    """

    __slots__ = ("cells", "mask", "entries")

    def __init__(self):
        self.cells = array("I", bytes(4 * _FIRST_CELLS))
        self.mask = _FIRST_CELLS - 1
        self.entries = 0

    def claim(self, cell: int) -> bool:
        """Enter the next entry at ``cell``, the empty cell where its
        probe ended.  True when that leaves the table half full: the
        caller then calls :meth:`grow`."""
        entries = self.cells[cell] = self.entries = self.entries + 1
        return 2 * entries > self.mask

    def place(self, key: int) -> bool:
        """Enter the next entry, keyed ``key``, at the first empty cell
        of its probe — after every entry of that key, so they stay in
        entry order; :meth:`claim`'s result."""
        cells, mask = self.cells, self.mask
        cell = key & mask
        while cells[cell]:
            cell = (cell + 1) & mask
        return self.claim(cell)

    def grow(self, keys) -> None:
        """Double the table, re-placing every entry from ``keys``, each
        entry's key in entry order."""
        size = 2 * len(self.cells)
        mask = size - 1
        cells = array("I", bytes(4 * size))
        for entry, key in enumerate(keys, 1):
            cell = key & mask
            while cells[cell]:
                cell = (cell + 1) & mask
            cells[cell] = entry
        self.cells, self.mask = cells, mask


class MemoryStore(StateStore):
    """The default explored set: an insertion-ordered log of records in
    one ``bytearray`` under a :class:`DigestTable`.

    Insertion order is the order a snapshot writes and resume
    replays, so a resumed serial DFS walks the identical frontier order.
    In front of the table sit the digests added or found over the last
    one to two ``_RECENT`` adds, as two dict generations: most revisits
    are of a state seen that recently (87 % of ``lb3``'s), and a dict
    answers them without packing or probing.
    """

    kind = STORE_MEMORY

    def __init__(self):
        self._log = bytearray()
        self._table = DigestTable()
        self._recent: dict[str, None] = {}
        self._older: dict[str, None] = {}
        self._hits = 0

    def _keys(self):
        """Every record's key, in log order."""
        if self._width >= 8:  # unpacked in C: most of a regrowth's cost
            skip = self._width - 8
            return (key & _KEY_MASK for key, in struct.iter_unpack(
                f"<Q{skip}x", self._log))
        log, width = self._log, self._width
        return (_from_bytes(log[start:start + 6], "little")
                for start in range(0, len(log), width))

    def _cell(self, record: bytes) -> int:
        """-1 if the log holds ``record``, else the empty cell that ends
        its probe."""
        table = self._table
        cells, mask = table.cells, table.mask
        cell = _from_bytes(record[:6], "little") & mask
        entry = cells[cell]
        log, width = self._log, self._width
        while entry:
            if log.startswith(record, (entry - 1) * width):
                return -1
            cell = (cell + 1) & mask
            entry = cells[cell]
        return cell

    def add(self, digest: str) -> bool:
        recent = self._recent
        if digest in recent or digest in self._older:
            self._hits += 1
            return False
        # _pack's fast path, inlined: this is *the* hot loop of an
        # exhaustive search.
        if len(digest) == self._hexlen:
            try:
                record = _fromhex(digest)
            except ValueError:
                record = self._pack(digest)
        else:
            record = self._pack(digest)
        cell = self._cell(record)
        recent[digest] = None
        if len(recent) >= _RECENT:
            self._older, self._recent = recent, {}
        if cell < 0:
            self._hits += 1
            return False
        self._log += record
        if self._table.claim(cell):
            self._table.grow(self._keys())
        return True

    def __contains__(self, digest: str) -> bool:
        if digest in self._recent or digest in self._older or (
                self._width and self._cell(self._pack(digest)) < 0):
            self._hits += 1
            return True
        return False

    def __len__(self) -> int:
        return self._table.entries

    def counters(self) -> dict:
        return {"hits": self._hits, "spill_reads": 0, "evictions": 0}

    def reset_counters(self) -> None:
        self._hits = 0

    def record_bytes(self) -> list[int]:
        return [len(self._log)]

    def copy_records(self, shard: int, start: int, end: int, dest) -> None:
        # The log is shard 0.  The view is released before the next add:
        # a bytearray with a live view cannot grow (BufferError).
        with memoryview(self._log)[start:end] as records:
            dest.write(records)


class ShardedStore(StateStore):
    """Digest-prefix shards, append-only record files, LRU resident set.

    Layout per shard ``i``: an append-only file of fixed-width packed
    records (record ``n`` lives at byte ``n * width``) behind an
    in-memory tail buffer.  Every digest is in the LRU *resident* dict,
    in one :class:`DigestTable` over all shards, or in both: a digest
    enters the table when it first spills out of the resident set, and
    stays.  A table entry's prefix and in-shard slot live in two flat
    arrays beside the table, 12 bytes per spilled digest plus the
    table's 8-16 (the prefix names the shard: ``prefix % shards``).

    Membership: the resident dict answers hot lookups from memory; a
    prefix absent from the (exact) table is a definitive memory-only
    miss; otherwise each spilled record of that prefix is compared
    against the tail buffer or the shard file, one spill read per
    candidate.  Inserts append one record to the tail buffer (flushed to
    the file in 64 KiB runs) and enter the resident set with their slot;
    when it exceeds ``memory_budget`` digests the least recently touched
    spills.  The budget bounds the resident set; the table grows with
    what has spilled — nothing while a search fits its budget.
    """

    kind = STORE_SHARDED

    def __init__(self, shards: int = 16, memory_budget: int = 1_000_000,
                 directory: str | None = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if memory_budget < 1:
            raise ValueError("memory_budget must be >= 1")
        self.shards = shards
        self.memory_budget = memory_budget
        self._owns_dir = directory is None
        self.directory = Path(directory or tempfile.mkdtemp(
            prefix="nice-store-"))
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files = [
            open(self.directory / f"shard-{i:04d}.bin", "w+b")
            for i in range(shards)
        ]
        #: Per table entry, in spill order: its record's 48-bit prefix
        #: and its slot in shard ``prefix % shards``.
        self._prefixes = array("Q")
        self._slots = array("I")
        self._table = DigestTable()
        #: Records held by each shard.
        self._records = [0] * shards
        self._count = 0
        #: Bytes flushed to each shard file (always a record multiple).
        self._flushed = [0] * shards
        #: Records appended but not yet written to the shard file.
        self._tails = [bytearray() for _ in range(shards)]
        #: LRU resident set, coldest first.  Not a plain dict: popping
        #: its front leaves deleted slots the next pop walks, O(resident).
        #: A digest maps to its slot until it first spills, then to None
        #: (the table has it).
        self._resident: OrderedDict[str, int | None] = OrderedDict()
        self._hits = 0
        self._spill_reads = 0
        self._evictions = 0

    def _holds(self, shard: int, slot: int, record: bytes) -> bool:
        """Whether ``slot`` of ``shard`` holds ``record`` — read from the
        tail buffer when the slot hasn't been flushed yet, else from
        disk."""
        width = self._width
        offset = slot * width
        flushed = self._flushed[shard]
        self._spill_reads += 1
        if offset >= flushed:
            start = offset - flushed
            return self._tails[shard].startswith(record, start)
        handle = self._files[shard]
        handle.seek(offset)
        return handle.read(width) == record

    def _spilled(self, record: bytes, prefix: int) -> bool:
        """Whether ``record`` (whose key is ``prefix``) has spilled: each
        table entry of that key is a candidate slot, read until one
        holds it."""
        table = self._table
        cells, mask = table.cells, table.mask
        cell = prefix & mask
        entry = cells[cell]
        if entry:
            prefixes, slots = self._prefixes, self._slots
            shard = prefix % self.shards
            while entry:
                entry -= 1
                if prefixes[entry] == prefix and \
                        self._holds(shard, slots[entry], record):
                    return True
                cell = (cell + 1) & mask
                entry = cells[cell]
        return False

    def _spill(self) -> None:
        """Evict the least recently touched resident digest, entering it
        in the table if this is its first spill."""
        digest, slot = self._resident.popitem(last=False)
        self._evictions += 1
        if slot is None:
            return
        prefix = _from_bytes(_fromhex(digest)[:6], "little")
        self._prefixes.append(prefix)
        self._slots.append(slot)
        if self._table.place(prefix):
            self._table.grow(self._prefixes)

    def _touch(self, digest: str) -> None:
        """Enter a spilled ``digest`` into the resident LRU again,
        spilling the coldest."""
        resident = self._resident
        resident[digest] = None
        while len(resident) > self.memory_budget:
            self._spill()

    def __contains__(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            resident.move_to_end(digest)
            return True
        if not self._count:
            return False
        record = self._pack(digest)
        if self._table.entries and \
                self._spilled(record, _from_bytes(record[:6], "little")):
            self._touch(digest)
            return True
        return False

    def add(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            resident.move_to_end(digest)
            return False
        # _pack's fast path, inlined: this is *the* hot loop of an
        # exhaustive search.
        if len(digest) == self._hexlen:
            try:
                record = _fromhex(digest)
            except ValueError:
                record = self._pack(digest)
        else:
            record = self._pack(digest)
        prefix = _from_bytes(record[:6], "little")
        if self._table.entries and self._spilled(record, prefix):
            self._touch(digest)
            return False
        shard = prefix % self.shards
        records = self._records
        resident[digest] = records[shard]
        records[shard] += 1
        self._count += 1
        tail = self._tails[shard]
        tail += record
        if len(resident) > self.memory_budget:
            self._spill()
        if len(tail) >= _FLUSH_BYTES:
            self._flush_shard(shard)
        return True

    def __len__(self) -> int:
        return self._count

    def _flush_shard(self, shard: int) -> None:
        tail = self._tails[shard]
        if not tail:
            return
        handle = self._files[shard]
        handle.seek(0, io.SEEK_END)
        handle.write(tail)
        self._flushed[shard] += len(tail)
        self._tails[shard] = bytearray()

    def flush(self) -> None:
        """Append every shard's tail buffer to its record file."""
        for shard in range(self.shards):
            if self._tails[shard]:
                self._flush_shard(shard)

    def counters(self) -> dict:
        return {"hits": self._hits, "spill_reads": self._spill_reads,
                "evictions": self._evictions}

    def reset_counters(self) -> None:
        self._hits = self._spill_reads = self._evictions = 0

    def record_bytes(self) -> list[int]:
        self.flush()
        return list(self._flushed)

    def copy_records(self, shard: int, start: int, end: int, dest) -> None:
        handle = self._files[shard]
        handle.seek(start)
        remaining = end - start
        while remaining:
            data = handle.read(min(1 << 20, remaining))
            if not data:
                raise CheckpointError(
                    f"shard {shard} truncated during snapshot")
            dest.write(data)
            remaining -= len(data)

    def close(self) -> None:
        try:
            self.flush()
        except (OSError, ValueError):
            pass
        for handle in self._files:
            try:
                handle.close()
            except OSError:
                pass
        if self._owns_dir:
            shutil.rmtree(self.directory, ignore_errors=True)


def create_store(config) -> StateStore:
    """The explored-set store ``config`` asks for.

    The crash-recovery harness monkeypatches this hook to plant seeded
    interruption points, so the engines must resolve it through the
    module (``store_mod.create_store``) at run time, not import time.
    """
    if config.store == STORE_SHARDED:
        return ShardedStore(config.store_shards, config.store_memory_budget)
    return MemoryStore()


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

#: SearchStats fields that describe *this* run, not accumulated results —
#: never restored from a checkpoint.
_NON_RESUMABLE = ("wall_time", "engine", "workers", "terminated")


@dataclass
class Checkpoint:
    """One loaded (validated) checkpoint."""

    path: Path
    spec: object            # ScenarioSpec | None (hand-built scenarios)
    config: object          # the NiceConfig the run was using
    stats: dict             # SearchStats.__dict__ snapshot
    frontier: list          # [(parent trace, [transition, ...] | None)]
    rng_state: object       # random.Random state of the frontier RNG
    states: int             # digest count across the record files
    record_width: int
    record_files: list[Path]
    file_info: dict
    hashes: dict            # file name -> blake2b of its prefix, validated
    format: int
    bytes_written: int
    seconds: float

    def iter_digests(self):
        width = self.record_width
        if not width:
            return  # a checkpoint of an empty store holds no records
        # Chunked, record-aligned reads: resume must not buffer a whole
        # record file — for the explored sets the sharded store exists
        # for, that file can approach the RAM the store is avoiding.
        chunk_size = max(1, (1 << 20) // width) * width
        for path in self.record_files:
            left = self.file_info[path.name]["bytes"]
            with open(path, "rb") as handle:
                while left:
                    data = handle.read(min(chunk_size, left))
                    if not data:
                        raise CheckpointError(f"{path.name} is torn")
                    left -= len(data)
                    yield from unpack_digests(data, len(data) // width)

    def restore_stats(self, stats) -> None:
        """Seed a fresh SearchStats with the checkpointed counters.  The
        snapshot's meta was pickled before the bytes and seconds of the
        snapshot itself were counted, so they are added here from its
        manifest (``checkpoints_written`` was counted before the write
        and needs nothing).  A manifest written before it recorded
        ``seconds`` contributes 0 of them."""
        for key, value in self.stats.items():
            if key in _NON_RESUMABLE or not hasattr(stats, key):
                continue
            setattr(stats, key, value)
        stats.checkpoint_bytes_written += self.bytes_written
        stats.checkpoint_seconds += self.seconds
        stats.resumed_from = str(self.path)


def _log_name(shard: int, generation: int) -> str:
    """The file name of ``shard``'s record log of ``generation``."""
    return f"states-{shard:04d}-{generation:04d}.bin"


def _parse_log_name(name: str):
    """``states-SSSS-GGGG.bin`` -> ``(shard, generation)``, or None.  A
    format-2 snapshot's record files share the format (the second number
    was a segment's); its memory store's ``states-0000.bin`` is shard 0."""
    match = re.fullmatch(r"states-(\d+)(?:-(\d+))?\.bin", name)
    return (int(match[1]), int(match[2] or 0)) if match else None


@dataclass
class Lineage:
    """Where the next snapshot appends: the resolved lineage ``root``
    (None before the first snapshot), the ``generation`` of its logs and
    per shard ``[bytes, blake2b]`` of the prefix the last committed
    snapshot named.  :func:`write_checkpoint` starts a new generation
    when it would append into another directory, and advances the
    prefixes to each snapshot it commits."""

    root: Path | None = None
    generation: int = 0
    prefixes: dict = field(default_factory=dict)


def restore_store(store: StateStore, checkpoint: Checkpoint) -> Lineage:
    """Rebuild ``store`` from ``checkpoint``: preload every digest, then
    adopt the logs of a format-3 checkpoint iff they hold, shard by
    shard, exactly the bytes the preloaded store does (same shard
    assignment and order, so the same records).  Otherwise the next
    snapshot starts a new generation and writes every record."""
    store.preload(checkpoint.iter_digests())
    held = {shard: size
            for shard, size in enumerate(store.record_bytes()) if size}
    logs = {_parse_log_name(path.name): path.name
            for path in checkpoint.record_files}
    if checkpoint.format != CHECKPOINT_FORMAT or not logs or held != {
            shard: checkpoint.file_info[name]["bytes"]
            for (shard, _), name in logs.items()}:
        return Lineage()
    return Lineage(checkpoint.path.parent.resolve(), min(logs)[1], {
        shard: [held[shard], checkpoint.hashes[name]]
        for (shard, _), name in logs.items()})


def _blake2b(path: Path, end: int, start: int = 0, digest=None):
    """``digest`` (a fresh blake2b-16 when None) advanced over bytes
    ``start:end`` of ``path`` — the one hash of a prefix, a whole file
    or what an append added to a log."""
    digest = digest or hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        handle.seek(start)
        while start < end:
            chunk = handle.read(min(1 << 20, end - start))
            if not chunk:
                raise CheckpointError(f"{path.name} ends before byte {end}")
            digest.update(chunk)
            start += len(chunk)
    return digest


def _fsync(path: Path) -> None:
    """fsync ``path`` (a directory only where the platform can)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _next_sequence(directory: Path) -> int:
    highest = 0
    for entry in directory.glob(f"{_CKPT_PREFIX}*"):
        try:
            highest = max(highest, int(entry.name[len(_CKPT_PREFIX):]))
        except ValueError:
            continue
    return highest + 1


def _logs(root: Path) -> dict:
    """The record logs at a lineage root: ``{name: (shard, generation)}``."""
    return {name: parsed for name in os.listdir(root)
            if (parsed := _parse_log_name(name))}


def write_checkpoint(directory: str | Path, *, spec, config, stats,
                     frontier, rng_state, store: StateStore,
                     lineage: Lineage | None = None) -> tuple[Path, int]:
    """Atomically snapshot one consistent master state; returns the new
    checkpoint's path and the bytes written for it (its manifest's
    ``bytes_written``: the records appended and ``meta.pkl``).
    ``lineage`` holds the prefixes the last committed snapshot of this
    store named, if any: each grown log is cut back to its prefix —
    dropping what a torn or failed write appended — and the store's
    bytes since are appended.  The manifest records the write's
    ``seconds``, up to its own write.  See the module docstring for the
    atomicity protocol."""
    started = time.perf_counter()
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    lineage = lineage if lineage is not None else Lineage()
    if lineage.root != root.resolve():
        lineage.root, lineage.prefixes = root.resolve(), {}
        lineage.generation = 1 + max(
            (generation for _, generation in _logs(root).values()),
            default=-1)
    sequence = _next_sequence(root)
    name = f"{_CKPT_PREFIX}{sequence:08d}"
    staging = root / f"{_TMP_PREFIX}{sequence:08d}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        prefixes, files, bytes_written = {}, {}, 0
        for shard, size in enumerate(store.record_bytes()):
            if not size:
                continue
            held, digest = lineage.prefixes.get(shard, (0, None))
            log = root / _log_name(shard, lineage.generation)
            if size > held:
                with open(log, "ab") as handle:
                    handle.truncate(held)
                    store.copy_records(shard, held, size, handle)
                digest = _blake2b(log, size, held, digest and digest.copy())
                _fsync(log)
                bytes_written += size - held
            prefixes[shard] = [size, digest]
            files[log.name] = {"bytes": size, "blake2b": digest.hexdigest()}
        record_files = list(files)
        # Nothing names a path: nice.resume says where the lineage is.
        # A spec's config equal to the run's pickles as the run's.
        config = replace(config, checkpoint_dir=None)
        if spec is not None:
            own = replace(spec.config, checkpoint_dir=None)
            spec = replace(spec, config=config if own == config else own)
        meta = {
            "spec": spec,
            "config": config,
            "stats": {key: value for key, value in stats.__dict__.items()
                      if key != "resumed_from"},
            "frontier": list(frontier),
            "rng_state": rng_state,
        }
        with open(staging / _META, "wb") as handle:
            pickle.dump(meta, handle, protocol=pickle.HIGHEST_PROTOCOL)
            size = handle.tell()
        files[_META] = {"bytes": size, "blake2b": _blake2b(
            staging / _META, size).hexdigest()}
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "states": len(store),
            "record_width": store.record_width(),
            "record_encoding": RECORD_HEX,
            "record_files": record_files,
            "bytes_written": bytes_written + size,
            "seconds": time.perf_counter() - started,
            "store": store.kind,
            "files": files,
        }
        # The manifest is written (and fsynced) last: a crash before this
        # point leaves a manifest-less temp directory resume ignores.
        (staging / _MANIFEST).write_text(json.dumps(manifest, indent=1))
        for file_name in (_META, _MANIFEST):
            _fsync(staging / file_name)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    os.rename(staging, root / name)
    _fsync(root)
    lineage.prefixes = prefixes
    _prune(root)
    return root / name, manifest["bytes_written"]


def _prune(root: Path) -> None:
    """Keep the newest ``CHECKPOINT_KEEP`` snapshots and every log their
    manifests name; a manifest that cannot be read keeps every log."""
    complete = sorted(root.glob(f"{_CKPT_PREFIX}*"))
    for stale in complete[:-CHECKPOINT_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    named = set()
    for kept in complete[-CHECKPOINT_KEEP:]:
        try:
            named.update(json.loads(
                (kept / _MANIFEST).read_text())["record_files"])
        except (OSError, ValueError, KeyError, TypeError):
            return
    for log in _logs(root).keys() - named:
        (root / log).unlink(missing_ok=True)


#: ``NiceConfig`` fields that no longer exist (CHANGES.md, PR 14) -> the
#: value that, found in a checkpoint's pickled config, means its store
#: holds md5 state digests.  Those are as wide as blake2b-16 ones, so the
#: width guard cannot tell the two apart: the config is the only evidence.
#: (The other fields deleted with them — how states were cloned and how
#: the serial frontier kept them — never changed a digest; a stale value
#: of theirs is ignored.  Which ``hash_counters`` is foreign only the
#: rebuilt scenario's app can say: ``nice.resumable`` checks that one.)
_FOREIGN_DIGEST_KNOBS = {"hash_mode": "full", "hash_memoization": False}


def _validate(path: Path) -> Checkpoint:
    manifest = json.loads((path / _MANIFEST).read_text())
    fmt = manifest.get("format")
    if fmt not in (2, CHECKPOINT_FORMAT):
        raise CheckpointError(
            f"{path.name}: checkpoint format {fmt!r} is not readable (this "
            f"build reads formats 2 and {CHECKPOINT_FORMAT})")
    files, records = manifest["files"], manifest["record_files"]
    # Format 3 names a prefix of each log at the lineage root; format 2's
    # record files are the snapshot's own, each its own whole prefix.
    logs = path.parent if fmt == CHECKPOINT_FORMAT else path
    # Every listed file is checked, whatever it is: a manifest written
    # by an older build also lists per-shard filter bitsets (its
    # ``summary_files``); they are validated like the rest, then ignored.
    hashes = {}
    for file_name, expected in files.items():
        target = (logs if file_name in records else path) / file_name
        if not target.is_file():
            raise CheckpointError(f"{path.name}: missing {file_name}")
        size, prefix = target.stat().st_size, expected["bytes"]
        if size < prefix or (size > prefix and target.parent == path):
            raise CheckpointError(
                f"{path.name}: {file_name} is {size} bytes, manifest says "
                f"{prefix} (torn write?)")
        hashes[file_name] = _blake2b(target, prefix)
        if hashes[file_name].hexdigest() != expected["blake2b"]:
            raise CheckpointError(
                f"{path.name}: {file_name} fails its checksum")
    if manifest["record_encoding"] != RECORD_HEX:
        raise CheckpointError(
            f"{path.name}: record encoding "
            f"{manifest['record_encoding']!r} is not readable (this build "
            f"reads {RECORD_HEX!r} records)")
    # The manifest is the one file no checksum covers, so what it says
    # about the records must at least agree with itself.
    width = manifest["record_width"]
    record_bytes = 0
    for name in manifest["record_files"]:
        if name not in files or _parse_log_name(name) is None:
            raise CheckpointError(
                f"{path.name}: record file {name!r} is not a record file "
                f"name the manifest lists")
        nbytes = files[name]["bytes"]
        if nbytes and (width < 1 or nbytes % width):
            raise CheckpointError(
                f"{path.name}: {name} is {nbytes} bytes, not a multiple "
                f"of the manifest's record width {width}")
        record_bytes += nbytes
    if record_bytes != manifest["states"] * width:
        raise CheckpointError(
            f"{path.name}: manifest says {manifest['states']} states of "
            f"{width} bytes, its record files hold {record_bytes} bytes")
    with open(path / _META, "rb") as handle:
        meta = pickle.load(handle)
    # Unpickling restores whatever attributes the config had when it was
    # written, deleted fields included, into the instance ``__dict__``.
    pickled = vars(meta["config"])
    for knob, foreign in _FOREIGN_DIGEST_KNOBS.items():
        if pickled.get(knob) == foreign:
            raise CheckpointError(
                f"{path.name}: written with {knob}={foreign!r}, whose md5 "
                f"state digests this build cannot match against its own; "
                f"the search cannot be resumed")
    return Checkpoint(
        path=path,
        spec=meta["spec"],
        config=meta["config"],
        stats=meta["stats"],
        frontier=meta["frontier"],
        rng_state=meta["rng_state"],
        states=manifest["states"],
        record_width=width,
        record_files=[logs / name for name in records],
        file_info=files,
        hashes=hashes,
        format=manifest["format"],
        bytes_written=manifest["bytes_written"],
        seconds=manifest.get("seconds", 0.0),
    )


def list_checkpoints(directory: str | Path) -> list[Path]:
    """All checkpoint directories under ``directory``, oldest first."""
    return sorted(Path(directory).glob(f"{_CKPT_PREFIX}*"))


def validate_checkpoint(path: str | Path) -> Checkpoint:
    """Validate and load one checkpoint directory (manifest format, file
    sizes, blake2b checksums, the manifest against itself) — what ``nice
    resume`` trusts and the ``nice checkpoints`` inspector reports.
    Raises :class:`CheckpointError` on a torn, corrupt or inconsistent
    snapshot, whatever reading it raised: a missing or unparsable file
    (``JSONDecodeError`` is a ``ValueError``), or a well-formed manifest
    or meta of the wrong shape."""
    path = Path(path)
    try:
        return _validate(path)
    except CheckpointError:
        raise
    except (OSError, ValueError, pickle.UnpicklingError, EOFError,
            KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path.name}: {exc}") from exc


def load_latest_checkpoint(directory: str | Path,
                           accept=None) -> Checkpoint:
    """The newest checkpoint under ``directory`` that validates and that
    ``accept(checkpoint)``, if given, does not refuse with a
    :class:`CheckpointError`.

    Invalid or refused snapshots (torn writes, truncations, bad
    checksums, a manifest that contradicts itself) are reported to stderr
    and skipped — resume falls back to the previous good one.  Raises
    :class:`CheckpointError` when none is left.
    """
    import sys

    root = Path(directory)
    candidates = sorted(root.glob(f"{_CKPT_PREFIX}*"), reverse=True)
    failures = []
    for candidate in candidates:
        try:
            checkpoint = validate_checkpoint(candidate)
            if accept is not None:
                accept(checkpoint)
            return checkpoint
        except CheckpointError as exc:
            failures.append(str(exc))
            print(f"checkpoint {candidate} is unusable ({exc}); "
                  f"falling back to the previous one",
                  file=sys.stderr, flush=True)
    detail = "; ".join(failures) if failures else "no checkpoints found"
    raise CheckpointError(f"no usable checkpoint under {root}: {detail}")


# ----------------------------------------------------------------------
# The engines' checkpoint driver
# ----------------------------------------------------------------------

class Checkpointer:
    """Periodic + SIGTERM-triggered checkpoint writing for one run.

    Enabled iff ``config.checkpoint_dir`` is set.  ``due()`` fires every
    ``config.checkpoint_interval`` units of progress (newly explored
    states; executed transitions when state matching is off) and immediately
    after a SIGTERM (the handler only sets a flag — ``Searcher.run``
    writes the snapshot at its next *consistent* point: between node
    expansions, with every in-flight task of a pool drained).
    ``install()``/``restore()`` bracket the run so the previous SIGTERM
    handler (coverage.py installs one, for instance) is always put back.

    ``lineage`` is where the snapshots append: the one
    :func:`restore_store` adopted for a resumed run, else empty; each
    snapshot this run writes then advances it.
    """

    def __init__(self, config, spec, store: StateStore, stats,
                 lineage: Lineage | None = None):
        self.config = config
        self.spec = spec
        self.store = store
        self.stats = stats
        self.enabled = bool(config.checkpoint_dir)
        self.sigterm = False
        self._last_progress = self._progress()
        self._previous_handler = None
        self._lineage = lineage if lineage is not None else Lineage()
        # Store counters are deltas since this run's store came up; a
        # resumed SearchStats already carries the previous legs' totals,
        # so sync() adds the live deltas onto that base (absolute set —
        # safe to call any number of times).
        self._counter_base = (stats.store_hits, stats.store_spill_reads,
                              stats.store_evictions)
        stats.store = store.kind
        if self.enabled and spec is None:
            warnings.warn(
                "checkpointing needs a registry scenario (resume rebuilds "
                "the System by name); this hand-built scenario's "
                "checkpoints can only be resumed by passing scenario= to "
                "nice.resume()", RuntimeWarning, stacklevel=3)

    def install(self) -> None:
        """Take over SIGTERM for the duration of the run — from the main
        thread only: anywhere else ``signal.signal`` refuses (ValueError)
        and the run checkpoints on its interval alone."""
        if self.enabled:
            try:
                self._previous_handler = signal.signal(
                    signal.SIGTERM, self._on_sigterm)
            except ValueError:
                pass

    def restore(self) -> None:
        if self._previous_handler is not None:
            signal.signal(signal.SIGTERM, self._previous_handler)
            self._previous_handler = None

    def _on_sigterm(self, signum, frame) -> None:
        self.sigterm = True

    def sync(self) -> None:
        """Fold the store's live spill/hit counters into the stats."""
        counters = self.store.counters()
        self.stats.store_hits = self._counter_base[0] + counters["hits"]
        self.stats.store_spill_reads = \
            self._counter_base[1] + counters["spill_reads"]
        self.stats.store_evictions = \
            self._counter_base[2] + counters["evictions"]

    def _progress(self) -> int:
        """What ``checkpoint_interval`` counts: newly explored states —
        or, with state matching off (the store then only ever holds the
        initial digest), executed transitions, so bounded no-dedup runs
        still checkpoint."""
        if self.config.state_matching:
            return len(self.store)
        return self.stats.transitions_executed

    def due(self) -> bool:
        if not self.enabled:
            return False
        if self.sigterm:
            return True
        interval = self.config.checkpoint_interval
        return self._progress() - self._last_progress >= interval

    def write(self, frontier_groups, rng_state) -> Path:
        """Snapshot now; ``frontier_groups`` is the transport-agnostic
        ``[(trace, steps | None), ...]`` form of the pending frontier."""
        start = time.perf_counter()
        self.sync()
        # Counted before the write so the snapshot includes itself — a
        # resumed run then reports every checkpoint its lineage wrote.
        self.stats.checkpoints_written += 1
        try:
            path, written = write_checkpoint(
                self.config.checkpoint_dir, spec=self.spec,
                config=self.config, stats=self.stats,
                frontier=frontier_groups, rng_state=rng_state,
                store=self.store, lineage=self._lineage)
        except BaseException:
            # A failed snapshot must not inflate the counter: the next
            # successful snapshot would bake the phantom write into its
            # meta and every resumed descendant would inherit it.
            self.stats.checkpoints_written -= 1
            raise
        self.stats.checkpoint_bytes_written += written
        self.stats.checkpoint_seconds += time.perf_counter() - start
        self._last_progress = self._progress()
        return path
