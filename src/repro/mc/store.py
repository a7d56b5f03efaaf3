"""Explored-set state store + master checkpointing (DESIGN.md, "State
store and restartability").

Two concerns the search engines delegate here:

* **Membership storage** for the explored state set.  :class:`MemoryStore`
  is the plain in-memory set the engines always had (default — zero
  regression).  :class:`ShardedStore` shards digests by prefix into
  append-only files of fixed-width packed records, keeps a compact
  in-memory index (one small int per digest, ever) plus an LRU-bounded
  *resident* set, and spills cold digests to disk — the explored set of a
  NICE-style exhaustive search then scales past one process's RAM while
  the hot working set stays dictionary-fast.  Both expose one API:
  ``add(digest) -> bool`` (False = already present), ``add_batch``,
  ``in``, ``len``.

  The sharded fast path (record format v2): hex digests are packed to
  raw bytes (16 B for the engines' 32-char hashes — half the ASCII
  footprint) and appends land in a per-shard tail buffer flushed in
  64 KiB runs instead of one ``write()`` per state.  The index is exact
  — a digest prefix it does not hold is a definitive, I/O-free "new" —
  so no approximate filter sits in front of the disk probe (DESIGN.md
  says what one cost and what it answered).

* **Checkpointing** the master's irreplaceable state.  A checkpoint is a
  directory ``ckpt-NNNNNNNN/`` holding the store's record files, a pickled
  ``meta`` blob (scenario spec, config, stats counters, frontier sibling
  groups, RNG state) and a ``MANIFEST.json`` with the byte size and
  blake2b checksum of every file.  Snapshots are **atomic**: everything is
  written and fsynced into a temp directory first, which is then renamed
  into place — a crash mid-write leaves only a temp directory that resume
  ignores.  :func:`load_latest_checkpoint` walks checkpoints newest-first
  and returns the first one that *validates* (manifest present, sizes and
  checksums match), so a torn or truncated snapshot silently falls back to
  the previous good one.  The frontier is stored as transport-agnostic
  ``(parent trace, [transition, ...] | None)`` sibling groups — the wire
  format of :class:`~repro.mc.wire.ExpandTask` — which is why a search
  checkpointed serially can resume on any transport and vice versa.

  Shard files are append-only, so snapshots are **incremental**: record
  files in a checkpoint are immutable *segments*; a shard unchanged since
  the previous snapshot is hard-linked (same inode, zero bytes copied)
  and a grown shard links its old segments and writes only the byte
  range appended since — snapshot cost is O(new states), not O(all
  states).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import signal
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.config import STORE_MEMORY, STORE_SHARDED

#: Bump when the checkpoint layout changes.  Format 2 packs hex digests
#: to raw bytes and names record files as per-shard segments.  It is the
#: only format the loader reads.
CHECKPOINT_FORMAT = 2

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

#: Pre-bound for the insert/lookup hot paths — skips the global + attr
#: lookup per call.
_from_bytes = int.from_bytes

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
        amortise the I/O inside ``add`` itself, so this loop stays one
        dict probe per digest.
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

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        """Write the store's contents as fixed-width record files into
        ``directory``; returns ``(record_names, carried)`` where
        ``carried`` maps file names that were hard-linked from the
        ``previous`` checkpoint directory to their known manifest info
        (``{"bytes": ..., "blake2b": ...}``) so the writer can skip
        re-hashing them."""
        raise NotImplementedError

    def note_snapshot(self, files_info: dict) -> None:
        """Called after a snapshot *committed* (renamed into place);
        ``files_info`` is the manifest's per-file info.  Stores that
        track segments promote the pending snapshot layout to the
        committed baseline here."""

    def adopt_baseline(self, checkpoint: "Checkpoint") -> bool:
        """Adopt ``checkpoint``'s record files as this store's committed
        segment baseline (so the next snapshot links instead of
        rewriting).  Returns False when the layouts are incompatible —
        the next snapshot is then a full rewrite, which is always
        correct."""
        return False

    def record_width(self) -> int:
        """Bytes per record (0 while empty)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryStore(StateStore):
    """The engines' original explored set: one in-memory hash table."""

    kind = STORE_MEMORY

    def __init__(self):
        # A dict, not a set: insertion order survives snapshot/reload, so
        # a resumed serial DFS walks the identical frontier order.
        self._digests: dict[str, None] = {}
        self._hits = 0

    def add(self, digest: str) -> bool:
        if digest in self._digests:
            self._hits += 1
            return False
        self._digests[digest] = None
        return True

    def __contains__(self, digest: str) -> bool:
        if digest in self._digests:
            self._hits += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._digests)

    def counters(self) -> dict:
        return {"hits": self._hits, "spill_reads": 0, "evictions": 0}

    def reset_counters(self) -> None:
        self._hits = 0

    def record_width(self) -> int:
        for digest in self._digests:
            return len(digest) // 2
        return 0

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        name = "states-0000.bin"
        width = self.record_width()
        buffer = bytearray()
        with open(directory / name, "wb") as handle:
            for digest in self._digests:
                # Mis-sliced records would corrupt every digest after the
                # first odd one out on resume — _packed refuses now.
                buffer += _packed(digest, width)
                if len(buffer) >= (1 << 20):
                    handle.write(buffer)
                    buffer.clear()
            handle.write(buffer)
        return [name], {}


class ShardedStore(StateStore):
    """Digest-prefix shards, append-only record files, LRU resident set.

    Layout per shard ``i``: an append-only file of fixed-width packed
    records (record ``n`` lives at byte ``n * width``) behind an
    in-memory tail buffer, plus an in-memory index mapping a 48-bit
    digest prefix to the slot(s) holding it.  Membership: the LRU
    *resident* dict answers hot lookups from memory; a prefix absent
    from the (exact) index is a definitive memory-only miss; otherwise
    the candidate slots are compared against the tail buffer or the
    shard file.  Inserts append one record to the tail buffer (flushed
    to the file in 64 KiB runs) and one index entry; when the resident
    set exceeds ``memory_budget`` digests the oldest entries spill (the
    index entry — one small int — is all that remains in memory).
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
            open(self.directory / self._shard_name(i), "w+b")
            for i in range(shards)
        ]
        #: Per shard: 48-bit digest prefix -> slot int (or tuple of slots
        #: on the rare prefix collision).
        self._index: list[dict[int, int | tuple]] = [{} for _ in range(shards)]
        self._slots = [0] * shards
        #: Bytes flushed to each shard file (always a record multiple).
        self._flushed = [0] * shards
        #: Records appended but not yet written to the shard file.
        self._tails = [bytearray() for _ in range(shards)]
        #: LRU resident set: a plain (insertion-ordered) dict — cheaper
        #: per insert than OrderedDict on the hot path; touches re-insert.
        self._resident: dict[str, None] = {}
        self._count = 0
        self._width = 0
        # -1 until the first digest sets the width: ``len(digest)`` can
        # never be negative, so add()'s single-comparison fast-path
        # check stays false before then.
        self._hexlen = -1
        self._hits = 0
        self._spill_reads = 0
        self._evictions = 0
        #: Committed snapshot baseline, per shard: [(name, bytes, info)]
        #: segment lists matching the previous successful checkpoint.
        self._segments: list[list] = [[] for _ in range(shards)]
        self._pending_segments: list[list] | None = None

    @staticmethod
    def _shard_name(index: int) -> str:
        return f"states-{index:04d}.bin"

    def _pack(self, digest: str) -> bytes:
        """``digest`` as this store's packed record — the first one sets
        the width; raises the mixed-width ValueError on any mismatch,
        from lookups as well as inserts (a silent False here would let
        one run mix digest schemes and corrupt dedup).  Records
        canonicalize to lowercase (``bytes.fromhex`` is case-blind)."""
        width = self._width or len(digest) // 2
        record = _packed(digest, width)
        if not self._width:
            self._width, self._hexlen = width, len(digest)
        return record

    def _probe_records(self, shard: int, slots, record: bytes) -> bool:
        """Compare ``record`` against the candidate slots — in the tail
        buffer when the slot hasn't been flushed yet, else on disk."""
        width = self._width
        flushed = self._flushed[shard]
        tail = self._tails[shard]
        handle = self._files[shard]
        for slot in slots if isinstance(slots, tuple) else (slots,):
            offset = slot * width
            self._spill_reads += 1
            if offset >= flushed:
                start = offset - flushed
                if bytes(tail[start:start + width]) == record:
                    return True
            else:
                handle.seek(offset)
                if handle.read(width) == record:
                    return True
        return False

    def _touch(self, digest: str) -> None:
        """Enter ``digest`` into the resident LRU, spilling the coldest.
        Re-inserting moves an existing key to the back of the (insertion-
        ordered) dict, so eviction order is least-recently-touched."""
        resident = self._resident
        resident.pop(digest, None)
        resident[digest] = None
        while len(resident) > self.memory_budget:
            del resident[next(iter(resident))]
            self._evictions += 1

    def __contains__(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            del resident[digest]
            resident[digest] = None
            return True
        if not self._count:
            return False
        record = self._pack(digest)
        # Small-int prefix (first six record bytes) — bigint arithmetic
        # on the full record is 2-3x the cost per operation.
        prefix = _from_bytes(record[:6], "little")
        shard = prefix % self.shards
        slots = self._index[shard].get(prefix)
        if slots is None:
            return False
        if self._probe_records(shard, slots, record):
            self._touch(digest)
            return True
        return False

    def add(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            del resident[digest]
            resident[digest] = None
            return False
        # Inlined fast path of _pack (this is *the* hot loop of an
        # exhaustive search); everything else falls into _pack, which
        # also performs first-digest width setup and error reporting.
        if len(digest) == self._hexlen:
            try:
                record = bytes.fromhex(digest)
            except ValueError:
                record = self._pack(digest)
        else:
            record = self._pack(digest)
        prefix = _from_bytes(record[:6], "little")
        shard = prefix % self.shards
        slot = self._slots[shard]
        # setdefault folds the common miss-then-insert pair into one
        # dict op.  Identity is sound: it returns the exact object we
        # passed iff it inserted, and any pre-existing entry holds a
        # strictly smaller slot (or a tuple), never this one.
        held = self._index[shard].setdefault(prefix, slot)
        if held is not slot:
            if self._probe_records(shard, held, record):
                self._touch(digest)
                return False
            self._index[shard][prefix] = held + (slot,) \
                if isinstance(held, tuple) else (held, slot)
        tail = self._tails[shard]
        tail += record
        self._slots[shard] = slot + 1
        self._count += 1
        resident[digest] = None
        if len(resident) > self.memory_budget:
            del resident[next(iter(resident))]
            self._evictions += 1
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

    def record_width(self) -> int:
        return self._width

    # -- snapshots ------------------------------------------------------

    @staticmethod
    def _segment_name(shard: int, segment: int) -> str:
        return f"states-{shard:04d}-{segment:04d}.bin"

    def _copy_range(self, shard: int, start: int, end: int,
                    dest: Path) -> None:
        handle = self._files[shard]
        handle.seek(start)
        remaining = end - start
        with open(dest, "wb") as out:
            while remaining:
                data = handle.read(min(1 << 20, remaining))
                if not data:
                    raise CheckpointError(
                        f"shard {shard} truncated during snapshot")
                out.write(data)
                remaining -= len(data)

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        self.flush()
        directory = Path(directory)
        record_names: list[str] = []
        carried: dict[str, dict] = {}
        pending: list[list] = [[] for _ in range(self.shards)]
        for shard in range(self.shards):
            size = self._flushed[shard]
            if not size:
                continue
            committed = self._segments[shard]
            base = sum(nbytes for _, nbytes, _ in committed)
            reused: list = []
            if previous is not None and committed and base <= size and \
                    all(info is not None for _, _, info in committed):
                try:
                    for name, nbytes, info in committed:
                        os.link(previous / name, directory / name)
                        reused.append((name, nbytes, info))
                except OSError:
                    # Cross-device / platform without links / pruned
                    # source: fall back to a full rewrite of this shard.
                    for name, _, _ in reused:
                        try:
                            (directory / name).unlink()
                        except OSError:
                            pass
                    reused = []
            if not reused:
                base = 0
            segments = list(reused)
            if size > base:
                seg_name = self._segment_name(shard, len(segments))
                self._copy_range(shard, base, size, directory / seg_name)
                segments.append((seg_name, size - base, None))
            pending[shard] = segments
            for name, _, info in segments:
                record_names.append(name)
                if info is not None:
                    carried[name] = info
        self._pending_segments = pending
        return record_names, carried

    def note_snapshot(self, files_info: dict) -> None:
        pending = self._pending_segments
        if pending is None:
            return
        self._segments = [
            [(name, nbytes, info if info is not None
              else files_info.get(name))
             for name, nbytes, info in segments]
            for segments in pending
        ]
        self._pending_segments = None

    @staticmethod
    def _parse_record_name(name: str):
        """``states-SSSS[-NNNN].bin`` -> (shard, segment) or None."""
        if not name.startswith("states-") or not name.endswith(".bin"):
            return None
        parts = name[len("states-"):-len(".bin")].split("-")
        if len(parts) not in (1, 2):
            return None
        try:
            shard = int(parts[0])
            segment = int(parts[1]) if len(parts) == 2 else 0
        except ValueError:
            return None
        return shard, segment

    def adopt_baseline(self, checkpoint: "Checkpoint") -> bool:
        if not self._count or checkpoint.record_width != self._width:
            return False
        self.flush()
        grouped: dict[int, list] = {}
        for path in checkpoint.record_files:
            parsed = self._parse_record_name(path.name)
            info = checkpoint.file_info.get(path.name)
            if parsed is None or info is None or parsed[0] >= self.shards:
                return False
            grouped.setdefault(parsed[0], []).append(
                (parsed[1], path.name, info))
        segments: list[list] = [[] for _ in range(self.shards)]
        sizes = [0] * self.shards
        for shard, entries in grouped.items():
            entries.sort()
            for _, name, info in entries:
                segments[shard].append((name, info["bytes"], info))
                sizes[shard] += info["bytes"]
        # The preloaded store must hold byte-for-byte what the segments
        # hold (same shard assignment, same per-shard order) for linking
        # to be sound; the cheap proxy is an exact per-shard byte match.
        if sizes != self._flushed:
            return False
        self._segments = segments
        return True

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
_NON_RESUMABLE = ("wall_time", "engine", "workers", "terminated",
                  "resumed_from")


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
    format: int
    bytes_written: int

    def iter_digests(self):
        width = self.record_width
        if not width:
            return  # a checkpoint of an empty store holds no records
        # Chunked, record-aligned reads: resume must not buffer a whole
        # record file — for the explored sets the sharded store exists
        # for, that file can approach the RAM the store is avoiding.
        chunk_size = max(1, (1 << 20) // width) * width
        for path in self.record_files:
            with open(path, "rb") as handle:
                while True:
                    data = handle.read(chunk_size)
                    if not data:
                        break
                    yield from unpack_digests(data, len(data) // width)

    def restore_stats(self, stats) -> None:
        """Seed a fresh SearchStats with the checkpointed counters."""
        for key, value in self.stats.items():
            if key in _NON_RESUMABLE or not hasattr(stats, key):
                continue
            setattr(stats, key, value)
        stats.resumed_from = str(self.path)


def restore_store(store: StateStore, checkpoint: Checkpoint):
    """Rebuild ``store`` from ``checkpoint``: preload every digest and
    adopt the checkpoint's record files as the compaction baseline.
    Returns the baseline path for the next snapshot to hard-link from,
    or None when the layouts are incompatible (full rewrite instead)."""
    store.preload(checkpoint.iter_digests())
    if store.adopt_baseline(checkpoint):
        return checkpoint.path
    return None


def _file_digest(path: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync
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


def write_checkpoint(directory: str | Path, *, spec, config, stats,
                     frontier, rng_state, store: StateStore,
                     previous: str | Path | None = None
                     ) -> tuple[Path, int]:
    """Atomically snapshot one consistent master state; returns the new
    checkpoint's path and the bytes written for it (its manifest's
    ``bytes_written``).  ``previous`` is the last committed checkpoint of
    this same store, if any — unchanged record segments are hard-linked
    from it instead of rewritten, which is what makes snapshot cost
    O(new states).  See the module docstring for the
    atomicity protocol."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    sequence = _next_sequence(root)
    name = f"{_CKPT_PREFIX}{sequence:08d}"
    staging = root / f"{_TMP_PREFIX}{sequence:08d}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        record_files, carried = store.snapshot_into(
            staging, previous=Path(previous) if previous else None)
        meta = {
            "spec": spec,
            "config": config,
            "stats": dict(stats.__dict__),
            "frontier": list(frontier),
            "rng_state": rng_state,
        }
        with open(staging / _META, "wb") as handle:
            pickle.dump(meta, handle, protocol=pickle.HIGHEST_PROTOCOL)
        files = {}
        bytes_written = 0
        for file_name in [*record_files, _META]:
            info = carried.get(file_name)
            if info is None:
                path = staging / file_name
                info = {"bytes": path.stat().st_size,
                        "blake2b": _file_digest(path)}
                bytes_written += info["bytes"]
            files[file_name] = info
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "states": len(store),
            "record_width": store.record_width(),
            "record_encoding": RECORD_HEX,
            "record_files": record_files,
            "bytes_written": bytes_written,
            "store": store.kind,
            "files": files,
        }
        # The manifest is written (and fsynced) last: a crash before this
        # point leaves a manifest-less temp directory resume ignores.
        (staging / _MANIFEST).write_text(json.dumps(manifest, indent=1))
        for file_name in [*files, _MANIFEST]:
            if file_name in carried:
                continue  # hard-linked: already durable in the previous
            with open(staging / file_name, "rb") as handle:
                os.fsync(handle.fileno())
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    os.rename(staging, root / name)
    _fsync_dir(root)
    store.note_snapshot(files)
    _prune(root)
    return root / name, bytes_written


def _prune(root: Path) -> None:
    complete = sorted(root.glob(f"{_CKPT_PREFIX}*"))
    for stale in complete[:-CHECKPOINT_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


#: ``NiceConfig`` fields that no longer exist (CHANGES.md, PR 14) -> the
#: value that, found in a checkpoint's pickled config, means its store
#: holds md5 state digests.  Those are as wide as blake2b-16 ones, so the
#: width guard cannot tell the two apart: the config is the only evidence.
#: (The other fields deleted with them — how states were cloned and how
#: the serial frontier kept them — never changed a digest; a stale value
#: of theirs is ignored.)
_FOREIGN_DIGEST_KNOBS = {"hash_mode": "full", "hash_memoization": False}


def _validate(path: Path) -> Checkpoint:
    manifest = json.loads((path / _MANIFEST).read_text())
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path.name}: checkpoint format {manifest.get('format')!r} "
            f"is not readable (this build reads format "
            f"{CHECKPOINT_FORMAT})")
    files = manifest["files"]
    # Every listed file is checked, whatever it is: a manifest written
    # by an older build also lists per-shard filter bitsets (its
    # ``summary_files``); they are validated like the rest, then ignored.
    for file_name, expected in files.items():
        target = path / file_name
        if not target.is_file():
            raise CheckpointError(f"{path.name}: missing {file_name}")
        if target.stat().st_size != expected["bytes"]:
            raise CheckpointError(
                f"{path.name}: {file_name} is {target.stat().st_size} "
                f"bytes, manifest says {expected['bytes']} (torn write?)")
        if _file_digest(target) != expected["blake2b"]:
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
        if name not in files or Path(name).name != name:
            raise CheckpointError(
                f"{path.name}: record file {name!r} is not a file name "
                f"the manifest lists")
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
        record_files=[path / name for name in manifest["record_files"]],
        file_info=files,
        format=manifest["format"],
        bytes_written=manifest["bytes_written"],
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


def load_latest_checkpoint(directory: str | Path) -> Checkpoint:
    """The newest checkpoint under ``directory`` that validates.

    Invalid snapshots (torn writes, truncations, bad checksums, a
    manifest that contradicts itself) are reported to stderr and skipped
    — resume falls back to the previous good one.  Raises
    :class:`CheckpointError` when none validates.
    """
    import sys

    root = Path(directory)
    candidates = sorted(root.glob(f"{_CKPT_PREFIX}*"), reverse=True)
    failures = []
    for candidate in candidates:
        try:
            return validate_checkpoint(candidate)
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

    ``previous`` seeds the incremental-snapshot chain: the checkpoint a
    resumed run loaded from (when its layout was adopted), then always
    the last snapshot this run wrote.
    """

    def __init__(self, config, spec, store: StateStore, stats,
                 previous: str | Path | None = None):
        self.config = config
        self.spec = spec
        self.store = store
        self.stats = stats
        self.enabled = bool(config.checkpoint_dir)
        self.sigterm = False
        self._last_progress = self._progress()
        self._previous_handler = None
        self._previous = Path(previous) if previous else None
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
                store=self.store, previous=self._previous)
        except BaseException:
            # A failed snapshot must not inflate the counter: the next
            # successful snapshot would bake the phantom write into its
            # meta and every resumed descendant would inherit it.
            self.stats.checkpoints_written -= 1
            raise
        self._previous = path
        self.stats.checkpoint_bytes_written += written
        self.stats.checkpoint_seconds += time.perf_counter() - start
        self._last_progress = self._progress()
        return path
