"""Canonical serialization and hashing of system states.

Section 6: "State-matching is done by comparing and storing hashes of the
explored states.  To create state hashes, NICE serializes the state via the
cPickle module and applies the built-in hash function."

Pickle output depends on dict insertion order, so this module instead builds
a *canonical* nested-tuple form — dict items sorted, sets sorted, and model
objects contributing their own ``canonical()`` methods — and hashes its
stable text rendering.  The same logical state always hashes identically,
regardless of the event order that produced its containers.

Hashing uses ``blake2b`` (16-byte digests) from the standard library.
:func:`render_canonical` + :func:`digest_bytes` are the building blocks of
the Merkle-style per-component digest cache in :meth:`System.state_hash
<repro.mc.system.System.state_hash>`: each component form is digested
once per change, and a state hash combines the cached component digests
instead of re-rendering the whole tree.  Under it, :class:`DigestMemo`
renders each *distinct* form once: a state is a product of few component
states, so most changed components return to a form some other state
already had (DESIGN.md, "Per-state hot path").
"""

from __future__ import annotations

import functools
import hashlib
import marshal
import re
from bisect import bisect_right

#: Digest width for state hashes, in bytes (hex-doubles when rendered).
DIGEST_SIZE = 16

#: Canonical forms are rendered to bytes with version-2 ``marshal`` — the
#: last format without object references, so structurally equal forms
#: render identically no matter how their sub-tuples are shared (memoized
#: packet headers, interned strings), which the repr rendering guaranteed
#: and object-ref formats (pickle, marshal >= 3) do not.  It is also ~5x
#: faster than ``repr`` and discriminates every type canonical forms use
#: (None/bool/int/float/str/bytes/tuple).  Digests are persisted: a
#: checkpoint stores the explored set, and a resumed search re-explores
#: nothing only while this rendering stays byte-identical — so the version
#: is pinned here, and a checkpoint resumes on the interpreter line that
#: wrote it (socket workers on other machines already require matching
#: interpreters for the pickle wire protocol).
#:
#: :class:`DigestMemo` compares forms **by value**, which adds one clause
#: to the ``canonical()`` / :func:`canonicalize` contract: a position of a
#: form must not alternate between the ``bool`` / ``int`` / ``float``
#: spellings of one number.  ``(1,) == (True,) == (1.0,)`` and they hash
#: alike, but they render differently, so the memo would answer whichever
#: was rendered first.  No bundled model does — a field is a flag or a
#: count, never both.
_MARSHAL_VERSION = 2


def render_canonical(form) -> bytes:
    """Deterministic byte rendering of an already-canonical form."""
    return marshal.dumps(form, _MARSHAL_VERSION)

#: Characters over which plain string order provably equals repr order:
#: printable ASCII at or above ``(`` (0x28), minus the backslash.  Everything
#: in this set renders unescaped inside repr's single quotes, and the
#: closing quote (0x27) stays smaller than any of them — so when one key is
#: a proper prefix of another, ``'a'`` still sorts before ``'a('`` exactly
#: as ``a`` sorts before ``a(``.  Quotes, escapes, and low-codepoint
#: characters (space through ``&``) would all reorder; they take the slow
#: path.
_SAFE_KEY_RE = re.compile(r"[\x28-\x5b\x5d-\x7e]*\Z")


@functools.lru_cache(maxsize=4096)
def _safe_text(key: str) -> bool:
    """The :data:`_SAFE_KEY_RE` verdict, remembered: dict keys are mostly
    attribute names, which repeat on every component re-hash."""
    return _SAFE_KEY_RE.match(key) is not None


def _safe_string_key(key) -> bool:
    """True when sorting ``key`` directly orders identically to sorting by
    ``repr(key)`` (see :data:`_SAFE_KEY_RE`)."""
    return type(key) is str and _safe_text(key)


def insort_canonical(keys: tuple, forms: tuple, form,
                     key: str) -> tuple[tuple, tuple]:
    """``(keys, forms)`` with ``form`` added, where ``forms`` is a multiset
    kept as ``tuple(sorted(items, key=repr))`` — the canonical form of an
    unordered record — ``keys`` its ``repr`` strings, kept beside it by
    whoever owns the record, and ``key`` is ``repr(form)``.  One ``repr``
    (none, where the caller remembers it) and one C bisect per insertion
    instead of a full re-sort per hash; equal reprs mean equal forms, so
    the result is exactly what the re-sort would build.
    """
    at = bisect_right(keys, key)
    return (keys[:at] + (key,) + keys[at:],
            forms[:at] + (form,) + forms[at:])


def canonicalize(obj):
    """Convert ``obj`` into a deterministic, hashable nested-tuple form.

    Objects exposing a ``canonical()`` method are trusted to return an
    *already canonical* form — primitives and nested tuples only, with any
    internal dicts/sets pre-sorted (every model class in this repo does;
    it is part of the ``canonical()`` contract).  Trusting it lets a
    component digest recompute skip re-walking thousands of packet and
    message sub-tuples that the model already rendered canonically.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    canonical = getattr(obj, "canonical", None)
    if callable(canonical):
        return canonical()
    if isinstance(obj, dict):
        items = [(canonicalize(k), canonicalize(v)) for k, v in obj.items()]
        # Fast path for the common all-string-key dicts (state vars, stats
        # counters): plain sort on the keys themselves.  Guarded so the
        # resulting order — and therefore every hash — is identical to the
        # repr-keyed slow path; dict keys are unique, so the comparison
        # never reaches the (possibly incomparable) values.
        if all(_safe_string_key(k) for k, _ in items):
            items.sort()
        else:
            items.sort(key=lambda kv: repr(kv[0]))
        return ("dict",) + tuple(items)
    if isinstance(obj, (list, tuple)):
        return tuple(canonicalize(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        items = sorted((canonicalize(item) for item in obj), key=repr)
        return ("set",) + tuple(items)
    if hasattr(obj, "__dict__"):
        return ("obj", type(obj).__name__, canonicalize(vars(obj)))
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def state_string(obj) -> str:
    """Stable text rendering of the canonical form."""
    return repr(canonicalize(obj))


def digest_bytes(data: bytes) -> bytes:
    """Raw blake2b digest of ``data`` (the Merkle-tree building block)."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


#: Forms per :class:`DigestMemo` generation.  Measured hit ratio on
#: ``loadbalancer max_pkt_sequence=3`` by generation size: 128 -> 83 %,
#: 256 -> 91 %, 512 -> 94 %, 1024 -> 95 %, unbounded -> 96 % (at +38 % RSS;
#: 512 costs under 1 MB) — DESIGN.md, "The digest tree".  A constant, not a
#: knob: no deployment has a reason to set it.
MEMO_GENERATION = 512


class DigestMemo:
    """Bounded content-addressed memo ``canonical form -> digest_bytes(
    render_canonical(form))``.

    The key is the form itself: a hit costs one tuple hash and one
    comparison, which mostly short-cuts on the sub-tuples equal forms
    share, instead of a render and a blake2b.  A pure function of an
    immutable key cannot go stale, so nothing ever resets it; it is only
    bounded — two generations of at most :data:`MEMO_GENERATION` forms: a
    full young generation becomes the old one, the old one is dropped, and
    a form found in the old generation is carried over, so what keeps
    being asked for survives.  ``bytes_hashed`` counts the bytes actually
    rendered, i.e. the misses.
    """

    __slots__ = ("bytes_hashed", "_young", "_old")

    def __init__(self):
        self.bytes_hashed = 0
        self._young: dict = {}
        self._old: dict = {}

    def digest(self, form) -> bytes:
        young = self._young
        try:
            digest = young.get(form)
        except TypeError:
            # Not hashable (a user ``canonical()`` holding a list, which
            # marshal renders all the same): nothing to look it up by.
            return self._render(form)
        if digest is None:
            digest = self._old.get(form)
            if digest is None:
                digest = self._render(form)
            if len(young) >= MEMO_GENERATION:
                self._old = young
                young = self._young = {}
            young[form] = digest
        return digest

    def _render(self, form) -> bytes:
        data = render_canonical(form)
        self.bytes_hashed += len(data)
        return digest_bytes(data)
