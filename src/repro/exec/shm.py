"""Zero-copy shared-memory transport for shard footprint data.

Hot-path engine layer 1 (see ``docs/hot-path.md``).  The parallel backend
ships two kinds of bulk array data per shard: *read footprints* (the region
bytes a shard's tasks read, scattered into worker-local storage at install)
and *write-back footprints* (the final bytes a shard's WRITE/READ_WRITE
tasks produced, scattered into parent storage at commit).  Both move
through per-worker ``multiprocessing.shared_memory`` segments, so the plan
and result carry only small descriptors.

A footprint's location (``repro.exec.plan.footprint_loc``) is a *box* for a
rect subset — slices into the region's N-D field — and an int64 index
array for a sparse one.  A box is the only wire form of a rect: its values
travel as one strided copy into a segment view shaped like the box, and no
index array exists anywhere on the path.

* read descriptors (in ``ShardPlan.read_data``)::

      ("box", region_uid, field, box, segment, val_off, val_dtype)
      ("shm", region_uid, field, segment, idx_off, count, idx_dtype,
       val_off, val_dtype)

  A box read is one ``np.copyto`` from ``field_nd[box]`` into the segment;
  the worker scatters ``field_nd[box] = view``.  A sparse read copies the
  index array and gathers the values straight into the segment; the worker
  scatters ``storage[idx] = vals``.

* write slot (in ``ShardPlan.write_slots``, one entry per (requirement,
  field) in the worker's gather order)::

      (segment, val_off, shape, val_dtype)

  ``shape`` is the box's extents (or the index count).  Projection is pure,
  so the parent derives the same footprints the worker will, allocates an
  uninitialized slot, and keeps a ``(uid, field, loc, view)`` record; the
  worker fills the slot with ``np.copyto(slot, field_nd[box])`` instead of
  pickling, and the parent commits ``field_nd[box] = slot`` from its view.

Ownership and lifecycle — designed so the stale-shipment protocol of the
recovery ladder carries over unchanged:

* Segments are **parent-owned**: created, rewound, and unlinked only by the
  parent.  Workers attach read-only by name and explicitly *unregister*
  the attachment from their resource tracker, so a worker death can never
  reap a live segment.
* Segment names embed the worker index and **generation**
  (``reproshm-<pid>p<pool>w<k>g<gen>-<seq>``).  ``WorkerPool.reset_worker``
  bumps the generation and unlinks the old generation's segments, so a
  zombie process from before a respawn writes into an orphaned mapping —
  exactly the fate of its stale cache shipments.
* Offsets grow monotonically across a dispatch (retries included) and are
  **rewound** only after a successful commit, when every future has been
  collected and no worker can still be writing.  A dispatch abandoned for
  the serial fallback *abandons* (unlinks) the current segments instead:
  an uncollected straggler keeps its orphaned mapping and the next
  dispatch starts on fresh segments.
* A retired segment stays mapped in the parent until the dispatch that
  retired it has committed or fallen back, and until no numpy view of it
  survives (:meth:`ShmArena.release_retired`); only then is it unmapped.

Fallback: every entry degrades independently to the pickle transport —
object/void dtypes, allocation failures, or shm being unavailable
(``REPRO_SHM=0``, ``RuntimeConfig.shm=False``, or no platform support)
leave ``(uid, field, loc, values)`` tuples in place, with the same box or
index location, and the worker handles every form unconditionally.
Empty footprints move nothing at all.  CI exercises both paths.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.profiler import NULL_PROFILER

try:  # pragma: no cover - exercised on every POSIX CI leg
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

__all__ = ["ShmArena", "ShmStats", "shm_env_enabled"]


def shm_env_enabled() -> bool:
    """The ``REPRO_SHM`` gate: unset or ``1`` means on, ``0`` means off."""
    return os.environ.get("REPRO_SHM", "1").strip() != "0"


class ShmStats:
    """Hot-path counters for the shared-memory transport."""

    __slots__ = (
        "read_entries",
        "read_fallbacks",
        "write_slots",
        "write_fallbacks",
        "bytes_staged",
        "bytes_slotted",
        "segments_created",
        "segments_unlinked",
        "rewinds",
        "abandons",
        "teardown_errors",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Segment:
    __slots__ = ("shm", "size", "used", "idle_refs")

    def __init__(self, shm, size: int):
        self.shm = shm
        self.size = size
        self.used = 0
        #: references to the mapping while no numpy view of it exists;
        #: every view holds one more (numpy keeps the mmap as its base).
        self.idle_refs = sys.getrefcount(shm._mmap)

    def has_views(self) -> bool:
        return sys.getrefcount(self.shm._mmap) > self.idle_refs


_ARENA_COUNTER = [0]

#: Smallest segment; grows geometrically per worker as dispatches demand.
_MIN_SEGMENT = 1 << 16
_ALIGN = 64


class ShmArena:
    """Per-pool allocator of parent-owned shared-memory segments.

    One arena serves one :class:`~repro.exec.pool.WorkerPool`; worker ``k``
    of generation ``g`` draws from segments named for ``(k, g)``.  All
    methods are parent-side only and single-threaded (the backend's
    dispatch loop); ``None`` returns mean "use the pickle fallback for this
    entry" and never raise.
    """

    def __init__(self, n: int):
        self.n = n
        self.available = _shared_memory is not None
        self.stats = ShmStats()
        self._segments: List[List[_Segment]] = [[] for _ in range(n)]
        #: Unlinked but still-mapped segments.  A retired segment may hold
        #: write slots whose parent-side views an in-flight dispatch still
        #: reads at commit (the stale-success-racing-respawn interleaving),
        #: and ``SharedMemory.close()`` does *not* refuse while numpy views
        #: exist — it silently unmaps, and the next segment's mapping can
        #: land at the same address, aliasing the dangling views onto fresh
        #: data.  So retirement only unlinks (frees the name); the mapping
        #: stays open until :meth:`release_retired` runs between dispatches
        #: and finds no view of it alive.
        self._retired: List[_Segment] = []
        self._gens = [0] * n
        self._seq = [0] * n
        _ARENA_COUNTER[0] += 1
        self._tag = f"{os.getpid()}p{_ARENA_COUNTER[0]}"
        #: re-pointed by the owning pool so teardown errors land in the
        #: runtime's trace/metrics stream.
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------ allocation
    def _alloc(self, k: int, gen: int, nbytes: int):
        """An (segment, offset) slice for ``nbytes``, or None on failure."""
        if not self.available:
            return None
        if gen != self._gens[k]:
            # The pool respawned this worker without telling us (defensive;
            # reset_worker normally calls on_reset first).
            self._drop_worker(k)
            self._gens[k] = gen
        segs = self._segments[k]
        if segs:
            seg = segs[-1]
            offset = (seg.used + _ALIGN - 1) & ~(_ALIGN - 1)
            if offset + nbytes <= seg.size:
                seg.used = offset + nbytes
                return seg, offset
        size = max(
            _MIN_SEGMENT,
            segs[-1].size * 2 if segs else 0,
            1 << max(nbytes - 1, 1).bit_length(),
        )
        name = f"reproshm-{self._tag}w{k}g{gen}-{self._seq[k]}"
        self._seq[k] += 1
        try:
            shm = _shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except Exception:
            try:  # name collision with a stale run: retry anonymously
                shm = _shared_memory.SharedMemory(create=True, size=size)
            except Exception:
                self.available = False  # e.g. /dev/shm missing or full
                return None
        seg = _Segment(shm, size)
        segs.append(seg)
        self.stats.segments_created += 1
        seg.used = nbytes
        return seg, 0

    @staticmethod
    def _shippable(dtype: np.dtype) -> bool:
        return dtype.hasobject is False and dtype.kind != "V"

    def view(self, seg: _Segment, offset: int, shape, dtype):
        return np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf, offset=offset)

    # -------------------------------------------------------------- staging
    def stage_read(
        self, k: int, gen: int, uid: int, fname: str,
        store: np.ndarray, loc,
    ) -> Optional[tuple]:
        """Copy one non-empty read footprint into shm; returns its wire
        descriptor.  ``store`` is ``footprint_store(region, fname, loc)``:
        the N-D field for a box, the flat field for an index array."""
        dtype = store.dtype
        if not self._shippable(dtype):
            self.stats.read_fallbacks += 1
            return None
        if isinstance(loc, tuple):
            src = store[loc]
            slice_ = self._alloc(k, gen, src.nbytes)
            if slice_ is None:
                self.stats.read_fallbacks += 1
                return None
            seg, val_off = slice_
            np.copyto(self.view(seg, val_off, src.shape, dtype), src)
            self.stats.read_entries += 1
            self.stats.bytes_staged += src.nbytes
            return ("box", uid, fname, loc, seg.shm.name, val_off, dtype.str)
        idx = loc
        count = len(idx)
        nbytes = idx.nbytes + count * dtype.itemsize
        slice_ = self._alloc(k, gen, nbytes + _ALIGN)
        if slice_ is None:
            self.stats.read_fallbacks += 1
            return None
        seg, idx_off = slice_
        val_off = (idx_off + idx.nbytes + _ALIGN - 1) & ~(_ALIGN - 1)
        self.view(seg, idx_off, count, idx.dtype)[:] = idx
        np.take(store, idx, out=self.view(seg, val_off, count, dtype))
        self.stats.read_entries += 1
        self.stats.bytes_staged += nbytes
        return (
            "shm", uid, fname, seg.shm.name, idx_off, count,
            idx.dtype.str, val_off, dtype.str,
        )

    def alloc_write_slot(
        self, k: int, gen: int, shape, dtype: np.dtype, size: int
    ) -> Optional[Tuple[tuple, np.ndarray]]:
        """An uninitialized gather-back slot of ``size`` elements shaped
        ``shape`` (``loc_shape`` of a non-empty footprint): (wire
        descriptor, parent view)."""
        if not self._shippable(dtype):
            self.stats.write_fallbacks += 1
            return None
        nbytes = size * dtype.itemsize
        slice_ = self._alloc(k, gen, nbytes)
        if slice_ is None:
            self.stats.write_fallbacks += 1
            return None
        seg, offset = slice_
        view = self.view(seg, offset, shape, dtype)
        self.stats.write_slots += 1
        self.stats.bytes_slotted += nbytes
        return (seg.shm.name, offset, shape, dtype.str), view

    # ------------------------------------------------------------ lifecycle
    def _retire(self, seg: _Segment) -> None:
        """Free the segment's *name* now; keep its mapping open.

        Workers unregister their attachments from the (fork-shared)
        resource tracker so a worker death can never reap a live segment —
        which may have removed *our* registration too.  Re-register first
        so unlink()'s internal unregister always balances instead of
        spraying KeyError noise in the tracker process.
        """
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(seg.shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl details vary
            pass
        try:
            seg.shm.unlink()
            self.stats.segments_unlinked += 1
        except Exception as exc:  # pragma: no cover - already gone
            self._note_teardown_error(exc)
        self._retired.append(seg)

    def _note_teardown_error(self, exc: BaseException) -> None:
        """A segment unlink/close failed.  Historically swallowed with a
        bare ``except: pass``; now counted (``stats.teardown_errors``) and
        emitted as an obs instant so shm leaks are diagnosable."""
        self.stats.teardown_errors += 1
        prof = self.profiler
        if prof.enabled:
            prof.count("shm.teardown_errors", 1.0, kind=type(exc).__name__)
            prof.instant("shm.teardown_error", "execution",
                         kind=type(exc).__name__, detail=str(exc))

    def _drop_worker(self, k: int) -> None:
        for seg in self._segments[k]:
            self._retire(seg)
        self._segments[k] = []

    def on_reset(self, k: int, new_gen: int) -> None:
        """Worker respawn: orphan everything its old incarnation could
        still be writing to, and key future segments to the new gen."""
        self._drop_worker(k)
        self._gens[k] = new_gen

    def rewind_all(self) -> None:
        """Reclaim offsets after a committed dispatch (no outstanding
        writers by construction).  Keeps only each worker's newest — and
        largest — segment so steady state settles to one segment each."""
        self.stats.rewinds += 1
        for k in range(self.n):
            segs = self._segments[k]
            for seg in segs[:-1]:
                self._retire(seg)
            del segs[:-1]
            if segs:
                segs[-1].used = 0

    def abandon_all(self) -> None:
        """A dispatch bailed with futures possibly uncollected: these
        offsets can never be trusted again, so retire the segments."""
        self.stats.abandons += 1
        for k in range(self.n):
            self._drop_worker(k)

    def release_retired(self) -> None:
        """Unmap every retired segment no numpy view still references.

        Called between dispatches — after a commit or a serial fallback,
        once the dispatch's write-slot views are dropped — so each bail or
        respawn frees its mappings instead of stranding them until pool
        shutdown.  A segment some view still reaches (a caller holding an
        exception whose traceback pins the dispatch) stays retired and is
        retried at the next release."""
        if not self._retired:
            return
        keep = []
        for seg in self._retired:
            if seg.has_views():
                keep.append(seg)
                continue
            self._close(seg)
        self._retired = keep

    def _close(self, seg: _Segment) -> None:
        try:
            seg.shm.close()
        except Exception as exc:  # pragma: no cover
            self._note_teardown_error(exc)

    def close(self) -> None:
        for k in range(self.n):
            self._drop_worker(k)
        for seg in self._retired:
            self._close(seg)
        self._retired.clear()

    def live_segments(self) -> List[str]:
        """Names of every segment currently linked (leak-test hook)."""
        return [
            seg.shm.name
            for segs in self._segments
            for seg in segs
        ]
