"""Collections (regions) and subregions.

A :class:`Region` is a collection in the paper's sense: an indexed set of
objects with named fields, backed by numpy arrays.  Regions are the primary
way to pass large data to tasks.  Subregions — created by partitioning — are
*views* onto the parent's storage: writes through one partition are visible
through every other partition of the same region.

Subsets come in two flavours, mirroring the structured/unstructured split in
the paper's applications:

* rectangular (:class:`RectSubset`) — dense blocks and halos (Stencil, Soleil);
* point sets (:class:`SparseSubset`) — arbitrary element lists (Circuit's
  private/shared/ghost node sets on an unstructured graph).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.domain import Point, Rect, coerce_point
from repro.data.fields import FieldSpace
from repro.data.privileges import ReductionOp

__all__ = ["Region", "Subregion", "IndexSubset", "RectSubset", "SparseSubset"]

_next_region_id = itertools.count()
_next_subset_id = itertools.count()


class IndexSubset:
    """Abstract subset of a region's index space.

    Every subset carries a monotonically increasing ``uid`` assigned at
    construction.  Unlike ``id()``, a uid is never reused after garbage
    collection and survives pickling, so it is safe to use as an identity
    token in footprint keys and cross-process shard plans.
    """

    def __init__(self):
        self.uid = next(_next_subset_id)

    def volume(self) -> int:
        raise NotImplementedError

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        """Row-major linear indices of the subset within ``bounds``."""
        raise NotImplementedError

    def overlaps(self, other: "IndexSubset", bounds: Rect) -> bool:
        """Whether the two subsets share any point of the same index space."""
        if isinstance(self, RectSubset) and isinstance(other, RectSubset):
            return self.rect.overlaps(other.rect)
        a = self.linear_indices(bounds)
        b = other.linear_indices(bounds)
        if len(a) == 0 or len(b) == 0:
            return False
        return bool(np.isin(a, b, assume_unique=False).any())

    def covers(self, other: "IndexSubset", bounds: Rect) -> bool:
        """Whether every point of ``other`` is contained in ``self``."""
        if isinstance(self, RectSubset) and isinstance(other, RectSubset):
            return self.rect.contains_rect(other.rect)
        a = self.linear_indices(bounds)
        b = other.linear_indices(bounds)
        if len(b) == 0:
            return True
        if len(a) == 0:
            return False
        return bool(np.isin(b, a, assume_unique=False).all())


class RectSubset(IndexSubset):
    """A dense rectangular subset."""

    __slots__ = ("rect", "_linear_cache", "_box_cache")

    def __init__(self, rect: Rect):
        super().__init__()
        self.rect = rect
        self._linear_cache = None
        self._box_cache = None

    def volume(self) -> int:
        return self.rect.volume

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        # Pure in (rect, bounds) and recomputed on every replay's footprint
        # build, so memoize per instance (subregion objects are stable
        # across reissues).  The cached array is frozen: every consumer
        # only indexes with it, and freezing turns an accidental in-place
        # mutation into an error instead of silent cache corruption.
        cached = self._linear_cache
        if cached is not None and (cached[0] is bounds or cached[0] == bounds):
            return cached[1]
        if self.rect.empty:
            return np.empty(0, dtype=np.int64)
        if not bounds.contains_rect(self.rect):
            raise ValueError(f"{self.rect} not contained in region bounds {bounds}")
        axes = [
            np.arange(l - bl, h - bl + 1, dtype=np.int64)
            for l, h, bl in zip(self.rect.lo, self.rect.hi, bounds.lo)
        ]
        extents = bounds.extents
        strides = np.ones(len(extents), dtype=np.int64)
        for d in range(len(extents) - 2, -1, -1):
            strides[d] = strides[d + 1] * extents[d + 1]
        grids = np.meshgrid(*axes, indexing="ij")
        linear = np.asarray(
            sum(g.ravel() * s for g, s in zip(grids, strides)), dtype=np.int64
        )
        linear.flags.writeable = False
        self._linear_cache = (bounds, linear)
        return linear

    def box(self, bounds: Rect) -> Tuple[slice, ...]:
        """The subset as basic-indexing slices of the region's N-D field
        (``Region.field_nd``): the strided-view twin of
        :meth:`linear_indices`.  An empty axis is ``slice(0, 0)``, so a
        negative bound can never wrap into a non-empty view.  Memoized
        per instance like :meth:`linear_indices`."""
        cached = self._box_cache
        if cached is not None and (cached[0] is bounds or cached[0] == bounds):
            return cached[1]
        rect = self.rect
        if not bounds.contains_rect(rect):
            raise ValueError(f"{rect} not contained in region bounds {bounds}")
        box = tuple(
            slice(l - bl, h - bl + 1) if h >= l else slice(0, 0)
            for l, h, bl in zip(rect.lo, rect.hi, bounds.lo)
        )
        self._box_cache = (bounds, box)
        return box

    def __getstate__(self):
        # The memoized index array and box must not ride along in pickled
        # shard plans (the array can dwarf the descriptor-sized plan the
        # shm transport works to keep small); workers rebuild on demand.
        return (dict(self.__dict__), {"rect": self.rect})

    def __setstate__(self, state):
        d, slots = state
        self.__dict__.update(d)
        self.rect = slots["rect"]
        self._linear_cache = None
        self._box_cache = None

    def __repr__(self) -> str:
        return f"RectSubset({self.rect!r})"


class SparseSubset(IndexSubset):
    """An explicit point set, stored as sorted unique linear indices.

    The linear indices are relative to the owning region's bounds, which must
    be supplied at construction (so equality and overlap are well-defined).
    """

    __slots__ = ("indices",)

    def __init__(self, linear: np.ndarray):
        super().__init__()
        arr = np.unique(np.asarray(linear, dtype=np.int64))
        self.indices = arr

    @classmethod
    def from_points(cls, points: Iterable, bounds: Rect) -> "SparseSubset":
        linear = [bounds.linearize(coerce_point(p, bounds.dim)) for p in points]
        return cls(np.asarray(linear, dtype=np.int64))

    def volume(self) -> int:
        return int(len(self.indices))

    def linear_indices(self, bounds: Rect) -> np.ndarray:
        return self.indices

    def __repr__(self) -> str:
        return f"SparseSubset(<{len(self.indices)} indices>)"


#: Callbacks fired before any region storage read while an execution
#: backend holds uncommitted (pipelined-ahead) launches, so direct data
#: access always observes fully-committed state.  Installed/removed by
#: :class:`~repro.exec.parallel.ParallelBackend`; empty — the common case,
#: one falsy check per access — whenever nothing is in flight.
_DRAIN_HOOKS: list = []


class Region:
    """A top-level collection: an N-D index space with named, typed fields.

    Storage is struct-of-arrays: each field is a flat numpy array of length
    ``bounds.volume`` (row-major).  Two distinct top-level regions are always
    disjoint collections — the runtime's whole-partition logical analysis
    relies on this (Section 5).
    """

    def __init__(self, name: str, bounds: Rect, fields: Union[FieldSpace, Dict]):
        self.name = name
        self.uid = next(_next_region_id)
        self.bounds = bounds
        self.fields = fields if isinstance(fields, FieldSpace) else FieldSpace(fields)
        self._storage: Dict[str, np.ndarray] = {
            fname: np.zeros(bounds.volume, dtype=dt) for fname, dt in self.fields.items()
        }
        self.partitions: list = []  # populated by Partition.__init__

    @property
    def volume(self) -> int:
        """Number of objects in the collection."""
        return self.bounds.volume

    def storage(self, field: str) -> np.ndarray:
        """The flat backing array for ``field`` (length ``volume``)."""
        if _DRAIN_HOOKS:
            for hook in list(_DRAIN_HOOKS):
                hook()
        return self._storage[field]

    def field_nd(self, field: str) -> np.ndarray:
        """The backing array reshaped to the region's N-D extents (a view)."""
        if _DRAIN_HOOKS:
            for hook in list(_DRAIN_HOOKS):
                hook()
        return self._storage[field].reshape(self.bounds.extents)

    def fill(self, field: str, value) -> None:
        """Fill every point's ``field`` with ``value``."""
        self.storage(field)[:] = value

    def root_subregion(self) -> "Subregion":
        """The whole region viewed as a subregion (color None)."""
        return Subregion(self, RectSubset(self.bounds), color=None, partition=None)

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, bounds={self.bounds!r}, "
            f"fields={list(self.fields.names)})"
        )


class Subregion:
    """A named subset of a region: the unit of data a task instance receives.

    Subregions are views: ``read``/``write``/``reduce`` go straight to the
    parent region's storage.  ``color`` is the subregion's point in its
    partition's color space (None for a root subregion).
    """

    __slots__ = ("region", "subset", "color", "partition")

    def __init__(self, region: Region, subset: IndexSubset, color: Optional[Point],
                 partition):
        self.region = region
        self.subset = subset
        self.color = color
        self.partition = partition

    @property
    def volume(self) -> int:
        """Number of objects in this subregion."""
        return self.subset.volume()

    def _indices(self) -> np.ndarray:
        return self.subset.linear_indices(self.region.bounds)

    def box(self) -> Optional[Tuple[slice, ...]]:
        """Rect subsets: the N-D slices of :meth:`read_nd`; else None."""
        if isinstance(self.subset, RectSubset):
            return self.subset.box(self.region.bounds)
        return None

    def read(self, field: str) -> np.ndarray:
        """Gather this subregion's values of ``field``.

        Rect-backed subsets of 1-D regions return a writable view; everything
        else returns a gathered copy (use :meth:`write` to store back).
        """
        store = self.region.storage(field)
        if isinstance(self.subset, RectSubset) and self.region.bounds.dim == 1:
            lo = self.subset.rect.lo[0] - self.region.bounds.lo[0]
            hi = self.subset.rect.hi[0] - self.region.bounds.lo[0]
            return store[lo : hi + 1]
        return store[self._indices()]

    def read_nd(self, field: str) -> np.ndarray:
        """Rect subsets only: the field as an N-D *view* shaped like the rect."""
        box = self.box()
        if box is None:
            raise TypeError("read_nd requires a rectangular subset")
        return self.region.field_nd(field)[box]

    def write(self, field: str, values) -> None:
        """Scatter ``values`` into this subregion's points of ``field``."""
        store = self.region.storage(field)
        idx = self._indices()
        values = np.asarray(values)
        if values.ndim > 1:
            values = values.ravel()
        store[idx] = values

    def fill(self, field: str, value) -> None:
        """Set every point of ``field`` in this subregion to ``value``."""
        self.region.storage(field)[self._indices()] = value

    def reduce(self, field: str, values, op: ReductionOp) -> None:
        """Fold ``values`` into ``field`` with a commutative operator.

        Uses ``np.ufunc.at``-style accumulation so repeated indices (never
        produced by partitions, but possible through aliased views) still
        reduce correctly for ``+``.
        """
        store = self.region.storage(field)
        idx = self._indices()
        values = np.asarray(values).ravel()
        if op.name == "+":
            np.add.at(store, idx, values)
        elif op.name == "*":
            np.multiply.at(store, idx, values)
        elif op.name == "min":
            np.minimum.at(store, idx, values)
        elif op.name == "max":
            np.maximum.at(store, idx, values)
        else:
            store[idx] = op.apply(store[idx], values)

    def overlaps(self, other: "Subregion") -> bool:
        """Whether two subregions can share data (same region and intersecting)."""
        if self.region.uid != other.region.uid:
            return False
        return self.subset.overlaps(other.subset, self.region.bounds)

    def __repr__(self) -> str:
        pname = self.partition.name if self.partition is not None else "<root>"
        return f"Subregion({self.region.name}/{pname}[{self.color}], n={self.volume})"
