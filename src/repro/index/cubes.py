"""Fused candidate cubes: every FILTER value's histograms in one pass.

The paper's §4.2.1 sharing computes all *aggregates* of one grouping in a
single scan.  FILTER candidates admit two further sharing axes:

* **across candidate operations** — all FILTER values of one attribute
  partition the parent's rows by that attribute, so one 3-way ``bincount``
  keyed by (filter value, subgroup, score bucket) yields the candidate
  rating-map histograms of *every* value at once;
* **across attribute roles** — the joint histogram of (attribute a,
  attribute b, bucket) is symmetric in a↔b, so the pass that builds
  attribute a's cube slice grouped by b also provides, transposed,
  attribute b's cube slice grouped by a.

:class:`StepSlices` owns the per-recommendation-step state: the parent
rows' attribute codes and score buckets (sliced once, shared by every
cube) and the joint pair histograms (built once per unordered attribute
pair per dimension, under single-flight locks).  Missing codes and
out-of-scale scores are routed to trash cells (row/column/bucket 0 or
``scale``) instead of being masked out, so each pass is a single
streaming ``bincount`` with no boolean fancy-indexing; the trash cells
are sliced away afterwards, leaving exactly the counts a masked scan
produces.

A :class:`FilterAxis` exists only for categorical and numeric attributes:
multi-valued FILTER semantics are *containment*, while the aligned
grouping keys rows by their full value set, so a cube slice would not
equal the candidate's rows — those candidates take the posting-list path
instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..concurrency import KeyedSingleFlight
from ..core.rating_maps import RatingMapSpec
from ..db.types import ColumnType
from ..model.database import Side, SubjectiveDatabase

__all__ = [
    "FilterAxis",
    "CandidateCube",
    "StepSlices",
    "axis_for",
    "cube_cells",
]

_AttrKey = tuple[Side, str]


@dataclass(frozen=True)
class FilterAxis:
    """Dictionary encoding of one FILTER-able attribute over rating rows."""

    side: Side
    attribute: str
    #: per-rating-record value code (-1 = missing), from the aligned grouping
    codes: np.ndarray
    labels: tuple[Any, ...]
    kind: ColumnType
    _index: dict[Any, int] = field(repr=False)

    @property
    def n_values(self) -> int:
        return len(self.labels)

    def code_of(self, value: Any) -> int | None:
        """The value's code, or ``None`` if outside the active domain."""
        if self.kind is ColumnType.CATEGORICAL:
            return self._index.get(str(value))
        try:
            return self._index.get(float(value))
        except (TypeError, ValueError):
            return None


def axis_for(
    database: SubjectiveDatabase, side: Side, attribute: str
) -> FilterAxis | None:
    """Build the filter axis of an attribute (``None`` if not cube-able)."""
    kind = database.entity_table(side).column(attribute).type
    if kind is ColumnType.MULTI_VALUED:
        return None
    grouping = database.aligned_grouping(side, attribute)
    if kind is ColumnType.CATEGORICAL:
        index: dict[Any, int] = {
            str(label): code for code, label in enumerate(grouping.labels)
        }
    else:
        index = {float(label): code for code, label in enumerate(grouping.labels)}
    return FilterAxis(side, attribute, grouping.codes, grouping.labels, kind, index)


def cube_cells(
    database: SubjectiveDatabase,
    axis: FilterAxis,
    specs: Sequence[RatingMapSpec],
) -> int:
    """Histogram cells the cube would hold (the budget admission check)."""
    total = 0
    for spec in specs:
        n_groups = database.aligned_grouping(spec.side, spec.attribute).n_groups
        total += axis.n_values * n_groups * database.scale
    return total


class StepSlices:
    """Shared per-step scan state over one parent row set.

    Attribute codes are stored shifted by one (missing ``-1`` → trash
    code ``0``) and score buckets extended by one (invalid → trash bucket
    ``scale``); the joint bincounts then run over every parent row with
    no masking, and real counts live in cells ``[1:, 1:, :scale]``.
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        parent_rows: np.ndarray,
        on_pair_build: Callable[[int], None] | None = None,
    ) -> None:
        self._db = database
        self._rows = parent_rows
        self._scale = database.scale
        self._on_pair_build = on_pair_build
        self._lock = threading.Lock()
        self._flight = KeyedSingleFlight()
        #: attr key → (codes+1 sliced, n_groups, labels)
        self._codes1: dict[_AttrKey, tuple[np.ndarray, int, tuple]] = {}
        #: dim → extended buckets sliced (0..scale-1 real, scale = trash)
        self._buckets: dict[str, np.ndarray] = {}
        #: (attr key a, attr key b, dim) → (n_a+1, n_b+1, scale+1) joint
        self._pairs: dict[tuple[_AttrKey, _AttrKey, str], np.ndarray] = {}
        #: entity-aggregation state (see :meth:`_entity_side`): per-side
        #: entity counts/rows, per-attr entity codes, per-(side, dim)
        #: entity histograms and per-(big attr, small side, dim) cross
        #: intermediates
        self._n_ent: dict[Side, int] = {}
        self._ent_rows: dict[Side, np.ndarray] = {}
        self._ent_codes1: dict[_AttrKey, tuple[np.ndarray, int]] = {}
        self._ent_hist: dict[tuple[Side, str], np.ndarray] = {}
        self._cross_m: dict[tuple[_AttrKey, Side, str], np.ndarray] = {}
        self.nbytes = 0
        self.pair_builds = 0

    # -- shared slices ------------------------------------------------------
    def codes1(self, side: Side, attribute: str) -> tuple[np.ndarray, int, tuple]:
        key = (side, attribute)
        with self._lock:
            cached = self._codes1.get(key)
        if cached is not None:
            return cached
        grouping = self._db.aligned_grouping(side, attribute)
        built = (
            grouping.codes[self._rows] + 1,
            grouping.n_groups,
            grouping.labels,
        )
        with self._lock:
            return self._codes1.setdefault(key, built)

    def buckets(self, dimension: str) -> np.ndarray:
        with self._lock:
            cached = self._buckets.get(dimension)
        if cached is not None:
            return cached
        # the database's bucket matrix owns the trash-bucket encoding; its
        # cells carry a ``d·(scale+1)`` dimension offset, removed here
        d = self._db.dimensions.index(dimension)
        built = self._db.bucket_matrix()[self._rows, d].astype(np.int64)
        built -= d * (self._scale + 1)
        with self._lock:
            return self._buckets.setdefault(dimension, built)

    def labels(self, side: Side, attribute: str) -> tuple:
        return self.codes1(side, attribute)[2]

    # -- entity aggregation --------------------------------------------------
    # A rating row's attribute codes are functions of its reviewer/item
    # entity, so a pair histogram can be accumulated per *entity* instead
    # of per row: counts are integers, and a float64 bincount of integer
    # weights is exact below 2^53, so the aggregated build is bit-identical
    # to the row-level one.  This pays off when a side has far fewer
    # entities than the parent has rows (e.g. tens of restaurants under
    # hundreds of thousands of reviews).

    def _entities(self, side: Side) -> int:
        """Entity rows of one side (alignment-indexed upper bound)."""
        n = self._n_ent.get(side)
        if n is None:
            n = int(self._db.entity_rows_for_ratings(side).max()) + 1
            self._n_ent[side] = n  # idempotent — benign if raced
        return n

    def _entity_cheap(self, side: Side) -> bool:
        """Whether entity aggregation beats a row-level pass for a side."""
        return self._entities(side) * (self._scale + 1) <= len(self._rows)

    def entity_rows(self, side: Side) -> np.ndarray:
        """Per-parent-row entity index of one side (cached gather)."""
        with self._lock:
            cached = self._ent_rows.get(side)
        if cached is not None:
            return cached
        built = self._db.entity_rows_for_ratings(side)[self._rows]
        with self._lock:
            return self._ent_rows.setdefault(side, built)

    def entity_codes1(self, side: Side, attribute: str) -> tuple[np.ndarray, int]:
        """Entity-level attribute codes, shifted by one (missing → 0).

        The same dictionary encoding ``aligned_grouping`` gathers through
        the alignment, so code ``c`` here names the same label there.
        """
        attr_key = (side, attribute)
        with self._lock:
            cached = self._ent_codes1.get(attr_key)
        if cached is not None:
            return cached
        grouping = self._db.entity_grouping(side, attribute)
        built = (
            grouping.codes[: self._entities(side)] + 1,
            grouping.n_groups,
        )
        with self._lock:
            return self._ent_codes1.setdefault(attr_key, built)

    def entity_hist(self, side: Side, dimension: str) -> np.ndarray:
        """``(n_entities, scale+1)`` score histogram per entity.

        One row-level pass per (side, dimension) — after it, every
        same-side pair histogram of that side is an entity-sized bincount.
        """
        key = (side, dimension)
        with self._lock:
            hist = self._ent_hist.get(key)
        if hist is not None:
            return hist
        with self._flight.lock(("ehist", side)):
            with self._lock:
                hist = self._ent_hist.get(key)
            if hist is not None:
                return hist
            scale = self._scale
            n_ent = self._entities(side)
            eb = self.entity_rows(side) * (scale + 1)
            for dim in self._db.dimensions:
                dim_key = (side, dim)
                with self._lock:
                    if dim_key in self._ent_hist:
                        continue
                flat = np.bincount(
                    eb + self.buckets(dim), minlength=n_ent * (scale + 1)
                )
                with self._lock:
                    self._ent_hist[dim_key] = flat.reshape(n_ent, scale + 1)
            with self._lock:
                return self._ent_hist[key]

    def cross_hist(
        self, big: _AttrKey, small_side: Side, dimension: str
    ) -> np.ndarray:
        """``(n_big+1, n_entities, scale+1)`` cross-side intermediate.

        Groups one row-level pass by (big-side attribute code, small-side
        entity, bucket); every cross pair of ``big`` with a small-side
        attribute then aggregates entities by their attribute code without
        touching the rows again.
        """
        key = (big, small_side, dimension)
        with self._lock:
            hist = self._cross_m.get(key)
        if hist is not None:
            return hist
        with self._flight.lock(("cross", big, small_side)):
            with self._lock:
                hist = self._cross_m.get(key)
            if hist is not None:
                return hist
            scale = self._scale
            n_ent = self._entities(small_side)
            f1, nf, __ = self.codes1(*big)
            fe = f1 * n_ent
            fe += self.entity_rows(small_side)
            fe *= scale + 1
            cells = (nf + 1) * n_ent * (scale + 1)
            for dim in self._db.dimensions:
                dim_key = (big, small_side, dim)
                with self._lock:
                    if dim_key in self._cross_m:
                        continue
                flat = np.bincount(fe + self.buckets(dim), minlength=cells)
                with self._lock:
                    self._cross_m[dim_key] = flat.reshape(
                        nf + 1, n_ent, scale + 1
                    )
            with self._lock:
                return self._cross_m[key]

    def _pair_builder(self, first: _AttrKey, second: _AttrKey):
        """The cheapest exact per-dimension builder for one attribute pair."""
        scale = self._scale
        side_a, side_b = first[0], second[0]
        if side_a == side_b and self._entity_cheap(side_a):
            # same side: both codes are functions of the entity
            f1e, nf = self.entity_codes1(*first)
            g1e, ng = self.entity_codes1(*second)
            fg_e = f1e * (ng + 1) + g1e
            keys = (fg_e[:, None] * (scale + 1) + np.arange(scale + 1)).ravel()
            cells = (nf + 1) * (ng + 1) * (scale + 1)

            def build_same(dim: str) -> np.ndarray:
                weights = self.entity_hist(side_a, dim).ravel()
                flat = np.bincount(keys, weights=weights, minlength=cells)
                return flat.astype(np.int64).reshape(nf + 1, ng + 1, scale + 1)

            return build_same
        if side_a is not side_b:
            small_side = (
                side_a
                if self._entities(side_a) <= self._entities(side_b)
                else side_b
            )
            if self._entity_cheap(small_side):
                big, small = (
                    (second, first) if small_side is side_a else (first, second)
                )
                s1e, ns = self.entity_codes1(*small)
                nf = self.codes1(*big)[1]
                keys = (
                    np.arange(nf + 1)[:, None, None]
                    * ((ns + 1) * (scale + 1))
                    + (s1e * (scale + 1))[None, :, None]
                    + np.arange(scale + 1)[None, None, :]
                ).ravel()
                cells = (nf + 1) * (ns + 1) * (scale + 1)

                def build_cross(dim: str) -> np.ndarray:
                    weights = self.cross_hist(big, small_side, dim).ravel()
                    flat = np.bincount(keys, weights=weights, minlength=cells)
                    built = flat.astype(np.int64).reshape(
                        nf + 1, ns + 1, scale + 1
                    )
                    # built is (big, small); reorient to (first, second)
                    return built if big == first else built.transpose(1, 0, 2)

                return build_cross
        # row-level fallback: one streaming bincount over the parent rows.
        # (f1 * (ng+1) + g1) * (scale+1), without temporaries — the
        # per-dimension key is then one add away
        f1, nf, __ = self.codes1(*first)
        g1, ng, __ = self.codes1(*second)
        fg = f1 * (ng + 1)
        fg += g1
        fg *= scale + 1
        cells = (nf + 1) * (ng + 1) * (scale + 1)

        def build_rows(dim: str) -> np.ndarray:
            flat = np.bincount(fg + self.buckets(dim), minlength=cells)
            return flat.reshape(nf + 1, ng + 1, scale + 1)

        return build_rows

    def sizes(self, side: Side, attribute: str) -> np.ndarray:
        """Per-value parent-row counts of one attribute (FILTER group sizes)."""
        codes1, n_values, __ = self.codes1(side, attribute)
        return np.bincount(codes1, minlength=n_values + 1)[1:]

    # -- histograms ---------------------------------------------------------
    def pair_hist(self, a: _AttrKey, b: _AttrKey, dimension: str) -> np.ndarray:
        """Joint ``(n_a+1, n_b+1, scale+1)`` histogram, oriented a-first.

        Built once per unordered (a, b) pair per dimension; the reversed
        orientation is the transpose of the same array (a view).  A build
        covers *every* rating dimension of the pair at once: the shared
        key (the fused pair code, or the entity-aggregated intermediate —
        see :meth:`_pair_builder`) is the expensive part, and
        recommendation scoring always ends up asking for all dimensions of
        a pair anyway, so it is computed once and only the per-dimension
        accumulation runs per dimension.
        """
        first, second = (a, b) if _attr_order(a) <= _attr_order(b) else (b, a)
        key = (first, second, dimension)
        with self._lock:
            hist = self._pairs.get(key)
        if hist is None:
            with self._flight.lock((first, second)):
                with self._lock:
                    hist = self._pairs.get(key)
                if hist is None:
                    build = self._pair_builder(first, second)
                    built_bytes = 0
                    for dim in self._db.dimensions:
                        dim_key = (first, second, dim)
                        with self._lock:
                            if dim_key in self._pairs:
                                continue
                        built = build(dim)
                        with self._lock:
                            self._pairs[dim_key] = built
                            self.nbytes += built.nbytes
                        built_bytes += built.nbytes
                    with self._lock:
                        hist = self._pairs[key]
                        if built_bytes:
                            self.pair_builds += 1
                    if self._on_pair_build is not None and built_bytes:
                        self._on_pair_build(built_bytes)
        if (a, b) == (first, second):
            return hist
        return hist.transpose(1, 0, 2)

    def cube_slice(self, axis_key: _AttrKey, spec: RatingMapSpec) -> np.ndarray:
        """``(n_values, n_groups, scale)`` candidate histograms of one spec."""
        joint = self.pair_hist(axis_key, (spec.side, spec.attribute), spec.dimension)
        return joint[1:, 1:, : self._scale]


def _attr_order(key: _AttrKey) -> tuple[str, str]:
    return (key[0].value, key[1])


class CandidateCube:
    """All FILTER candidates of one axis, as sufficient statistics.

    ``counts_of`` slices, per spec, the ``(n_groups, scale)`` histogram
    matrix of the candidate filtering the axis to one value code — exactly
    what a full scan of that candidate's rows would produce, since both
    are integer bincounts over the same record set.
    """

    def __init__(
        self,
        slices: StepSlices,
        axis: FilterAxis,
        specs: tuple[RatingMapSpec, ...],
    ) -> None:
        self._slices = slices
        self.axis = axis
        self.specs = specs
        self._key = (axis.side, axis.attribute)
        self.sizes = slices.sizes(axis.side, axis.attribute)

    def candidate_size(self, code: int) -> int:
        return int(self.sizes[code])

    def candidate_counts(self, code: int, spec: RatingMapSpec) -> np.ndarray:
        return self._slices.cube_slice(self._key, spec)[code]

    def stacked_counts(self, codes: np.ndarray, spec: RatingMapSpec) -> np.ndarray:
        """The ``(len(codes), n_groups, scale)`` count tensor of one spec.

        One fancy-indexed gather over the fused cube slice — the batched
        scoring path's input.  Row ``i`` equals ``candidate_counts(codes[i],
        spec)`` exactly (both read the same joint histogram).
        """
        return self._slices.cube_slice(self._key, spec)[codes]

    def zero_counts(self, spec: RatingMapSpec) -> np.ndarray:
        """The all-zero matrix of an out-of-domain FILTER value."""
        n_groups = self._slices.codes1(spec.side, spec.attribute)[1]
        return np.zeros((n_groups, self._slices._scale), dtype=np.int64)

    def labels_of(self, spec: RatingMapSpec) -> tuple:
        return self._slices.labels(spec.side, spec.attribute)
