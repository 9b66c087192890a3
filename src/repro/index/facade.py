"""`IndexedDatabase`: the sufficient-statistic index behind the engine.

The facade owns the posting-list store and hands the Recommendation
Builder a per-step :class:`NeighborhoodContext` that serves every
candidate operation's sufficient statistics by the cheapest exact route:

* clean FILTER on a categorical/numeric attribute → one slice of a fused
  :class:`~repro.index.cubes.CandidateCube` (built once per attribute per
  step, shared by all of that attribute's values);
* everything else (GENERALIZE, CHANGE, multi-valued FILTER, compounds) →
  rows from posting-list intersections, histograms either delta-maintained
  from the parent's cached counts or scanned directly, whichever touches
  fewer rows.

All routes produce the integer count matrices a naive full scan would, so
the indexed engine is byte-identical to the oracle — `use_index` merely
chooses how the same numbers are computed.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from ..concurrency import KeyedSingleFlight
from ..core.rating_maps import RatingMapSpec, enumerate_map_specs
from ..model.database import Side, SubjectiveDatabase
from ..obs import span as obs_span
from ..model.groups import RatingGroup, SelectionCriteria
from ..model.operations import Operation
from .cubes import CandidateCube, FilterAxis, StepSlices, axis_for, cube_cells
from .delta import delta_counts, direct_counts, prefer_delta, split_rows
from .postings import PostingListStore

__all__ = ["IndexedDatabase", "NeighborhoodContext"]


class IndexedDatabase:
    """Index layer over one :class:`SubjectiveDatabase`.

    ``memory_budget_bytes`` bounds the posting-list store;
    ``max_cube_cells`` caps the histogram cells of any one candidate cube
    (an attribute whose cube would exceed it falls back to the posting
    path — correctness never depends on the budget).
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        memory_budget_bytes: int = 64 * 1024 * 1024,
        max_cube_cells: int = 4_000_000,
    ) -> None:
        self._db = database
        self._postings = PostingListStore(database, memory_budget_bytes)
        self._max_cube_cells = int(max_cube_cells)
        self._axes: dict[tuple[Side, str], FilterAxis | None] = {}
        self._axes_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters = {
            "cube_builds": 0,
            "cube_bytes": 0,
            "candidates_cube": 0,
            "candidates_delta": 0,
            "candidates_direct": 0,
        }

    # -- plumbing -----------------------------------------------------------
    @property
    def database(self) -> SubjectiveDatabase:
        return self._db

    @property
    def postings(self) -> PostingListStore:
        return self._postings

    @property
    def max_cube_cells(self) -> int:
        return self._max_cube_cells

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._counter_lock:
            self._counters[counter] += by

    def stats(self) -> dict[str, Any]:
        """Hit/bytes counters for `/metrics`."""
        with self._counter_lock:
            counters = dict(self._counters)
        return {"postings": self._postings.stats(), **counters}

    # -- group materialisation ---------------------------------------------
    def rows_for(self, criteria: SelectionCriteria) -> np.ndarray:
        return self._postings.rows_for(criteria)

    def group(self, criteria: SelectionCriteria) -> RatingGroup:
        """Materialise a rating group from postings (no table scans)."""
        return RatingGroup.from_rows(
            self._db,
            criteria,
            self.rows_for(criteria),
            self._postings.entity_count(Side.REVIEWER, criteria),
            self._postings.entity_count(Side.ITEM, criteria),
        )

    def axis(self, side: Side, attribute: str) -> FilterAxis | None:
        key = (side, attribute)
        with self._axes_lock:
            if key in self._axes:
                return self._axes[key]
        built = axis_for(self._db, side, attribute)
        with self._axes_lock:
            return self._axes.setdefault(key, built)

    def neighborhood(self, parent: RatingGroup) -> "NeighborhoodContext":
        """Per-step context for scoring ``parent``'s operation neighbourhood."""
        return NeighborhoodContext(self, parent)


class NeighborhoodContext:
    """Candidate statistics for one recommendation step.

    Cubes and the parent's own histograms are built lazily, once, under
    per-key single-flight locks — the Recommendation Builder scores
    candidates from many threads at once.
    """

    def __init__(self, index: IndexedDatabase, parent: RatingGroup) -> None:
        self._index = index
        self._db = index.database
        self._parent = parent
        self._parent_rows = parent.rows
        self._parent_size = len(parent)
        self._specs = tuple(
            enumerate_map_specs(self._db, parent.criteria)
        )
        self._spec_set = frozenset(self._specs)
        self._lock = threading.Lock()
        self._flight = KeyedSingleFlight()
        self._slices = StepSlices(
            self._db,
            self._parent_rows,
            on_pair_build=lambda nbytes: index._bump("cube_bytes", nbytes),
        )
        self._cubes: dict[tuple[Side, str], CandidateCube | None] = {}
        self._parent_counts: dict[RatingMapSpec, np.ndarray] | None = None

    @property
    def parent_size(self) -> int:
        return self._parent_size

    @property
    def parent_rows(self) -> np.ndarray:
        return self._parent_rows

    def parent_counts(self, spec: RatingMapSpec) -> np.ndarray:
        """The parent group's histogram matrix for ``spec`` (cached).

        The first request counts every parent spec in one fused scan.
        """
        counts = self._parent_counts
        if counts is None:
            with self._flight.lock("parent"):
                if self._parent_counts is None:
                    self._parent_counts = dict(
                        zip(
                            self._specs,
                            direct_counts(self._db, self._specs, self._parent_rows),
                        )
                    )
                counts = self._parent_counts
        return counts[spec]

    def _child_specs(self, side: Side, attribute: str) -> tuple[RatingMapSpec, ...]:
        """Specs of a FILTER child on ``attribute`` — the parent's minus it.

        Matches ``enumerate_map_specs(db, parent.with_pair(...))`` exactly:
        enumeration iterates the database's grouping attributes in a fixed
        order and skips fixed ones, so filtering the parent's sequence
        preserves both the set and the order.
        """
        return tuple(
            s
            for s in self._specs
            if not (s.side is side and s.attribute == attribute)
        )

    def cube(self, side: Side, attribute: str) -> CandidateCube | None:
        key = (side, attribute)
        with self._lock:
            if key in self._cubes:
                return self._cubes[key]
        with self._flight.lock(("cube", key)):
            with self._lock:
                if key in self._cubes:
                    return self._cubes[key]
            cube: CandidateCube | None = None
            axis = self._index.axis(side, attribute)
            if axis is not None:
                specs = self._child_specs(side, attribute)
                cells = cube_cells(self._db, axis, specs) if specs else 0
                if specs and cells <= self._index.max_cube_cells:
                    with obs_span(
                        "index.cube.build",
                        side=side.value,
                        attribute=attribute,
                        cells=cells,
                    ):
                        cube = CandidateCube(self._slices, axis, specs)
                    self._index._bump("cube_builds")
            with self._lock:
                self._cubes[key] = cube
            return cube

    def filter_route(
        self, operation: Operation
    ) -> "tuple[CandidateCube, int | None] | None":
        """The fused-cube route of a clean single-added-pair FILTER.

        Returns the family cube and the added value's code (``None`` code =
        out-of-domain value, an empty candidate), or ``None`` when the
        operation is not cube-servable (GENERALIZE/CHANGE/compound edits,
        multi-valued attributes, over-budget cubes) and must take the
        posting-list path.  The batched family scorer groups candidates by
        this route.
        """
        target = operation.target
        parent_pairs = self._parent.criteria.pairs
        added = tuple(target.pairs - parent_pairs)
        removed = tuple(parent_pairs - target.pairs)
        if len(added) == 1 and not removed:
            pair = added[0]
            cube = self.cube(pair.side, pair.attribute)
            if cube is not None:
                return cube, cube.axis.code_of(pair.value)
        return None

    def count_cube_candidates(self, n: int) -> None:
        """Attribute ``n`` cube-served candidates to the index counters."""
        self._index._bump("candidates_cube", n)

    def candidate(self, operation: Operation) -> "_CubeCandidate | _RowsCandidate":
        """The cheapest exact statistics view of one candidate operation."""
        route = self.filter_route(operation)
        if route is not None:
            cube, code = route
            self._index._bump("candidates_cube")
            return _CubeCandidate(cube, code, operation.target)
        return _RowsCandidate(self, operation.target)


class _CubeCandidate:
    """A clean FILTER candidate served from a fused cube slice."""

    def __init__(
        self,
        cube: CandidateCube,
        code: int | None,
        target: SelectionCriteria,
    ) -> None:
        self._cube = cube
        self._code = code
        self.criteria = target

    @property
    def size(self) -> int:
        return 0 if self._code is None else self._cube.candidate_size(self._code)

    def matches_parent(self, parent_size: int) -> bool:
        # a FILTER child is a subset of the parent, so equal size ⇒ equal rows
        return self.size == parent_size

    @property
    def specs(self) -> tuple[RatingMapSpec, ...]:
        return self._cube.specs

    def counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        if self._code is None:
            return self._cube.zero_counts(spec)
        return self._cube.candidate_counts(self._code, spec)

    def labels_of(self, spec: RatingMapSpec) -> tuple[Any, ...]:
        return self._cube.labels_of(spec)


class _RowsCandidate:
    """A candidate served from posting intersections + delta maintenance."""

    def __init__(self, ctx: NeighborhoodContext, target: SelectionCriteria) -> None:
        self._ctx = ctx
        self._db = ctx._db
        self.criteria = target
        self._rows = ctx._index.rows_for(target)
        self._specs: tuple[RatingMapSpec, ...] | None = None
        self._counts: dict[RatingMapSpec, np.ndarray] | None = None

    @property
    def size(self) -> int:
        return int(self._rows.size)

    def matches_parent(self, parent_size: int) -> bool:
        return self._rows.size == parent_size and bool(
            np.array_equal(self._rows, self._ctx.parent_rows)
        )

    @property
    def specs(self) -> tuple[RatingMapSpec, ...]:
        if self._specs is None:
            self._specs = tuple(
                enumerate_map_specs(self._db, self.criteria)
            )
        return self._specs

    def counts_of(self, spec: RatingMapSpec) -> np.ndarray:
        if self._counts is None:
            self._counts = self._all_counts()
        return self._counts[spec]

    def _all_counts(self) -> dict[RatingMapSpec, np.ndarray]:
        """Every spec's matrix: one fused call per row set.

        Specs the parent also maps are delta-maintained from its cached
        counts when the difference rows are fewer than the child's; the
        rest (and all of them otherwise) are scanned directly.
        """
        ctx = self._ctx
        specs = self.specs
        delta_specs: tuple[RatingMapSpec, ...] = ()
        # |removed| ≥ parent − child, so when parent − child ≥ child the
        # delta can never touch fewer rows than a direct scan — skip even
        # computing the set differences
        if ctx.parent_size - self._rows.size < self._rows.size:
            removed, added = split_rows(ctx.parent_rows, self._rows)
            if prefer_delta(removed, added, self._rows.size):
                delta_specs = tuple(s for s in specs if s in ctx._spec_set)
        counts: dict[RatingMapSpec, np.ndarray] = {}
        if delta_specs:
            ctx._index._bump("candidates_delta", len(delta_specs))
            counts.update(
                zip(
                    delta_specs,
                    delta_counts(
                        self._db,
                        delta_specs,
                        [ctx.parent_counts(s) for s in delta_specs],
                        removed,
                        added,
                    ),
                )
            )
        direct_specs = [s for s in specs if s not in counts]
        if direct_specs:
            ctx._index._bump("candidates_direct", len(direct_specs))
            counts.update(
                zip(direct_specs, direct_counts(self._db, direct_specs, self._rows))
            )
        return counts

    def labels_of(self, spec: RatingMapSpec) -> tuple[Any, ...]:
        return self._db.aligned_grouping(spec.side, spec.attribute).labels
