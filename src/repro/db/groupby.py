"""Group-by engine with shared multi-aggregate execution.

Rating maps (paper Def. 2) are GroupBy-and-aggregate views over a rating
group.  Two properties of that workload shape this module:

* **Sharing** (paper §4.2.1, "Combining Multiple Aggregates"): all rating
  maps that group by the same attribute differ only in the aggregated rating
  dimension, so one scan computes histograms for every dimension at once.
* **Phased execution** (paper Alg. 1): pruning operates on *partial* results,
  so accumulators accept incremental batches of row indices and expose their
  partial histograms at any point.

Because rating scores live on an integer scale ``1..m`` (Def. 1), a per-group
histogram of counts is a sufficient statistic: mean, standard deviation and
every distance measure derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import SchemaError
from .table import Table

__all__ = [
    "Grouping",
    "HistogramAccumulator",
    "SharedGroupByScan",
    "build_grouping",
    "group_histograms",
]


@dataclass(frozen=True)
class Grouping:
    """Dictionary encoding of one grouping attribute over a table.

    ``codes[i]`` is the subgroup index of row ``i`` (``-1`` = missing, the
    row belongs to no subgroup) and ``labels[g]`` names subgroup ``g``.
    """

    attribute: str
    codes: np.ndarray
    labels: tuple[Any, ...]

    @property
    def n_groups(self) -> int:
        return len(self.labels)

    def group_sizes(self) -> np.ndarray:
        """Number of rows in each subgroup."""
        valid = self.codes[self.codes >= 0]
        return np.bincount(valid, minlength=self.n_groups)


def build_grouping(table: Table, attribute: str) -> Grouping:
    """Dictionary-encode ``attribute`` of ``table`` for grouping."""
    codes, labels = table.column(attribute).group_codes()
    return Grouping(attribute, codes, tuple(labels))


def group_histograms(
    codes: np.ndarray,
    n_groups: int,
    scores: np.ndarray,
    scale: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Histogram of integer scores ``1..scale`` per subgroup.

    Parameters
    ----------
    codes:
        Full-length subgroup codes (``-1`` excluded from all groups).
    n_groups:
        Number of subgroups.
    scores:
        Full-length float array of scores; non-finite and out-of-scale
        entries are ignored.  An *integer* array is taken as already
        bucketed: cells ``0..scale-1`` counted as they are, with no
        validity mask, against non-negative ``codes`` it broadcasts with
        (the trash-bucket encoding of
        :meth:`~repro.model.database.SubjectiveDatabase.bucket_matrix`).
    scale:
        Rating scale ``m`` — scores are expected in ``{1, ..., m}`` — or,
        for bucketed cells, the number of cells per subgroup.
    rows:
        Optional subset of row indices to accumulate (for phased scans).

    Returns
    -------
    ``(n_groups, scale)`` int64 matrix of counts.
    """
    if rows is not None:
        codes = codes[rows]
        scores = scores[rows]
    if scores.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            valid = (
                (codes >= 0) & np.isfinite(scores) & (scores >= 1) & (scores <= scale)
            )
        codes = codes[valid]
        scores = scores[valid].astype(np.int64) - 1
    keys = codes * scale + scores
    flat = np.bincount(keys.ravel(), minlength=n_groups * scale)
    return flat.reshape(n_groups, scale)


class HistogramAccumulator:
    """Incrementally accumulated per-subgroup score histograms.

    One accumulator corresponds to one (grouping attribute, rating dimension)
    pair — i.e. one candidate rating map.  ``update`` folds in a batch of row
    indices; ``counts`` is always the histogram of all rows seen so far.
    """

    def __init__(self, grouping: Grouping, scores: np.ndarray, scale: int) -> None:
        if scale < 2:
            raise SchemaError(f"rating scale must be >= 2, got {scale}")
        self._grouping = grouping
        self._scores = np.asarray(scores, dtype=np.float64)
        self._scale = int(scale)
        self._counts = np.zeros((grouping.n_groups, scale), dtype=np.int64)
        self._rows_seen = 0

    @property
    def grouping(self) -> Grouping:
        return self._grouping

    @property
    def scale(self) -> int:
        return self._scale

    @property
    def counts(self) -> np.ndarray:
        """The ``(n_groups, scale)`` partial histogram (a view — don't mutate)."""
        return self._counts

    @property
    def rows_seen(self) -> int:
        return self._rows_seen

    def update(self, rows: np.ndarray) -> None:
        """Fold the scores at ``rows`` into the histograms."""
        self._counts += group_histograms(
            self._grouping.codes,
            self._grouping.n_groups,
            self._scores,
            self._scale,
            rows=rows,
        )
        self._rows_seen += int(len(rows))

    def update_with_codes(self, codes: np.ndarray, rows: np.ndarray) -> None:
        """Fold in ``rows`` given pre-sliced ``codes`` (= grouping.codes[rows]).

        The sharing fast path: a :class:`SharedGroupByScan` slices the
        grouping codes once per batch and every dimension reuses them.
        """
        self._counts += group_histograms(
            codes,
            self._grouping.n_groups,
            self._scores[rows],
            self._scale,
        )
        self._rows_seen += int(len(rows))

    def update_all(self) -> None:
        """Fold in every row at once (the no-phasing path)."""
        self.update(np.arange(len(self._grouping.codes), dtype=np.int64))


class SharedGroupByScan:
    """Shared scan over one grouping attribute for many rating dimensions.

    Implements the paper's "Combining Multiple Aggregates" sharing
    optimization: the grouping codes are computed once and every dimension's
    accumulator reuses them, so a phase touches each row once per attribute
    rather than once per (attribute, dimension) pair.
    """

    def __init__(
        self,
        grouping: Grouping,
        dimension_scores: Mapping[str, np.ndarray],
        scale: int,
    ) -> None:
        self._grouping = grouping
        self._accumulators = {
            dim: HistogramAccumulator(grouping, scores, scale)
            for dim, scores in dimension_scores.items()
        }

    @property
    def grouping(self) -> Grouping:
        return self._grouping

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(self._accumulators)

    def accumulator(self, dimension: str) -> HistogramAccumulator:
        return self._accumulators[dimension]

    def drop_dimension(self, dimension: str) -> None:
        """Stop accumulating a pruned dimension (frees per-phase work)."""
        self._accumulators.pop(dimension, None)

    def update(self, rows: np.ndarray) -> None:
        if not self._accumulators:
            return
        codes = self._grouping.codes[rows]
        for accumulator in self._accumulators.values():
            accumulator.update_with_codes(codes, rows)


def phase_slices(n_rows: int, n_phases: int) -> list[np.ndarray]:
    """Partition ``range(n_rows)`` into ``n_phases`` near-equal index blocks.

    The paper's phased framework (Alg. 1) processes "the i-th fraction of the
    group" per phase; blocks here are contiguous, sized within one row of
    each other, and jointly cover every row exactly once.  Fewer rows than
    phases yields fewer (non-empty) blocks.
    """
    n_phases = max(1, int(n_phases))
    if n_rows <= 0:
        return [np.empty(0, dtype=np.int64)]
    bounds = np.linspace(0, n_rows, num=min(n_phases, n_rows) + 1, dtype=np.int64)
    return [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
        for i in range(len(bounds) - 1)
    ]
