"""Delta-maintained histograms: score a candidate by what changed.

A candidate group usually shares almost all of its rows with the current
selection.  Since per-subgroup score histograms are additive over disjoint
row sets,

    counts(child) = counts(parent) − counts(parent ∖ child)
                                   + counts(child ∖ parent)

holds exactly in integers, so a candidate whose symmetric difference with
the parent is small is scored by bincounting only the difference rows.
Both sides of the decision — delta versus a direct scan of the child's
rows — produce identical matrices; the choice is purely a cost call.

Every count here is fused: one call takes all of a candidate's specs and
gathers the row set's pre-bucketed scores
(:meth:`~repro.model.database.SubjectiveDatabase.bucket_matrix`) once.
Each grouping attribute then costs one bincount keyed by
``(code+1)·D·(scale+1) + cell``, which covers every rating dimension at
once (the paper's §4.2.1 "Combining Multiple Aggregates" sharing); missing
codes land in subgroup row 0 and invalid scores in each dimension's trash
bucket, both sliced away afterwards.  When a side has few entities
(``entities·D·(scale+1) ≤ |rows|``), the rows are instead bincounted once
per *entity* and each attribute's histogram is that small matrix summed by
the attribute's entity codes — a float64 bincount of integer weights,
exact below 2^53, so the result is bit-identical to the row-level pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.rating_maps import RatingMapSpec
from ..db.groupby import group_histograms
from ..model.database import Side, SubjectiveDatabase

__all__ = ["split_rows", "delta_counts", "direct_counts", "prefer_delta"]


def split_rows(
    parent_rows: np.ndarray, child_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(parent ∖ child, child ∖ parent) for sorted unique row arrays."""
    removed = np.setdiff1d(parent_rows, child_rows, assume_unique=True)
    added = np.setdiff1d(child_rows, parent_rows, assume_unique=True)
    return removed, added


def prefer_delta(
    removed: np.ndarray, added: np.ndarray, child_size: int
) -> bool:
    """Delta wins when the difference is smaller than the child itself."""
    return removed.size + added.size < child_size


def direct_counts(
    database: SubjectiveDatabase,
    specs: Sequence[RatingMapSpec],
    rows: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Full-scan ``(n_groups, scale)`` histogram matrices of ``rows``.

    One matrix per spec, in ``specs`` order; the row set is gathered once
    and each attribute is counted for every dimension in one bincount.
    """
    scale = database.scale
    width = len(database.dimensions) * (scale + 1)
    cells = database.bucket_matrix()[rows]
    attributes: dict[Side, dict[str, None]] = {}
    for spec in specs:
        attributes.setdefault(spec.side, {})[spec.attribute] = None
    hists: dict[tuple[Side, str], np.ndarray] = {}
    for side, names in attributes.items():
        n_entities = len(database.entity_table(side))
        if n_entities * width <= rows.size:
            entities = database.entity_rows_for_ratings(side)[rows]
            per_entity = group_histograms(
                entities[:, None], n_entities, cells, width
            ).ravel()
            offsets = np.arange(width)
            for name in names:
                grouping = database.entity_grouping(side, name)
                keys = (grouping.codes[:, None] + 1) * width + offsets
                flat = np.bincount(
                    keys.ravel(),
                    weights=per_entity,
                    minlength=(grouping.n_groups + 1) * width,
                )
                hists[side, name] = flat.astype(np.int64).reshape(
                    grouping.n_groups + 1, width
                )
        else:
            for name in names:
                grouping = database.aligned_grouping(side, name)
                hists[side, name] = group_histograms(
                    grouping.codes[rows][:, None] + 1,
                    grouping.n_groups + 1,
                    cells,
                    width,
                )
    dims = {dim: d for d, dim in enumerate(database.dimensions)}
    out = []
    for spec in specs:
        start = dims[spec.dimension] * (scale + 1)
        hist = hists[spec.side, spec.attribute]
        out.append(np.ascontiguousarray(hist[1:, start : start + scale]))
    return tuple(out)


def delta_counts(
    database: SubjectiveDatabase,
    specs: Sequence[RatingMapSpec],
    parent_counts: Sequence[np.ndarray],
    removed: np.ndarray,
    added: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Each of ``parent_counts`` adjusted by the removed/added rows."""
    counts = [np.array(c, dtype=np.int64, copy=True) for c in parent_counts]
    if removed.size:
        for total, part in zip(counts, direct_counts(database, specs, removed)):
            total -= part
    if added.size:
        for total, part in zip(counts, direct_counts(database, specs, added)):
            total += part
    return tuple(counts)
