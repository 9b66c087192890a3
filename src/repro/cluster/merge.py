"""Mergeable partial phase scans: counts compose by addition, exactly.

The sufficient-statistic layer (PR-3) already scores candidate rating
maps from ``(n_groups, scale)`` integer count matrices — and integer
histograms over *disjoint* row sets compose by addition with no rounding
anywhere.  That is the whole correctness argument for the cluster's
scatter/gather scans:

1. shards partition the rating records (:class:`~repro.cluster.partition.ShardMap`),
2. each worker scans its shards' slice of the selected group
   (:func:`partial_scan` → one :class:`PartialScan` of count matrices),
3. the front adds the matrices and group sizes (:func:`merge_scans`) and
   hands the totals to
   :meth:`~repro.core.generator.RMSetGenerator.generate_from_counts`
   (:func:`result_from_scans`),

so the merged :class:`~repro.core.generator.RMSetResult` is
**byte-identical** to a single-process scan of the whole group — the
equivalence suite in ``tests/cluster`` fingerprints it against both the
naive and the indexed paths.

Everything here is pure (no sockets, no processes), so the equivalence
tests run in-process; the worker and supervisor are thin transport around
these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..core.generator import PruningStrategy, RMSetGenerator, RMSetResult
from ..core.rating_maps import RatingMapSpec, enumerate_map_specs
from ..core.utility import SeenMaps
from ..index.delta import direct_counts
from ..model.database import SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria

__all__ = [
    "PartialScan",
    "local_partial_scans",
    "merge_scans",
    "partial_scan",
    "preview_generator",
    "result_from_scans",
    "scan_specs",
]


@dataclass(frozen=True)
class PartialScan:
    """One worker's contribution to a scattered phase scan.

    ``group_size`` is the number of selected records in ``shards`` and
    ``counts[i]`` the ``(n_groups, scale)`` int64 histogram for spec ``i``
    — both additive across disjoint shard sets.
    """

    shards: tuple[int, ...]
    group_size: int
    counts: tuple[np.ndarray, ...]


def scan_specs(
    database: SubjectiveDatabase, criteria: SelectionCriteria
) -> tuple[RatingMapSpec, ...]:
    """The candidate map specs of one scan, in canonical order."""
    return tuple(enumerate_map_specs(database, criteria))


def partial_scan(
    database: SubjectiveDatabase,
    criteria: SelectionCriteria,
    specs: Sequence[RatingMapSpec],
    record_shards: np.ndarray,
    shards: Sequence[int],
) -> PartialScan:
    """Scan ``criteria``'s group restricted to ``shards``.

    ``record_shards`` is the :meth:`ShardMap.record_shards` array; an
    empty shard list (or a shard holding none of the group's records)
    yields all-zero matrices, which merge as the identity.
    """
    shards = tuple(int(s) for s in shards)
    rows = RatingGroup(database, criteria).rows
    if rows.size and shards:
        rows = rows[np.isin(record_shards[rows], np.asarray(shards))]
    elif not shards:
        rows = rows[:0]
    return PartialScan(
        shards=shards,
        group_size=int(rows.size),
        counts=direct_counts(database, specs, rows),
    )


def local_partial_scans(
    database: SubjectiveDatabase,
    criteria: SelectionCriteria,
    specs: Sequence[RatingMapSpec],
    record_shards: np.ndarray,
    n_shards: int,
) -> list[PartialScan]:
    """Every shard's partial scan of one local database.

    The single-process twin of a full scatter: selects ``criteria``'s
    group **once** and slices the row set by shard, instead of re-running
    the group selection per shard the way ``n_shards`` separate
    :func:`partial_scan` calls would.  Row order within each shard matches
    :func:`partial_scan` exactly, so the merged result is byte-identical.
    """
    rows = RatingGroup(database, criteria).rows
    shard_of = record_shards[rows]
    return [
        PartialScan(
            shards=(shard,),
            group_size=int(shard_rows.size),
            counts=direct_counts(database, specs, shard_rows),
        )
        for shard in range(n_shards)
        for shard_rows in (rows[shard_of == shard],)
    ]


def merge_scans(
    partials: Iterable[PartialScan], n_specs: int
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Add up partial scans: total group size + per-spec count matrices."""
    group_size = 0
    totals: list[np.ndarray] | None = None
    for partial in partials:
        if len(partial.counts) != n_specs:
            raise ValueError(
                f"partial scan carries {len(partial.counts)} count "
                f"matrices, expected {n_specs}"
            )
        group_size += partial.group_size
        if totals is None:
            totals = [np.array(c, dtype=np.int64, copy=True) for c in partial.counts]
        else:
            for total, counts in zip(totals, partial.counts):
                total += counts
    if totals is None:
        totals = []
    return group_size, tuple(totals)


def preview_generator(generator: RMSetGenerator) -> RMSetGenerator:
    """The single-phase, no-pruning twin of ``generator``.

    ``generate_from_counts`` produces exactly what ``generate`` produces
    under this configuration (the Recommendation Builder's preview
    configuration), which pins the scatter/gather path to the
    single-process semantics the equivalence suite checks.
    """
    return RMSetGenerator(
        replace(generator.config, n_phases=1, pruning=PruningStrategy.NONE)
    )


def result_from_scans(
    generator: RMSetGenerator,
    database: SubjectiveDatabase,
    criteria: SelectionCriteria,
    specs: Sequence[RatingMapSpec],
    partials: Iterable[PartialScan],
    k: int | None = None,
) -> RMSetResult:
    """Gather: merge partial counts and finalize one :class:`RMSetResult`.

    The scan is stateless (a fresh display history), so repeated scans of
    the same criteria return the same maps — and the same bytes as a
    single-process scan of the full group.
    """
    specs = tuple(specs)
    group_size, totals = merge_scans(partials, len(specs))
    counts_of = dict(zip(specs, totals))
    labels_of = {
        spec: tuple(
            database.aligned_grouping(spec.side, spec.attribute).labels
        )
        for spec in specs
    }
    seen = SeenMaps(
        database.dimensions,
        n_attributes=len(tuple(database.grouping_attributes())),
    )
    return generator.generate_from_counts(
        criteria,
        specs,
        counts_of.__getitem__,
        labels_of.__getitem__,
        group_size,
        seen,
        k=k,
    )
