"""Merge equivalence: scatter/gather reproduces single-process bytes.

Integer count matrices over disjoint shard sets compose by addition, so
a scattered phase scan merged with :func:`merge_scans` must equal the
full scan *exactly* — same count matrices, same selected maps, same
utilities, same diversity — for every shard count, for sparse data
(missing values, NaN scores, empty multi-valued sets), for empty
partitions, and across the shared-memory attach boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.merge import (
    PartialScan,
    merge_scans,
    partial_scan,
    preview_generator,
    result_from_scans,
    scan_specs,
)
from repro.cluster.partition import ShardMap, attach_database, share_database
from repro.cluster.shm import SegmentRegistry
from repro.core.engine import SubDExConfig
from repro.core.generator import RMSetGenerator
from repro.core.utility import SeenMaps
from repro.index.delta import direct_counts
from repro.index.verify import result_fingerprint
from repro.model.groups import RatingGroup, SelectionCriteria

CRITERIA = [
    pytest.param(SelectionCriteria.root(), id="root"),
    pytest.param(SelectionCriteria.of(reviewer={"gender": "M"}), id="reviewer"),
    pytest.param(SelectionCriteria.of(item={"city": "NYC"}), id="item"),
    pytest.param(
        SelectionCriteria.of(
            reviewer={"occupation": "student"}, item={"cuisine": "Pizza"}
        ),
        id="both-sides-multi-valued",
    ),
]


def _generator() -> RMSetGenerator:
    return preview_generator(RMSetGenerator(SubDExConfig().generator))


def _seen(db) -> SeenMaps:
    return SeenMaps(
        db.dimensions, n_attributes=len(tuple(db.grouping_attributes()))
    )


def _scatter(db, criteria, n_shards):
    """All shards' partial scans, one per shard (maximal scatter)."""
    specs = scan_specs(db, criteria)
    record_shards = ShardMap(n_shards).record_shards(db)
    partials = [
        partial_scan(db, criteria, specs, record_shards, [shard])
        for shard in range(n_shards)
    ]
    return specs, partials


@pytest.fixture(scope="module")
def sparse_db(db_factory):
    """Missing categorical/numeric values, NaN scores, empty cuisine sets."""
    return db_factory(seed=11, missing=0.35, name="sparse")


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("criteria", CRITERIA)
def test_merged_counts_equal_full_scan(sparse_db, criteria, n_shards):
    db = sparse_db
    specs, partials = _scatter(db, criteria, n_shards)
    rows = RatingGroup(db, criteria).rows
    group_size, totals = merge_scans(partials, len(specs))
    assert group_size == int(rows.size)
    for spec, total, full in zip(specs, totals, direct_counts(db, specs, rows)):
        np.testing.assert_array_equal(total, full)


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
@pytest.mark.parametrize("criteria", CRITERIA)
def test_merged_result_fingerprint_matches_generate(
    sparse_db, criteria, n_shards
):
    db = sparse_db
    specs, partials = _scatter(db, criteria, n_shards)
    merged = result_from_scans(_generator(), db, criteria, specs, partials)
    full = _generator().generate(RatingGroup(db, criteria), _seen(db))
    assert result_fingerprint(merged) == result_fingerprint(full)


def test_empty_partitions_merge_as_identity(sparse_db):
    """More shards than reviewers: many partials carry all-zero matrices."""
    db = sparse_db
    criteria = SelectionCriteria.root()
    specs, partials = _scatter(db, criteria, 200)
    assert any(p.group_size == 0 for p in partials)
    merged = result_from_scans(_generator(), db, criteria, specs, partials)
    full = _generator().generate(RatingGroup(db, criteria), _seen(db))
    assert result_fingerprint(merged) == result_fingerprint(full)


def test_worker_style_uneven_split(sparse_db):
    """Shards grouped per worker (the supervisor's assignment) merge the same."""
    db = sparse_db
    criteria = SelectionCriteria.of(reviewer={"gender": "F"})
    specs = scan_specs(db, criteria)
    shard_map = ShardMap(7)
    record_shards = shard_map.record_shards(db)
    partials = [
        partial_scan(
            db, criteria, specs, record_shards, shard_map.owned_shards(w, 3)
        )
        for w in range(3)
    ]
    merged = result_from_scans(_generator(), db, criteria, specs, partials)
    full = _generator().generate(RatingGroup(db, criteria), _seen(db))
    assert result_fingerprint(merged) == result_fingerprint(full)


def test_equivalence_across_shared_memory_attach(sparse_db):
    """Partials scanned on an attached (zero-copy) database merge to the
    same bytes as a full scan of the original — the cross-process path."""
    db = sparse_db
    owner, attacher = SegmentRegistry(), SegmentRegistry()
    try:
        attached = attach_database(share_database(db, owner), attacher)
        criteria = SelectionCriteria.of(item={"city": "Austin"})
        specs = scan_specs(attached, criteria)
        record_shards = ShardMap(5).record_shards(attached)
        partials = [
            partial_scan(attached, criteria, specs, record_shards, [shard])
            for shard in range(5)
        ]
        merged = result_from_scans(
            _generator(), attached, criteria, specs, partials
        )
        full = _generator().generate(RatingGroup(db, criteria), _seen(db))
        assert result_fingerprint(merged) == result_fingerprint(full)
    finally:
        attacher.close_attached()
        owner.unlink_all()


def test_merge_rejects_mismatched_spec_count(sparse_db):
    db = sparse_db
    criteria = SelectionCriteria.root()
    specs, partials = _scatter(db, criteria, 2)
    with pytest.raises(ValueError):
        merge_scans(partials, len(specs) + 1)


def test_merge_of_nothing_is_empty():
    group_size, totals = merge_scans([], 0)
    assert group_size == 0 and totals == ()


def test_partial_scan_with_no_shards_is_empty(sparse_db):
    db = sparse_db
    criteria = SelectionCriteria.root()
    specs = scan_specs(db, criteria)
    record_shards = ShardMap(4).record_shards(db)
    partial = partial_scan(db, criteria, specs, record_shards, [])
    assert partial.group_size == 0
    assert all(not counts.any() for counts in partial.counts)
