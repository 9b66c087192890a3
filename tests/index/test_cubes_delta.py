"""Cube slices and delta-maintained histograms against direct scans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rating_maps import enumerate_map_specs
from repro.db.groupby import group_histograms
from repro.db.types import ColumnType
from repro.index.cubes import StepSlices, axis_for
from repro.index.delta import (
    delta_counts,
    direct_counts,
    prefer_delta,
    split_rows,
)
from repro.model.database import Side
from repro.model.groups import AVPair, RatingGroup, SelectionCriteria


def _scan(db, spec, rows):
    """Per-spec reference histogram: one masked bincount of ``rows``."""
    grouping = db.aligned_grouping(spec.side, spec.attribute)
    return group_histograms(
        grouping.codes,
        grouping.n_groups,
        db.dimension_scores(spec.dimension),
        db.scale,
        rows=rows,
    )


def _parent_rows(db, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random(db.n_ratings) < 0.7
    return np.flatnonzero(mask).astype(np.int64)


@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
def test_fused_counts_equal_per_spec_scans(fixture, request):
    db = request.getfixturevalue(fixture)
    rows = _parent_rows(db)
    specs = tuple(enumerate_map_specs(db, SelectionCriteria.root()))
    for spec, fused in zip(specs, direct_counts(db, specs, rows)):
        np.testing.assert_array_equal(fused, _scan(db, spec, rows))


@pytest.mark.parametrize("fixture", ["clean_db", "sparse_db"])
@pytest.mark.parametrize(
    "side,attribute",
    [(Side.REVIEWER, "gender"), (Side.REVIEWER, "age"), (Side.ITEM, "city")],
)
def test_cube_slices_equal_per_value_scans(fixture, side, attribute, request):
    """Every value's (n_groups, scale) slice == a scan of that child's rows."""
    db = request.getfixturevalue(fixture)
    rows = _parent_rows(db, seed=1)
    axis = axis_for(db, side, attribute)
    assert axis is not None
    slices = StepSlices(db, rows)
    specs = [
        s
        for s in enumerate_map_specs(db, SelectionCriteria.root())
        if not (s.side is side and s.attribute == attribute)
    ]
    grouping = db.aligned_grouping(side, attribute)
    sizes = slices.sizes(side, attribute)
    for code, label in enumerate(axis.labels):
        child_rows = rows[grouping.codes[rows] == code]
        assert sizes[code] == child_rows.size
        assert axis.code_of(label) == code
        for spec, fused in zip(specs, direct_counts(db, specs, child_rows)):
            np.testing.assert_array_equal(
                slices.cube_slice((side, attribute), spec)[code], fused
            )


def test_multi_valued_attribute_has_no_axis(clean_db):
    assert axis_for(clean_db, Side.ITEM, "cuisine") is None
    assert (
        clean_db.entity_table(Side.ITEM).column("cuisine").type
        is ColumnType.MULTI_VALUED
    )


def test_pair_hist_shared_across_orientations(clean_db):
    slices = StepSlices(clean_db, _parent_rows(clean_db))
    a, b = (Side.REVIEWER, "gender"), (Side.ITEM, "city")
    forward = slices.pair_hist(a, b, "overall")
    backward = slices.pair_hist(b, a, "overall")
    np.testing.assert_array_equal(forward, backward.transpose(1, 0, 2))
    assert slices.pair_builds == 1


def test_empty_parent_rows_yield_zero_histograms(clean_db):
    empty = np.empty(0, dtype=np.int64)
    slices = StepSlices(clean_db, empty)
    specs = tuple(enumerate_map_specs(clean_db, SelectionCriteria.root()))
    assert all(counts.sum() == 0 for counts in direct_counts(clean_db, specs, empty))
    assert slices.sizes(Side.REVIEWER, "gender").sum() == 0


def test_delta_counts_equal_direct(clean_db):
    db = clean_db
    parent = RatingGroup(
        db, SelectionCriteria((AVPair(Side.REVIEWER, "gender", "F"),))
    )
    # a CHANGE sibling: overlaps the parent on the item side only
    child = RatingGroup(
        db,
        SelectionCriteria(
            (AVPair(Side.REVIEWER, "gender", "M"),)
        ),
    )
    removed, added = split_rows(parent.rows, child.rows)
    assert prefer_delta(removed, added, child.rows.size) in (True, False)
    specs = tuple(enumerate_map_specs(db, SelectionCriteria.root()))
    parent_counts = [_scan(db, spec, parent.rows) for spec in specs]
    for spec, delta in zip(
        specs, delta_counts(db, specs, parent_counts, removed, added)
    ):
        np.testing.assert_array_equal(delta, _scan(db, spec, child.rows))
