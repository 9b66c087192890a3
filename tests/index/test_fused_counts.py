"""Property test: the fused multi-spec counts equal per-spec scans.

One hypothesis strategy draws a small subjective database — missing
categorical and numeric values, multi-valued sets (empty ones included),
NaN, infinite, fractional and out-of-scale scores, any scale and number of
dimensions — plus a row subset.  ``direct_counts`` and ``delta_counts``,
which count every spec of a row set in one fused pass, must return for
each spec exactly the matrix a masked per-spec ``group_histograms`` scan
returns.  Every example also checks the empty and single-row sets and the
full row set; the strategy keeps the item table small enough that the full
row set takes the entity-aggregated branch on the item side, while a
single row always takes the row-level branch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SubjectiveDatabase
from repro.core.rating_maps import enumerate_map_specs
from repro.db import Table
from repro.db.groupby import group_histograms
from repro.index.delta import delta_counts, direct_counts, split_rows
from repro.model.groups import SelectionCriteria

GENRES = ("Pizza", "Sushi", "Tacos")


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


@st.composite
def fused_cases(draw):
    """A small database and a sorted row subset of its rating records."""
    scale = draw(st.integers(2, 5))
    n_dims = draw(st.integers(1, 3))
    n_users = draw(st.integers(1, 8))
    n_items = draw(st.integers(1, 3))
    width = n_dims * (scale + 1)
    # at least one item-side entity bincount's worth of rows
    n_ratings = draw(st.integers(n_items * width, n_items * width + 40))

    def column(values, n):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    users = Table.from_columns(
        {
            "user_id": list(range(n_users)),
            "gender": column(["M", "F", None], n_users),
            "age": column([18, 30, 65, None], n_users),
        },
        explorable={"user_id": False},
    )
    genre_sets = [frozenset()] + [frozenset({g}) for g in GENRES] + [
        frozenset(GENRES[:2])
    ]
    items = Table.from_columns(
        {
            "item_id": list(range(n_items)),
            "city": column(["NYC", "Reno", None], n_items),
            "cuisine": column(genre_sets, n_items),
        },
        explorable={"item_id": False},
    )
    scores = [float(v) for v in range(1, scale + 1)] + [
        0.0,
        scale + 1.0,
        1.5,
        -2.0,
        np.nan,
        np.inf,
    ]
    dims = tuple(f"d{i}" for i in range(n_dims))
    ratings = Table.from_columns(
        {
            "user_id": column(list(range(n_users)), n_ratings),
            "item_id": column(list(range(n_items)), n_ratings),
            **{dim: column(scores, n_ratings) for dim in dims},
        },
        explorable={"user_id": False, "item_id": False},
    )
    db = SubjectiveDatabase(users, items, ratings, dims, scale=scale)
    rows = draw(
        st.lists(st.integers(0, n_ratings - 1), unique=True, max_size=n_ratings)
    )
    return db, np.array(sorted(rows), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(fused_cases())
def test_direct_counts_equal_per_spec_scans(case):
    db, subset = case
    specs = tuple(enumerate_map_specs(db, SelectionCriteria.root()))
    row_sets = (
        subset,
        np.empty(0, dtype=np.int64),
        np.array([db.n_ratings - 1], dtype=np.int64),
        np.arange(db.n_ratings, dtype=np.int64),
    )
    for rows in row_sets:
        fused = direct_counts(db, specs, rows)
        assert len(fused) == len(specs)
        for spec, counts in zip(specs, fused):
            expected = _scan(db, spec, rows)
            assert counts.dtype == expected.dtype
            np.testing.assert_array_equal(counts, expected)


@settings(max_examples=60, deadline=None)
@given(fused_cases())
def test_delta_counts_equal_per_spec_scans(case):
    db, child = case
    specs = tuple(enumerate_map_specs(db, SelectionCriteria.root()))
    parent = np.arange(0, db.n_ratings, 2, dtype=np.int64)
    removed, added = split_rows(parent, child)
    parent_counts = [_scan(db, spec, parent) for spec in specs]
    for spec, counts in zip(
        specs, delta_counts(db, specs, parent_counts, removed, added)
    ):
        np.testing.assert_array_equal(counts, _scan(db, spec, child))
