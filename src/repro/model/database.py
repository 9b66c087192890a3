"""The subjective database ⟨I, U, R⟩ (paper §3.1).

A :class:`SubjectiveDatabase` bundles three tables — items, reviewers
(users) and rating records — plus the rating-dimension metadata.  It
precomputes the alignment between rating records and the reviewer/item rows
they reference, so that grouping rating records by *any* reviewer or item
attribute is a cached O(1) lookup of pre-built grouping codes (this is what
makes the phased generator fast).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from ..db.catalog import Catalog
from ..db.groupby import Grouping, build_grouping
from ..db.table import Table
from ..exceptions import SchemaError

__all__ = ["Side", "SubjectiveDatabase"]


class Side(str, Enum):
    """Which entity a group description / attribute refers to."""

    REVIEWER = "reviewer"
    ITEM = "item"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _id_to_row(ids: np.ndarray, name: str) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for row, value in enumerate(ids):
        key = int(value)
        if key in mapping:
            raise SchemaError(f"duplicate {name} id {key}")
        mapping[key] = row
    return mapping


@dataclass(frozen=True)
class _Alignment:
    """Per-rating-record row indices into the reviewer and item tables."""

    user_rows: np.ndarray
    item_rows: np.ndarray


class SubjectiveDatabase:
    """An immutable subjective database ⟨I, U, R⟩.

    Parameters
    ----------
    reviewers, items:
        Entity tables.  Each must contain the respective key column.
    ratings:
        The rating-record table: one key column per side plus one numeric
        column per rating dimension, scored on the integer scale ``1..scale``.
    dimensions:
        Ordered rating-dimension column names (``r_1 .. r_t``).
    scale:
        The rating scale ``m`` (default 5).
    user_key, item_key:
        Key column names (defaults ``"user_id"`` / ``"item_id"``).
    name:
        Optional dataset name for display.
    """

    def __init__(
        self,
        reviewers: Table,
        items: Table,
        ratings: Table,
        dimensions: tuple[str, ...] | list[str],
        scale: int = 5,
        user_key: str = "user_id",
        item_key: str = "item_id",
        name: str = "subjective-db",
        alignment: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if not dimensions:
            raise SchemaError("at least one rating dimension is required")
        for dim in dimensions:
            if not ratings.has_column(dim):
                raise SchemaError(f"rating table lacks dimension column {dim!r}")
        for key, table, label in (
            (user_key, reviewers, "reviewer"),
            (item_key, items, "item"),
        ):
            if not table.has_column(key):
                raise SchemaError(f"{label} table lacks key column {key!r}")
            if not ratings.has_column(key):
                raise SchemaError(f"rating table lacks key column {key!r}")
        if scale < 2:
            raise SchemaError(f"rating scale must be >= 2, got {scale}")

        self._reviewers = reviewers
        self._items = items
        self._ratings = ratings
        self._dimensions = tuple(dimensions)
        self._scale = int(scale)
        self._user_key = user_key
        self._item_key = item_key
        self._name = name

        if alignment is not None:
            # Trusted precomputed alignment (e.g. a worker process attaching
            # shared-memory columns exported by an already-validated
            # database): skip the per-record id-resolution loops.
            user_rows = np.asarray(alignment[0], dtype=np.int64)
            item_rows = np.asarray(alignment[1], dtype=np.int64)
            n = len(ratings)
            if len(user_rows) != n or len(item_rows) != n:
                raise SchemaError(
                    f"alignment length mismatch: {len(user_rows)}/"
                    f"{len(item_rows)} rows for {n} rating records"
                )
        else:
            user_ids = reviewers.numeric(user_key).astype(np.int64)
            item_ids = items.numeric(item_key).astype(np.int64)
            user_map = _id_to_row(user_ids, "reviewer")
            item_map = _id_to_row(item_ids, "item")
            r_users = ratings.numeric(user_key).astype(np.int64)
            r_items = ratings.numeric(item_key).astype(np.int64)
            try:
                user_rows = np.fromiter(
                    (user_map[int(u)] for u in r_users),
                    dtype=np.int64,
                    count=len(r_users),
                )
                item_rows = np.fromiter(
                    (item_map[int(i)] for i in r_items),
                    dtype=np.int64,
                    count=len(r_items),
                )
            except KeyError as exc:
                raise SchemaError(
                    f"rating record references unknown id {exc}"
                ) from exc
        self._alignment = _Alignment(user_rows, item_rows)

        self._catalogs = {
            Side.REVIEWER: Catalog(reviewers),
            Side.ITEM: Catalog(items),
        }
        self._grouping_cache: dict[tuple[Side, str], Grouping] = {}
        self._entity_grouping_cache: dict[tuple[Side, str], Grouping] = {}
        self._score_cache: dict[str, np.ndarray] = {}
        self._buckets: np.ndarray | None = None
        self._buckets_lock = threading.Lock()

    # -- basic accessors ----------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def reviewers(self) -> Table:
        return self._reviewers

    @property
    def items(self) -> Table:
        return self._items

    @property
    def ratings(self) -> Table:
        return self._ratings

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self._dimensions

    @property
    def scale(self) -> int:
        return self._scale

    @property
    def n_ratings(self) -> int:
        return len(self._ratings)

    def key(self, side: Side) -> str:
        return self._user_key if side is Side.REVIEWER else self._item_key

    def entity_table(self, side: Side) -> Table:
        return self._reviewers if side is Side.REVIEWER else self._items

    def catalog(self, side: Side) -> Catalog:
        return self._catalogs[side]

    def explorable_attributes(self, side: Side) -> tuple[str, ...]:
        """Attributes usable in selections / group-bys, key excluded."""
        key = self.key(side)
        return tuple(
            a for a in self.entity_table(side).explorable_attributes if a != key
        )

    # -- alignment ----------------------------------------------------------
    def entity_rows_for_ratings(self, side: Side) -> np.ndarray:
        """For each rating record, the row index of its reviewer/item."""
        return (
            self._alignment.user_rows
            if side is Side.REVIEWER
            else self._alignment.item_rows
        )

    def rating_rows_for_entities(self, side: Side, entity_mask: np.ndarray) -> np.ndarray:
        """Boolean rating-record mask: records whose entity is in ``entity_mask``."""
        return entity_mask[self.entity_rows_for_ratings(side)]

    def aligned_grouping(self, side: Side, attribute: str) -> Grouping:
        """Grouping of *all* rating records by an entity attribute (cached).

        The codes array has one entry per rating record; a rating group over
        a subset of records simply indexes into it.
        """
        cache_key = (side, attribute)
        grouping = self._grouping_cache.get(cache_key)
        if grouping is None:
            entity_grouping = build_grouping(self.entity_table(side), attribute)
            codes = entity_grouping.codes[self.entity_rows_for_ratings(side)]
            grouping = Grouping(attribute, codes, entity_grouping.labels)
            self._grouping_cache[cache_key] = grouping
        return grouping

    def entity_grouping(self, side: Side, attribute: str) -> Grouping:
        """Grouping of the entity table itself by ``attribute`` (cached).

        The dictionary encoding :meth:`aligned_grouping` gathers through
        the alignment, so code ``c`` names the same label in both.  Only
        the entity-aggregated histogram paths ask for it, so it is cached
        apart from :meth:`aligned_grouping` (which would otherwise keep an
        entity-sized copy of every attribute's codes).
        """
        cache_key = (side, attribute)
        grouping = self._entity_grouping_cache.get(cache_key)
        if grouping is None:
            grouping = build_grouping(self.entity_table(side), attribute)
            self._entity_grouping_cache[cache_key] = grouping
        return grouping

    def bucket_matrix(self) -> np.ndarray:
        """Pre-bucketed scores: ``(n_ratings, n_dimensions)`` cell codes.

        Cell ``[r, d]`` holds ``d·(scale+1) + bucket`` where ``bucket`` is
        ``score - 1`` for a valid score (finite, within ``1..scale``) and
        the trash bucket ``scale`` otherwise, so a histogram pass needs no
        validity mask and one bincount keyed by ``code·D·(scale+1) + cell``
        covers every dimension.  Built once, on first use, by one thread;
        a cell takes one byte unless ``D·(scale+1)`` exceeds 256.
        """
        buckets = self._buckets
        if buckets is not None:
            return buckets
        with self._buckets_lock:
            if self._buckets is None:
                width = len(self._dimensions) * (self._scale + 1)
                built = np.empty(
                    (self.n_ratings, len(self._dimensions)),
                    dtype=np.min_scalar_type(width - 1),
                )
                for d, dimension in enumerate(self._dimensions):
                    scores = self.dimension_scores(dimension)
                    with np.errstate(invalid="ignore"):
                        valid = (
                            np.isfinite(scores)
                            & (scores >= 1)
                            & (scores <= self._scale)
                        )
                    bucket = np.where(valid, scores, self._scale + 1.0)
                    built[:, d] = bucket.astype(np.int64) + (
                        d * (self._scale + 1) - 1
                    )
                self._buckets = built
            return self._buckets

    def dimension_scores(self, dimension: str) -> np.ndarray:
        """Float scores of ``dimension`` for all rating records (cached)."""
        if dimension not in self._dimensions:
            raise SchemaError(f"unknown rating dimension {dimension!r}")
        scores = self._score_cache.get(dimension)
        if scores is None:
            scores = self._ratings.numeric(dimension)
            self._score_cache[dimension] = scores
        return scores

    def grouping_attributes(self) -> tuple[tuple[Side, str], ...]:
        """All (side, attribute) pairs usable to partition a rating group."""
        pairs: list[tuple[Side, str]] = []
        for side in (Side.REVIEWER, Side.ITEM):
            for attribute in self.explorable_attributes(side):
                pairs.append((side, attribute))
        return tuple(pairs)

    def restrict(
        self,
        reviewer_attributes: tuple[str, ...] | None = None,
        item_attributes: tuple[str, ...] | None = None,
    ) -> "SubjectiveDatabase":
        """A copy keeping only the named explorable attributes.

        Keys are always retained.  Used by the scalability benchmarks that
        vary the number of attributes (paper Fig. 10b).
        """

        def restricted(table: Table, keep: tuple[str, ...] | None, key: str) -> Table:
            if keep is None:
                return table
            names = [key] + [a for a in table.attribute_names if a in keep and a != key]
            return table.select(names)

        return SubjectiveDatabase(
            restricted(self._reviewers, reviewer_attributes, self._user_key),
            restricted(self._items, item_attributes, self._item_key),
            self._ratings,
            self._dimensions,
            self._scale,
            self._user_key,
            self._item_key,
            self._name,
        )

    def sample_reviewers(self, fraction: float, seed: int = 0) -> "SubjectiveDatabase":
        """Sub-database keeping a random ``fraction`` of reviewers.

        This is the paper's database-size workload (Fig. 10a): sample
        reviewers, keep each sampled reviewer's rating records, and keep the
        item table intact.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        rng = np.random.default_rng(seed)
        n_users = len(self._reviewers)
        keep = max(1, int(round(fraction * n_users)))
        chosen = np.sort(rng.choice(n_users, size=keep, replace=False))
        user_mask = np.zeros(n_users, dtype=bool)
        user_mask[chosen] = True
        rating_mask = self.rating_rows_for_entities(Side.REVIEWER, user_mask)
        return SubjectiveDatabase(
            self._reviewers.take(chosen),
            self._items,
            self._ratings.take(np.flatnonzero(rating_mask)),
            self._dimensions,
            self._scale,
            self._user_key,
            self._item_key,
            f"{self._name}[{fraction:.0%} reviewers]",
        )

    def summary(self) -> Mapping[str, object]:
        """Dataset statistics in the shape of the paper's Table 2."""
        n_attrs = len(self.explorable_attributes(Side.REVIEWER)) + len(
            self.explorable_attributes(Side.ITEM)
        )
        max_vals = 0
        for side in (Side.REVIEWER, Side.ITEM):
            for attr in self.explorable_attributes(side):
                max_vals = max(max_vals, self.catalog(side).domain(attr).cardinality)
        return {
            "dataset": self._name,
            "n_attributes": n_attrs,
            "max_values": max_vals,
            "n_dimensions": len(self._dimensions),
            "n_ratings": len(self._ratings),
            "n_reviewers": len(self._reviewers),
            "n_items": len(self._items),
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"SubjectiveDatabase({self._name}: |R|={s['n_ratings']}, "
            f"|U|={s['n_reviewers']}, |I|={s['n_items']}, "
            f"dims={list(self._dimensions)})"
        )
