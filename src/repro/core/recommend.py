"""Recommendation Builder: next-step recommendations (Problem 2, paper §4.3).

Candidate operations are the ≤-2-edit neighbourhood of the current selection
criteria.  Each candidate is scored by Eq. (2): the sum of the DW utilities
of the k rating maps its rating group would display — i.e. the RM-Set
Generator is reused as the scoring oracle, which is exactly how the paper
recommends maps and operations *simultaneously*.

Scoring independent candidates is embarrassingly parallel; the builder
evaluates them on a thread pool (the histogram accumulation is numpy-bound
and releases the GIL).  ``parallel=False`` gives the paper's No-Parallelism
baseline.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle: index builds on core
    from ..index.facade import IndexedDatabase, NeighborhoodContext

from ..anytime.budget import effective_deadline
from ..anytime.ladder import QualityRung, RungPlan
from ..anytime.partial import AnytimeRecommendation, Completeness
from ..batch.scoring import (
    BatchScored,
    FamilyBatchScorer,
    FamilyPlan,
    plan_lookup,
    plan_units,
    supports_batch,
)
from ..model.database import SubjectiveDatabase
from ..model.groups import RatingGroup, SelectionCriteria
from ..model.operations import Operation, enumerate_operations
from ..obs import activate as obs_activate
from ..obs import current_context as obs_current_context
from ..obs import span as obs_span
from ..resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from ..resilience.gate import pressure_scope, under_pressure
from .generator import RMSetGenerator, RMSetResult
from .pruning import PruningStrategy
from .utility import SeenMaps

__all__ = [
    "ANYTIME_CHUNK",
    "RecommenderConfig",
    "ScoredOperation",
    "RecommendationBuilder",
]

#: Candidates per anytime chunk: snapshot boundaries and budget-cut points
#: fall every this many candidates, independent of the host.
ANYTIME_CHUNK = 2


@dataclass(frozen=True)
class RecommenderConfig:
    """Parameters of the Recommendation Builder.

    ``o`` is the number of recommendations (paper default 3);
    ``max_values_per_attribute`` caps the FILTER/CHANGE fan-out per
    attribute (most frequent values first); ``min_group_size`` discards
    operations whose rating group is too small to chart.

    ``preview_uses_full_pipeline`` controls how candidate operations are
    scored.  By default each candidate's rating maps are computed with a
    single exact pass (``preview_n_phases`` = 1, no pruning): the phased
    pruning framework exists to cut *scan* cost, but for in-memory
    candidate scoring a single vectorised pass is both faster and exact.
    The scalability benches set ``preview_uses_full_pipeline=True`` so the
    recommender exercises the configured pruning scheme end to end, as the
    paper's timing experiments do.
    """

    o: int = 3
    max_values_per_attribute: int | None = None
    include_compound: bool = False
    min_group_size: int = 5
    parallel: bool = True
    max_workers: int | None = None
    preview_uses_full_pipeline: bool = False
    preview_n_phases: int = 1
    #: Under load pressure (see :mod:`repro.resilience.gate`) only the
    #: first this-many candidate operations are scored — recommendation
    #: quality degrades before availability does.
    pressure_candidate_cap: int = 16

    def workers(self) -> int:
        if not self.parallel:
            return 1
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ScoredOperation:
    """A candidate operation with its Eq.-(2) utility and map preview."""

    operation: Operation
    utility: float
    preview: RMSetResult

    @property
    def target(self) -> SelectionCriteria:
        return self.operation.target

    def describe(self) -> str:
        return f"{self.operation.describe()}  [u={self.utility:.3f}]"


class RecommendationBuilder:
    """Scores the operation neighbourhood and returns the top-o."""

    def __init__(
        self,
        database: SubjectiveDatabase,
        generator: RMSetGenerator,
        config: RecommenderConfig | None = None,
        index: "IndexedDatabase | None" = None,
        batch_scoring: bool = True,
    ) -> None:
        self._database = database
        self._generator = generator
        self._config = config or RecommenderConfig()
        self._index = index
        self._batch_scoring = bool(batch_scoring)
        if self._config.preview_uses_full_pipeline:
            self._preview_generator = generator
        else:
            self._preview_generator = RMSetGenerator(
                replace(
                    generator.config,
                    n_phases=max(1, self._config.preview_n_phases),
                    pruning=PruningStrategy.NONE,
                )
            )
        # shared scoring pool: created once on first parallel request and
        # reused for the builder's lifetime (no per-request thread churn)
        self._pool_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._batch_lock = threading.Lock()
        self._batch_totals = {
            "requests": 0,
            "families": 0,
            "candidates": 0,
            "batched": 0,
            "scored": 0,
            "evaluated": 0,
            "pruned": 0,
            "materialized": 0,
            "fallback": 0,
        }

    @property
    def config(self) -> RecommenderConfig:
        return self._config

    @property
    def batch_scoring(self) -> bool:
        """Whether family-batched scoring is enabled for this builder."""
        return self._batch_scoring

    def batch_stats(self) -> dict[str, int]:
        """Lifetime family-batching counters (for ``/metrics``)."""
        with self._batch_lock:
            return dict(self._batch_totals)

    def _merge_batch_stats(self, stats: "dict[str, int]", fallback: int) -> None:
        with self._batch_lock:
            self._batch_totals["requests"] += 1
            self._batch_totals["fallback"] += fallback
            for key in ("families", "candidates", "batched", "scored",
                        "evaluated", "pruned", "materialized"):
                self._batch_totals[key] += stats[key]

    def _shared_pool(self) -> "ThreadPoolExecutor | None":
        """The builder-lifetime scoring pool (``None`` when serial)."""
        workers = self._config.workers()
        if workers <= 1:
            return None
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="subdex-score"
                )
            return self._executor

    def _use_batch(self, ctx: "NeighborhoodContext | None") -> bool:
        """Family batching needs the index context and a kernel-covered config."""
        return (
            ctx is not None
            and self._batch_scoring
            and supports_batch(self._preview_generator.config)
        )

    def candidate_operations(self, current: SelectionCriteria) -> list[Operation]:
        """The enumerated (unscored) neighbourhood of ``current``."""
        return list(
            enumerate_operations(
                self._database,
                current,
                max_values_per_attribute=self._config.max_values_per_attribute,
                include_compound=self._config.include_compound,
            )
        )

    def _materialise(self, criteria: SelectionCriteria) -> RatingGroup:
        """A criteria's rating group, via the index when one is attached."""
        if self._index is not None:
            return self._index.group(criteria)
        return RatingGroup(self._database, criteria)

    def _score_one(
        self,
        operation: Operation,
        seen: SeenMaps,
        current_rows: "np.ndarray | None" = None,
        generator: RMSetGenerator | None = None,
    ) -> ScoredOperation | None:
        group = self._materialise(operation.target)
        if len(group) < self._config.min_group_size:
            return None
        if current_rows is not None and len(group) == len(current_rows):
            # §3.2.1: an operation generates a *new* rating group — adding a
            # redundant pair (1992 ⊆ 1990s) selects the same records and is
            # not a real move (it also causes add/remove oscillation in FA)
            if np.array_equal(group.rows, current_rows):
                return None
        preview = (generator or self._preview_generator).generate(group, seen)
        if not preview.selected:
            return None
        return ScoredOperation(operation, preview.total_utility(), preview)

    def _score_one_indexed(
        self,
        ctx: "NeighborhoodContext",
        operation: Operation,
        seen: SeenMaps,
        generator: RMSetGenerator | None = None,
    ) -> ScoredOperation | None:
        """Score from sufficient statistics — no group materialisation.

        Mirrors :meth:`_score_one` decision for decision: same size gate,
        same redundancy test (a FILTER child is a subset of the parent, so
        its size alone settles row equality), and the preview is generated
        from count matrices identical to what the naive scan produces.
        """
        view = ctx.candidate(operation)
        size = view.size
        if size < self._config.min_group_size:
            return None
        if view.matches_parent(ctx.parent_size):
            return None
        preview = (generator or self._preview_generator).generate_from_counts(
            operation.target,
            view.specs,
            view.counts_of,
            view.labels_of,
            size,
            seen,
        )
        if not preview.selected:
            return None
        return ScoredOperation(operation, preview.total_utility(), preview)

    def recommend(
        self,
        current: SelectionCriteria,
        seen: SeenMaps,
        o: int | None = None,
        candidates: Sequence[Operation] | None = None,
        exclude_targets: "set[SelectionCriteria] | frozenset[SelectionCriteria] | None" = None,
        current_group: RatingGroup | None = None,
    ) -> list[ScoredOperation]:
        """Problem 2: the top-o next operations by aggregated DW utility.

        ``exclude_targets`` drops candidates leading back to selections the
        session has already examined — the operation-level counterpart of
        multi-step diversity.  Without it, two selections whose map sets
        tie in utility trap the Fully-Automated mode in an A↔B cycle.

        ``current_group`` lets callers that already hold the current
        selection's rating group (sessions, the caching engine) pass it in
        instead of having it re-materialised here; it is used only when its
        criteria matches ``current``.
        """
        o = self._config.o if o is None else o
        with obs_span("engine.recommend") as sp:
            operations = (
                list(candidates)
                if candidates is not None
                else self.candidate_operations(current)
            )
            if exclude_targets:
                filtered = [
                    op for op in operations if op.target not in exclude_targets
                ]
                if filtered:
                    operations = filtered
            # Ambient request context (deadline, load pressure, active trace)
            # lives in contextvars, which worker threads do not inherit:
            # capture it here and re-install it around every pooled scoring
            # call so candidate spans join this request's trace.
            deadline = current_deadline()
            pressure = under_pressure()
            trace_ctx = obs_current_context()
            if pressure:
                operations = operations[: self._config.pressure_candidate_cap]
            if current_group is None or current_group.criteria != current:
                current_group = self._materialise(current)
            current_rows = current_group.rows
            # Sufficient-statistic fast path: candidates are scored from fused
            # cube slices / delta-maintained histograms instead of per-candidate
            # group scans.  The full-pipeline preview mode exercises the phased
            # pruning machinery on purpose, so it keeps the group-based path.
            ctx: "NeighborhoodContext | None" = None
            if self._index is not None and not self._config.preview_uses_full_pipeline:
                ctx = self._index.neighborhood(current_group)

            def score(operation: Operation) -> ScoredOperation | None:
                with deadline_scope(deadline), pressure_scope(pressure), \
                        obs_activate(trace_ctx):
                    if deadline is not None:
                        deadline.check()
                    if ctx is not None:
                        return self._score_one_indexed(ctx, operation, seen)
                    return self._score_one(operation, seen, current_rows)

            workers = self._config.workers()
            use_batch = self._use_batch(ctx)
            pool = (
                self._shared_pool()
                if workers > 1 and len(operations) > 1
                else None
            )
            if use_batch:
                batch = FamilyBatchScorer(
                    ctx, self._config, self._preview_generator, seen, o
                )
                units = plan_units(ctx, operations, workers)
                families = [u for u in units if isinstance(u, FamilyPlan)]
                residue = [
                    op
                    for u in units
                    if not isinstance(u, FamilyPlan)
                    for op in u
                ]

                def prep_rows(operation: Operation):
                    with deadline_scope(deadline), pressure_scope(pressure), \
                            obs_activate(trace_ctx):
                        if deadline is not None:
                            deadline.check()
                        return batch.prepare_rows(operation)

                if pool is not None and len(residue) > 1:
                    rows_ready = list(pool.map(prep_rows, residue))
                else:
                    rows_ready = [prep_rows(op) for op in residue]
                prepared = [ready for ready in rows_ready if ready is not None]
                for family in families:
                    if deadline is not None:
                        deadline.check()
                    ready = batch.prepare_family(family)
                    if ready is not None:
                        prepared.append(ready)
                scored_count = sum(ready.n_scored for ready in prepared)
                # one request-global queue: evaluate best-bound-first across
                # all families and residue candidates, prune the tail in a
                # single cut
                scored = list(batch.finalize_prepared(prepared))
            else:
                if pool is not None:
                    scored = list(pool.map(score, operations))
                else:
                    scored = [score(op) for op in operations]
                scored_count = sum(1 for s in scored if s is not None)
            ranked = self._rank(scored)
            top = self._materialize_top(ranked, o)
            if use_batch:
                self._merge_batch_stats(
                    batch.stats,
                    fallback=len(operations) - batch.stats["candidates"],
                )
            sp.set(
                candidates=len(operations),
                scored=scored_count,
                indexed=ctx is not None,
                batched=use_batch,
                returned=len(top),
            )
            return top

    # -- anytime --------------------------------------------------------------
    def _preview_for(self, plan: "RungPlan | None") -> RMSetGenerator:
        """The preview generator a ladder rung prescribes.

        ``preview_phases`` applies everywhere; a ``pruning`` override only
        makes sense when previews run the full phased pipeline (the exact
        single-pass preview has nothing to prune).
        """
        if plan is None:
            return self._preview_generator
        base = self._preview_generator.config
        changes: dict[str, object] = {}
        if plan.preview_phases is not None and base.n_phases != plan.preview_phases:
            changes["n_phases"] = max(1, plan.preview_phases)
        if plan.pruning is not None and self._config.preview_uses_full_pipeline:
            strategy = PruningStrategy(plan.pruning)
            if base.pruning is not strategy:
                changes["pruning"] = strategy
        if not changes:
            return self._preview_generator
        return RMSetGenerator(replace(base, **changes))

    def recommend_anytime(
        self,
        current: SelectionCriteria,
        seen: SeenMaps,
        budget: "Deadline | None" = None,
        o: int | None = None,
        plan: "RungPlan | None" = None,
        candidates: Sequence[Operation] | None = None,
        exclude_targets: "set[SelectionCriteria] | frozenset[SelectionCriteria] | None" = None,
        current_group: RatingGroup | None = None,
        force_cut_after: int | None = None,
        on_snapshot: "Callable[[list[ScoredOperation]], None] | None" = None,
    ) -> AnytimeRecommendation:
        """Cooperative-anytime Problem 2: best-so-far under a soft budget.

        The candidate loop runs in chunks of :data:`ANYTIME_CHUNK`
        candidates (never the host's CPU count, so cut points and partial
        answers are the same on every machine); between chunks the
        best-so-far ranking is a well-defined snapshot (``on_snapshot``
        observes each one).  When ``budget`` — a *soft* limit, distinct
        from the ambient hard deadline — expires, the loop cuts at the
        next boundary and returns a partial result with an honest
        :class:`~repro.anytime.partial.Completeness` instead of raising.
        The ambient hard deadline still unwinds with
        :class:`~repro.resilience.deadline.DeadlineExceeded` (a budget
        larger than the remaining deadline can never be honoured — the
        smaller limit always wins).

        ``plan`` applies a quality-ladder rung: a candidate cap, a sample
        stride and cheaper previews.  ``force_cut_after`` (from
        :meth:`~repro.resilience.faults.FaultPlan.budget_cut`) forces the
        cut after that many chunks, making partial-result paths testable
        without timing races.  With no budget, no plan and no forced cut
        the result is exactly :meth:`recommend`'s.
        """
        o = self._config.o if o is None else o
        started = time.perf_counter()
        hard = current_deadline()
        soft = effective_deadline(hard, budget)
        with obs_span(
            "anytime.recommend",
            rung=plan.label if plan is not None else QualityRung.FULL.label,
            budget_ms=(
                round(budget.budget_seconds * 1000.0) if budget is not None else None
            ),
        ) as sp:
            operations = (
                list(candidates)
                if candidates is not None
                else self.candidate_operations(current)
            )
            if exclude_targets:
                filtered = [
                    op for op in operations if op.target not in exclude_targets
                ]
                if filtered:
                    operations = filtered
            pressure = under_pressure()
            trace_ctx = obs_current_context()
            if pressure:
                operations = operations[: self._config.pressure_candidate_cap]
            total = len(operations)
            if plan is not None:
                if plan.candidate_cap is not None:
                    operations = operations[: plan.candidate_cap]
                if plan.sample_stride > 1:
                    operations = operations[:: plan.sample_stride]
            if current_group is None or current_group.criteria != current:
                current_group = self._materialise(current)
            current_rows = current_group.rows
            preview = self._preview_for(plan)
            ctx: "NeighborhoodContext | None" = None
            if self._index is not None and not self._config.preview_uses_full_pipeline:
                ctx = self._index.neighborhood(current_group)

            def score(operation: Operation) -> "ScoredOperation | None":
                # the *soft* limit governs scoring so a spent budget aborts
                # the in-flight preview quickly; the cut decision below
                # distinguishes it from the hard deadline
                with deadline_scope(soft), pressure_scope(pressure), \
                        obs_activate(trace_ctx):
                    if soft is not None:
                        soft.check()
                    if ctx is not None:
                        return self._score_one_indexed(
                            ctx, operation, seen, preview
                        )
                    return self._score_one(
                        operation, seen, current_rows, preview
                    )

            workers = self._config.workers()
            chunk = ANYTIME_CHUNK
            use_batch = self._use_batch(ctx)
            batch: "FamilyBatchScorer | None" = None
            lookup: "dict[int, tuple[FamilyPlan, int] | None] | None" = None
            if use_batch:
                batch = FamilyBatchScorer(
                    ctx, self._config, preview, seen, o
                )
                # candidates keep their scan order (so snapshot and
                # budget-cut boundaries match the per-candidate path);
                # the lookup batches the arithmetic by family lazily
                lookup = plan_lookup(ctx, operations)
            units = [
                operations[offset : offset + chunk]
                for offset in range(0, len(operations), chunk)
            ]
            scored: list[ScoredOperation | None] = []
            scanned = 0
            scored_count = 0
            snapshots = 0
            budget_cut = False
            pool = (
                self._shared_pool()
                if workers > 1 and len(operations) > 1
                else None
            )
            for unit in units:
                if hard is not None:
                    hard.check()
                if force_cut_after is not None and snapshots >= force_cut_after:
                    budget_cut = True
                    break
                if budget is not None and budget.expired:
                    budget_cut = True
                    break
                try:
                    if batch is not None:
                        # the batch scorer checks the soft limit between
                        # spec stacks and evaluations
                        with deadline_scope(soft), pressure_scope(pressure), \
                                obs_activate(trace_ctx):
                            block_scored, block_count = (
                                batch.score_scan_block(unit, lookup)
                            )
                    else:
                        if pool is not None and len(unit) > 1:
                            block_scored = list(pool.map(score, unit))
                        else:
                            block_scored = [score(op) for op in unit]
                        block_count = sum(
                            1 for result in block_scored if result is not None
                        )
                except DeadlineExceeded:
                    if hard is not None and hard.expired:
                        raise  # the hard deadline, not the budget
                    budget_cut = True
                    break
                scored.extend(block_scored)
                scanned += len(unit)
                scored_count += block_count
                snapshots += 1
                if on_snapshot is not None:
                    on_snapshot(
                        self._materialize_top(self._rank(scored), o)
                    )
            ranked = self._rank(scored)
            top = tuple(self._materialize_top(ranked, o))
            if batch is not None:
                self._merge_batch_stats(
                    batch.stats,
                    fallback=scanned - batch.stats["candidates"],
                )
            confidence = 1.0
            if preview.config.pruning is not PruningStrategy.NONE:
                confidence = 1.0 - preview.config.delta
            completeness = Completeness(
                rung=plan.rung if plan is not None else QualityRung.FULL,
                candidates_total=total,
                candidates_scanned=scanned,
                candidates_scored=scored_count,
                complete=not budget_cut and scanned == total,
                pruning_confidence=confidence,
                snapshots=snapshots,
                budget_cut=budget_cut,
            )
            sp.set(
                candidates=total,
                scanned=scanned,
                complete=completeness.complete,
                batched=use_batch,
                snapshots=snapshots,
            )
            return AnytimeRecommendation(
                recommendations=top,
                completeness=completeness,
                elapsed_seconds=time.perf_counter() - started,
            )

    @staticmethod
    def _rank(
        scored: "Sequence[ScoredOperation | BatchScored | None]",
    ) -> "list[ScoredOperation | BatchScored]":
        # describe_key memoises target.describe(): anytime re-ranks after
        # every chunk, so the tie-break string is built once per operation
        return sorted(
            (s for s in scored if s is not None),
            key=lambda s: (-s.utility, s.operation.describe_key),
        )

    @staticmethod
    def _materialize_top(
        ranked: "Sequence[ScoredOperation | BatchScored]", o: int
    ) -> "list[ScoredOperation]":
        """The top-o with previews built — batch entries materialise here.

        Batch-scored candidates carry an exact utility but a lazy preview;
        only entries that actually make a returned top-o (or an anytime
        snapshot) pay for ``generate_from_counts``.  Materialisation is
        cached on the entry, so repeated snapshots re-use it.
        """
        top: "list[ScoredOperation]" = []
        for entry in ranked:
            if len(top) >= o:
                break
            if isinstance(entry, BatchScored):
                final = entry.materialize()
                if final is None:  # pragma: no cover - pool ⇒ selected
                    continue
                top.append(final)
            else:
                top.append(entry)
        return top
