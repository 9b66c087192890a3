"""Progressive (anytime) recommendation semantics against the full oracle.

Satellite 4: for every ladder rung the returned RM-set is a subset of
the full-run oracle universe with a completeness descriptor that tells
the truth — across databases with missing values and empty groups.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro import SubDEx, SubDExConfig
from repro.anytime import QualityLadder, QualityRung, budget_deadline
from repro.core.recommend import ANYTIME_CHUNK, RecommenderConfig

EVERYTHING = 10**6  # an o larger than any candidate universe here


def _engine(db) -> SubDEx:
    return SubDEx(
        db,
        SubDExConfig(recommender=RecommenderConfig(max_values_per_attribute=3)),
    )


def _keys(scored) -> list[tuple[str, float]]:
    return [(s.describe(), s.utility) for s in scored]


def _targets(scored) -> set[str]:
    return {s.operation.target.describe() for s in scored}


def _check_invariants(completeness) -> None:
    assert 0 <= completeness.candidates_scored <= completeness.candidates_scanned
    assert completeness.candidates_scanned <= completeness.candidates_total
    assert 0.0 <= completeness.fraction_scanned <= 1.0
    assert 0.0 < completeness.pruning_confidence <= 1.0
    assert completeness.complete == (
        completeness.candidates_scanned == completeness.candidates_total
        and not completeness.budget_cut
    )


# -- unbudgeted equivalence ---------------------------------------------------

def test_unbudgeted_run_matches_plain_recommendations(tiny_engine):
    session = tiny_engine.session()
    session.step(with_recommendations=False)
    plain = session.recommendations()
    result = session.recommendations_anytime()
    assert not result.is_partial
    assert result.completeness.rung is QualityRung.FULL
    assert result.completeness.complete
    assert not result.completeness.budget_cut
    assert _keys(result.recommendations) == _keys(plain)
    _check_invariants(result.completeness)


def test_unbudgeted_run_matches_stored_step_recommendations(tiny_engine):
    """Refinement jobs rely on this: a full recompute == the stored answer."""
    session = tiny_engine.session()
    record = session.step(with_recommendations=True)
    result = session.recommendations_anytime()
    assert result.completeness.complete
    assert _keys(result.recommendations) == _keys(record.recommendations)


# -- budget cuts --------------------------------------------------------------

def _prefix_oracle(db, session, scanned):
    """The naive engine's top-o over the first ``scanned`` candidates."""
    visited = {step.criteria for step in session.steps} | {session.criteria}
    operations = session.recommender.candidate_operations(session.criteria)
    operations = [op for op in operations if op.target not in visited] or operations
    naive = SubDEx(
        db, replace(_engine(db).config, use_index=False)
    ).session().recommender
    return naive.recommend(
        session.criteria,
        session.seen,
        candidates=operations[:scanned],
        current_group=session.group,
    )


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_forced_cut_yields_honest_partial(tiny_db, monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    session = _engine(tiny_db).session()
    session.step()
    full = session.recommendations_anytime()
    cut = session.recommendations_anytime(force_cut_after=1)
    assert cut.is_partial
    assert cut.completeness.budget_cut
    assert cut.completeness.snapshots == 1
    # one chunk, whatever the host: the cut point is host-independent
    assert cut.completeness.candidates_scanned == ANYTIME_CHUNK
    assert cut.completeness.candidates_scanned < cut.completeness.candidates_total
    assert cut.completeness.candidates_total == full.completeness.candidates_total
    # a prefix's top-o need not lie inside the full top-o, but it must be
    # exactly what a from-scratch ranking of that prefix returns
    oracle = _prefix_oracle(tiny_db, session, cut.completeness.candidates_scanned)
    assert _keys(cut.recommendations) == _keys(oracle)
    _check_invariants(cut.completeness)


def test_cut_before_any_work_returns_empty_partial(tiny_engine):
    session = tiny_engine.session()
    session.step()
    result = session.recommendations_anytime(force_cut_after=0)
    assert result.is_partial
    assert result.completeness.budget_cut
    assert result.completeness.candidates_scanned == 0
    assert result.completeness.snapshots == 0
    assert len(result) == 0
    _check_invariants(result.completeness)


def test_expired_budget_cuts_at_first_boundary(tiny_engine):
    session = tiny_engine.session()
    session.step()
    budget = budget_deadline(1)
    time.sleep(0.005)  # the soft budget is already spent when the loop starts
    result = session.recommendations_anytime(budget=budget)
    assert result.is_partial
    assert result.completeness.budget_cut
    assert result.completeness.candidates_scanned == 0


def test_snapshots_stream_best_so_far(tiny_engine):
    session = tiny_engine.session()
    session.step()
    seen: list[list] = []
    result = session.recommender.recommend_anytime(
        session.criteria,
        session.seen,
        current_group=session.group,
        on_snapshot=lambda ranked: seen.append(list(ranked)),
    )
    assert len(seen) == result.completeness.snapshots >= 1
    # snapshot sizes only ever grow, and the last one is the final answer
    sizes = [len(snapshot) for snapshot in seen]
    assert sizes == sorted(sizes)
    assert _keys(seen[-1]) == _keys(result.recommendations)


# -- satellite 4: every rung stays inside the full-run oracle ----------------

@pytest.mark.parametrize("missing", [0.0, 0.3])
def test_every_rung_is_subset_of_oracle(db_factory, missing):
    engine = _engine(db_factory(seed=3, missing=missing, name=f"m{missing}"))
    session = engine.session()
    session.step()
    oracle = session.recommendations(o=EVERYTHING)
    universe = _targets(oracle)
    assert universe  # the oracle itself found candidates
    ladder = QualityLadder()
    for rung in QualityRung:
        plan = ladder.plan(rung)
        if plan.use_cached:
            continue
        result = session.recommendations_anytime(plan=plan, o=EVERYTHING)
        _check_invariants(result.completeness)
        assert result.completeness.rung is rung
        assert _targets(result.recommendations) <= universe, rung
        if plan.candidate_cap is not None:
            assert result.completeness.candidates_scanned <= plan.candidate_cap
        if rung is QualityRung.FULL:
            assert result.completeness.complete
            assert _keys(result.recommendations) == _keys(oracle)


def test_cached_rung_scores_nothing(tiny_engine):
    session = tiny_engine.session()
    session.step()
    plan = QualityLadder().plan(QualityRung.CACHED)
    result = session.recommendations_anytime(plan=plan)
    assert result.completeness.candidates_scanned == 0
    assert len(result) == 0
    assert result.is_partial


def test_sparse_database_still_answers(db_factory):
    """Missing values and empty groups never crash the anytime path."""
    engine = _engine(db_factory(seed=9, missing=0.6, name="sparse"))
    session = engine.session()
    session.step()
    result = session.recommendations_anytime()
    _check_invariants(result.completeness)
    assert result.completeness.complete
