"""Seeded request scripts and their reference answers.

A *plan* is the fixed script one run drives through ``SubDExClient``:
a list of sessions, each a list of :class:`Action` (one HTTP request
each) carrying the answer the service must give.  Plans are built by
replaying every session through a plain :class:`~repro.SubDEx` engine
with the served configuration, in spawned child processes, so the script
and the reference answers come from one pass, before any timing starts.
The same ``(workload, seed, seconds)`` always yields the same plan.
"""

from __future__ import annotations

import json
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

from repro import AVPair, RecommenderConfig, SelectionCriteria, SubDEx, SubDExConfig
from repro.cluster.merge import (
    local_partial_scans,
    preview_generator,
    result_from_scans,
    scan_specs,
)
from repro.cluster.partition import ShardMap
from repro.datasets import yelp
from repro.model.database import Side, SubjectiveDatabase

#: Fewest sessions in a script, whatever ``--seconds`` says.
MIN_SESSIONS = 2

#: Request classes: each end-to-end latency metric covers one of them.
STEP, READ, BUDGETED, SCAN, OTHER = "step", "read", "budgeted", "scan", "other"


def engine_config() -> SubDExConfig:
    """The engine ``python -m repro serve`` builds (o=3, k=3)."""
    return SubDExConfig(
        recommender=RecommenderConfig(o=3, max_values_per_attribute=6)
    ).with_k(3)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment shape."""

    name: str
    why: str
    scale: float
    workers: int
    #: Recommendations a session follows after its opening step, at most.
    steps: int
    #: Script size: ``max(MIN_SESSIONS, round(seconds * sessions_per_second))``,
    #: sized so the script takes about ``--seconds`` on a 2-CPU host.
    sessions_per_second: float
    #: ``budget_ms`` of a session's budgeted requests, by step position
    #: (cycled).
    budgets: tuple[int, ...]
    build_session: Callable[["Replay", "SessionSeed"], None]

    def n_sessions(self, seconds: float) -> int:
        return max(MIN_SESSIONS, round(seconds * self.sessions_per_second))


@dataclass(frozen=True)
class Action:
    """One scripted request and the answer it must get back."""

    kind: str  # create | apply_rec | maps | recs | summary | history
    #            budgeted | scan | close
    args: dict[str, Any]
    expect: Any

    @property
    def request_class(self) -> str:
        if self.kind in ("create", "apply_rec"):
            return STEP
        if self.kind in ("maps", "recs", "summary", "history"):
            return READ
        if self.kind == "budgeted":
            return BUDGETED
        if self.kind == "scan":
            return SCAN
        return OTHER


@dataclass
class Plan:
    workload: Workload
    seed: int
    sessions: list[list[Action]]


# -- fingerprints ----------------------------------------------------------------
# Computed from engine objects on the reference side and from JSON payloads on
# the client side; the two must be equal.

def maps_fingerprint_of(result) -> tuple:
    return tuple(
        (
            rm.spec.side.value,
            rm.spec.attribute,
            rm.dimension,
            tuple(
                tuple(int(c) for c in sg.distribution.counts)
                for sg in rm.sorted_by_score()
            ),
        )
        for rm in result.selected
    )


def maps_fingerprint_json(maps: list[dict[str, Any]]) -> tuple:
    return tuple(
        (
            m["side"],
            m["attribute"],
            m["dimension"],
            tuple(tuple(sg["counts"]) for sg in m["subgroups"]),
        )
        for m in maps
    )


def recs_fingerprint_of(scored) -> tuple:
    return tuple(s.describe() for s in scored)


def recs_fingerprint_json(recs: list[dict[str, Any]]) -> tuple:
    return tuple(r["description"] for r in recs)


def step_fingerprint_of(record) -> tuple:
    return (
        record.group_size,
        maps_fingerprint_of(record.result),
        recs_fingerprint_of(record.recommendations),
    )


def step_fingerprint_json(step: dict[str, Any]) -> tuple:
    return (
        step["group_size"],
        maps_fingerprint_json(step["maps"]),
        recs_fingerprint_json(step["recommendations"]),
    )


def _plain(value: Any) -> Any:
    """A numpy scalar as the Python value a JSON client would send."""
    return value.item() if hasattr(value, "item") else value


def criteria_json(criteria: SelectionCriteria) -> dict[str, dict[str, Any]]:
    """The ``criteria`` body a client sends for ``criteria``."""
    return {
        side.value: {attr: _plain(value) for attr, value in pairs.items()}
        for side in (Side.REVIEWER, Side.ITEM)
        if (pairs := criteria.side_pairs(side))
    }


# -- the reference replay ---------------------------------------------------------

def frequent_pairs(database: SubjectiveDatabase) -> list[SelectionCriteria]:
    """One-pair selections of the 3 most frequent values of each attribute."""
    return [
        SelectionCriteria([AVPair(side, attribute, _plain(value))])
        for side, attribute in database.grouping_attributes()
        for value in database.catalog(side).domain(attribute).frequent_values()[:3]
    ]


class Replay:
    """Replays one session on a plain engine while recording its script."""

    def __init__(self, engine: SubDEx, scans: dict) -> None:
        self.engine = engine
        #: Reference scans by body, shared by the sessions of one replay.
        self.scans = scans
        self.session = None
        self.latest = None
        self.actions: list[Action] = []

    # -- steps ------------------------------------------------------------
    def create(self, criteria: SelectionCriteria) -> None:
        self.session = self.engine.session(criteria)
        self.latest = self.session.step(with_recommendations=True)
        self.actions.append(
            Action("create", {"criteria": criteria_json(criteria)},
                   step_fingerprint_of(self.latest))
        )

    def apply_rec(self, number: int) -> None:
        operation = self.latest.recommendations[number - 1].operation
        self.latest = self.session.step(operation, with_recommendations=True)
        self.actions.append(
            Action("apply_rec", {"number": number},
                   step_fingerprint_of(self.latest))
        )

    # -- reads --------------------------------------------------------------
    def read(self, kind: str) -> None:
        if kind == "maps":
            expect: Any = maps_fingerprint_of(self.latest.result)
        elif kind == "recs":
            expect = recs_fingerprint_of(self.latest.recommendations)
        elif kind == "summary":
            expect = (self.session.n_steps, criteria_json(self.session.criteria))
        elif kind == "history":
            expect = tuple((s.index, s.group_size) for s in self.session.steps)
        else:
            raise ValueError(kind)
        self.actions.append(Action(kind, {}, expect))

    def budgeted(self, budget_ms: int) -> None:
        """A budgeted read; a complete answer must equal the full one."""
        self.actions.append(
            Action("budgeted", {"budget_ms": budget_ms},
                   recs_fingerprint_of(self.latest.recommendations))
        )

    def scan(self, criteria: SelectionCriteria, k: int) -> None:
        """A stateless ``POST /cluster/maps`` of ``criteria``."""
        body = {"criteria": criteria_json(criteria), "k": k}
        key = json.dumps(body, sort_keys=True)
        if key not in self.scans:
            database = self.engine.database
            specs = scan_specs(database, criteria)
            partials = local_partial_scans(
                database, criteria, specs, ShardMap(4).record_shards(database), 4
            )
            result = result_from_scans(
                preview_generator(self.engine.generator), database, criteria,
                specs, partials, k=k,
            )
            self.scans[key] = (
                sum(p.group_size for p in partials), maps_fingerprint_of(result)
            )
        self.actions.append(Action("scan", body, self.scans[key]))

    def close(self) -> None:
        self.actions.append(Action("close", {}, self.session.n_steps))

    @property
    def offered(self) -> int:
        return len(self.latest.recommendations)


# -- the workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class SessionSeed:
    """One session of the pool: where it starts and what it picks."""

    start: SelectionCriteria
    #: Which offered recommendation (1-based rank) to follow at each step.
    ranks: tuple[int, ...]
    #: ``budget_ms`` of each budgeted request, in order.
    budgets: tuple[int, ...]


def _drill_session(replay: Replay, seed: SessionSeed) -> None:
    """Open at a start, follow one recommendation per entry of ``seed.ranks``."""
    replay.scan(SelectionCriteria.root(), 3)
    replay.create(seed.start)
    replay.read("summary")
    replay.budgeted(seed.budgets[0])
    for rank in seed.ranks:
        if not replay.offered:
            break
        replay.read("recs")
        replay.apply_rec(min(rank, replay.offered))
    replay.read("history")
    replay.close()


def _fleet_session(replay: Replay, seed: SessionSeed) -> None:
    """A scan and a budgeted read before every step.

    A scan per step, rather than two per session, spreads the scans over
    the whole run, so a burst of load on the host moves their median less.
    """
    replay.create(seed.start)
    for rank, budget_ms in zip(seed.ranks, seed.budgets):
        if not replay.offered:
            break
        replay.scan(SelectionCriteria.root(), 3)
        replay.budgeted(budget_ms)
        replay.apply_rec(min(rank, replay.offered))
        replay.read("maps")
    replay.read("history")
    replay.close()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="drill",
            why="paper-size data, one client following recommendations: "
                "engine layers (generator, recommend, index, batch, db) "
                "dominate and the result cache overflows",
            scale=1.0, workers=0, steps=4,
            sessions_per_second=0.3,
            budgets=(50,), build_session=_drill_session,
        ),
        Workload(
            name="fleet",
            why="two shard workers, budgeted recommendations before every "
                "step: the only workload running cluster IPC, scatter/merge "
                "and the anytime budget cut",
            scale=0.25, workers=2, steps=6,
            sessions_per_second=0.3,
            budgets=(250, 250, 50, 50, 50, 50), build_session=_fleet_session,
        ),
    )
}


def _strata(engine: SubDEx, items, n: int) -> list:
    """The middle item of each of ``n`` group-size strata of ``items``."""
    by_size = sorted(
        items, key=lambda c: (len(engine.index.rows_for(c)), c.describe())
    )
    bounds = [round(i * len(by_size) / n) for i in range(n + 1)]
    return [by_size[(lo + hi - 1) // 2] for lo, hi in zip(bounds, bounds[1:])]


def _prepare(workload: Workload, seed: int, seconds: float):
    """The reference engine and every session's choices, in seeded order.

    The sessions form a fixed pool: one start per group-size stratum of
    the candidate starts (the root and the frequent one-pair selections),
    with the recommendation ranks (1-3) cycled across the pool so each
    occurs equally often, and the budgets taken by step position.  The
    seed orders the pool.  Drawing the sessions themselves from the seed
    made step medians spread by a third of their value between seeds,
    more than any bound allows.
    """
    engine = SubDEx(yelp(seed=0, scale_factor=workload.scale), engine_config())
    n, steps = workload.n_sessions(seconds), workload.steps
    starts = _strata(
        engine, [SelectionCriteria.root(), *frequent_pairs(engine.database)], n
    )
    seeds = [
        SessionSeed(
            start,
            tuple((i + j) % 3 + 1 for j in range(steps)),
            tuple(
                workload.budgets[j % len(workload.budgets)] for j in range(steps)
            ),
        )
        for i, start in enumerate(starts)
    ]
    random.Random(f"{workload.name}:{seed}").shuffle(seeds)
    return engine, seeds


#: Spawned children the reference replay is spread over, one session at a time.
REPLAY_PROCESSES = 2

_replay_state: tuple = ()


def _start_replayer(workload: Workload, seed: int, seconds: float) -> None:
    engine, seeds = _prepare(workload, seed, seconds)
    global _replay_state
    _replay_state = (workload, engine, seeds, {})


def _replay_session(number: int) -> list[Action]:
    """Replay session ``number`` of the plan on this child's engine."""
    workload, engine, seeds, scans = _replay_state
    replay = Replay(engine, scans)
    workload.build_session(replay, seeds[number])
    return replay.actions


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Replay ``workload``'s seeded sessions; return the script.

    The replay runs in spawned child processes, so the caller never holds
    the reference engine (or the heap it leaves behind) while the server
    under test runs and its peak RSS is read.  Each child builds its own
    engine and takes the next unreplayed session when it is free; an
    answer never depends on which sessions an engine served before.
    """
    with ProcessPoolExecutor(
        max_workers=REPLAY_PROCESSES,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_start_replayer,
        initargs=(workload, seed, seconds),
    ) as pool:
        sessions = list(
            pool.map(_replay_session, range(workload.n_sessions(seconds)))
        )
    return Plan(workload, seed, sessions)
