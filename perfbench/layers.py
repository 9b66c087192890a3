"""Per-layer timing wrappers, installed from outside the program.

Each :class:`Probe` names one layer metric and the public functions it
wraps, at the module (or class) names the callers bind, so a call is
timed whichever caller makes it.  A :class:`LayerTracer` installs the
wrappers, records every call's duration, and attributes the time of
*top-level* calls (no other wrapped call of the same request open) to
the request's trace id, which is what the closure metric
``unattributed_ms`` subtracts from the client latency.

Shard workers are separate processes: :func:`worker_agent` installs the
same wrappers inside a worker (the benchmark's entry module is
re-imported there) and dumps the worker's records to a directory the
front reads after the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.tracing import current_trace_id

DRILL, FLEET = "drill", "fleet"
ALL = frozenset({DRILL, FLEET})
#: Probes of the serving layer see calls only where the engine is in-process.
IN_PROCESS = frozenset({DRILL})


@dataclass(frozen=True)
class Probe:
    """One timed layer metric: ``<name>_ms`` / ``_calls`` / ``_total_ms``."""

    name: str
    #: ``"module:function"`` or ``"module:Class.method"``.
    targets: tuple[str, ...]
    #: Workloads on which the probe must record calls.
    serves: frozenset[str]
    #: Time entering the returned context manager instead of the call.
    enter_only: bool = False


PROBES: tuple[Probe, ...] = (
    Probe("server.encode", (
        "repro.server.app:step_to_json",
        "repro.server.app:rating_map_to_json",
        "repro.server.app:recommendation_to_json",
    ), IN_PROCESS),
    Probe("server.registry_wait",
          ("repro.server.registry:SessionRegistry.acquire",), IN_PROCESS,
          enter_only=True),
    Probe("caching.rating_maps",
          ("repro.core.caching:CachingEngine.rating_maps",), ALL),
    Probe("generator.generate",
          ("repro.core.generator:RMSetGenerator.generate",), ALL),
    Probe("phases.run", ("repro.core.phases:PhasedExecution.run",), ALL),
    Probe("gmm.select", (
        "repro.core.selection:gmm_select",
        "repro.batch.scoring:gmm_select",
    ), ALL),
    Probe("recommend.recommend",
          ("repro.core.recommend:RecommendationBuilder.recommend",), ALL),
    Probe("recommend.enumerate",
          ("repro.core.recommend:RecommendationBuilder.candidate_operations",),
          ALL),
    Probe("index.group", ("repro.index.facade:IndexedDatabase.group",), ALL),
    Probe("index.neighborhood",
          ("repro.index.facade:IndexedDatabase.neighborhood",), ALL),
    Probe("index.candidate",
          ("repro.index.facade:NeighborhoodContext.candidate",), ALL),
    Probe("index.direct_counts", (
        "repro.index.facade:direct_counts",
        "repro.cluster.merge:direct_counts",
    ), ALL),
    Probe("index.delta_counts", ("repro.index.facade:delta_counts",), ALL),
    Probe("batch.prepare_family",
          ("repro.batch.scoring:FamilyBatchScorer.prepare_family",), ALL),
    Probe("batch.prepare_rows",
          ("repro.batch.scoring:FamilyBatchScorer.prepare_rows",), ALL),
    Probe("batch.family_scores",
          ("repro.batch.scoring:batch_family_scores",), ALL),
    Probe("batch.evaluate",
          ("repro.batch.scoring:FamilyBatchScorer.evaluate_candidate",), ALL),
    Probe("batch.materialize",
          ("repro.batch.scoring:FamilyBatchScorer.materialize_candidate",), ALL),
    Probe("db.group_histograms", (
        "repro.db.groupby:group_histograms",
        "repro.index.delta:group_histograms",
    ), ALL),
    Probe("anytime.recommend",
          ("repro.core.recommend:RecommendationBuilder.recommend_anytime",), ALL),
    Probe("cluster.call", ("repro.cluster.supervisor:WorkerPool.call",),
          frozenset({FLEET})),
    Probe("cluster.scatter",
          ("repro.cluster.supervisor:WorkerPool.scatter_scan",),
          frozenset({FLEET})),
    Probe("cluster.merge", ("repro.server.app:result_from_scans",), ALL),
)

#: Probes whose wrappers run in shard workers rather than in the front.
WORKER_SIDE = frozenset(
    p.name for p in PROBES
    if not p.name.startswith(("server.", "cluster."))
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, current value) of ``target``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


class _TimedEnter:
    """Wraps a context manager; records how long entering it took."""

    __slots__ = ("_inner", "_done")

    def __init__(self, inner: Any, done: Callable[[float], None]) -> None:
        self._inner = inner
        self._done = done

    def __enter__(self) -> Any:
        started = time.perf_counter()
        try:
            return self._inner.__enter__()
        finally:
            self._done(time.perf_counter() - started)

    def __exit__(self, *exc_info: Any) -> Any:
        return self._inner.__exit__(*exc_info)


class LayerTracer:
    """Installs the probes' wrappers and keeps their records."""

    def __init__(self, probes: tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.samples: dict[str, list[float]] = {p.name: [] for p in self.probes}
            self.attributed: dict[str, float] = {}
            self._open: dict[str, int] = {}
            self.routes: dict[int, int] = {}
            self.candidates: list[int] = []

    # -- installation -------------------------------------------------------
    def install(self, names: frozenset[str] | None = None) -> None:
        for probe in self.probes:
            if names is not None and probe.name not in names:
                continue
            for target in probe.targets:
                owner, attribute, raw = _resolve(target)
                setattr(owner, attribute, self._wrap(probe, raw))
                self._originals.append((owner, attribute, raw))
        self._install_extras()

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._originals):
            setattr(owner, attribute, raw)
        self._originals.clear()

    def _install_extras(self) -> None:
        """Counters that are not timings: routes and candidate counts."""
        from repro.cluster.supervisor import WorkerPool

        route = WorkerPool.__dict__["route"]

        @functools.wraps(route)
        def counted_route(pool, session_id):
            worker = route(pool, session_id)
            with self._lock:
                self.routes[worker] = self.routes.get(worker, 0) + 1
            return worker

        WorkerPool.route = counted_route
        self._originals.append((WorkerPool, "route", route))

        from repro.core.recommend import RecommendationBuilder

        enumerate_ = RecommendationBuilder.__dict__["candidate_operations"]

        @functools.wraps(enumerate_)
        def counted_enumerate(builder, current):
            operations = enumerate_(builder, current)
            self.candidates.append(len(operations))
            return operations

        RecommendationBuilder.candidate_operations = counted_enumerate
        self._originals.append(
            (RecommendationBuilder, "candidate_operations", enumerate_)
        )

    # -- recording ----------------------------------------------------------
    def _record(self, name: str, trace: str | None, depth: int, elapsed: float) -> None:
        self.samples[name].append(elapsed)
        if trace is None:
            return
        with self._lock:
            remaining = self._open[trace] - 1
            if remaining:
                self._open[trace] = remaining
            else:
                del self._open[trace]
            if depth == 0:
                self.attributed[trace] = self.attributed.get(trace, 0.0) + elapsed

    def _enter(self) -> tuple[str | None, int]:
        trace = current_trace_id()
        if trace is None:
            return None, 0
        with self._lock:
            depth = self._open.get(trace, 0)
            self._open[trace] = depth + 1
        return trace, depth

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        if probe.enter_only:
            @functools.wraps(fn)
            def entering(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def done(elapsed: float) -> None:
                    trace, depth = self._enter()
                    self._record(name, trace, depth, elapsed)

                return _TimedEnter(inner, done)

            return entering

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            trace, depth = self._enter()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, trace, depth, time.perf_counter() - started)

        return timed

    # -- export -------------------------------------------------------------
    def snapshot(self, counters: dict[str, float]) -> dict[str, Any]:
        """The records so far, plus ``counters`` accrued over the same span."""
        with self._lock:
            return {
                "samples": {k: list(v) for k, v in self.samples.items()},
                "attributed": dict(self.attributed),
                "routes": {str(k): v for k, v in self.routes.items()},
                "candidates": list(self.candidates),
                "counters": counters,
            }


# -- program counters read off live objects ------------------------------------------

def counter_snapshot() -> dict[str, float]:
    """Cache, posting-store and batching counters summed over live objects."""
    from repro.core.caching import CachingEngine
    from repro.core.recommend import RecommendationBuilder
    from repro.index.postings import PostingListStore

    totals = dict.fromkeys(
        ("result_hits", "result_misses", "group_hits", "group_misses",
         "posting_hits", "posting_misses", "posting_bytes",
         "batch_candidates", "batch_batched", "batch_evaluated",
         "batch_pruned"), 0.0)
    for obj in gc.get_objects():
        if isinstance(obj, CachingEngine):
            totals["result_hits"] += obj.result_stats.hits
            totals["result_misses"] += obj.result_stats.misses
            totals["group_hits"] += obj.group_stats.hits
            totals["group_misses"] += obj.group_stats.misses
        elif isinstance(obj, PostingListStore):
            stats = obj.stats()
            totals["posting_hits"] += stats["hits"]
            totals["posting_misses"] += stats["misses"]
            totals["posting_bytes"] += stats["bytes"]
        elif isinstance(obj, RecommendationBuilder):
            stats = obj.batch_stats()
            for key in ("candidates", "batched", "evaluated", "pruned"):
                totals[f"batch_{key}"] += stats.get(key, 0)
    return totals


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counters accrued between two snapshots (bytes stay absolute)."""
    return {
        key: after[key] if key == "posting_bytes" else after[key] - before.get(key, 0.0)
        for key in after
    }


# -- shard workers -------------------------------------------------------------------

#: ``"<front pid>:<directory>"``: set by the front while it spawns traced
#: shard workers, which dump their records into the directory.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"
_DUMP_INTERVAL_S = 0.05


def maybe_start_worker_agent() -> None:
    """Start :func:`worker_agent` if this is a traced run's shard worker.

    Called when the benchmark's entry module is imported; the spawn start
    method re-imports it in every worker, which is how the wrappers get in.
    """
    front, _, directory = os.environ.get(WORKER_TRACE_ENV, "").partition(":")
    if directory and front != str(os.getpid()):
        worker_agent(directory)


def worker_agent(directory: str) -> None:
    """Trace this (worker) process; dump records to ``directory``.

    Recording starts when ``directory/go`` appears (counters are taken
    relative to that moment) and the final dump is written when
    ``directory/stop`` appears.
    """
    tracer = LayerTracer()
    tracer.install(WORKER_SIDE)
    target = os.path.join(directory, f"worker-{os.getpid()}.json")

    def dump(baseline: dict[str, float], final: bool) -> None:
        data = tracer.snapshot(counter_delta(baseline, counter_snapshot()))
        data["final"] = final
        scratch = f"{target}.tmp"
        with open(scratch, "w") as handle:
            json.dump(data, handle)
        os.replace(scratch, target)

    def loop() -> None:
        go = os.path.join(directory, "go")
        stop = os.path.join(directory, "stop")
        while not os.path.exists(go):
            time.sleep(_DUMP_INTERVAL_S)
        tracer.reset()
        baseline = counter_snapshot()
        dump(baseline, final=False)
        while not os.path.exists(stop):
            time.sleep(_DUMP_INTERVAL_S)
        dump(baseline, final=True)

    threading.Thread(target=loop, name="perfbench-trace-dump", daemon=True).start()


def read_worker_dumps(directory: str) -> list[dict[str, Any]]:
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                dumps.append(json.load(handle))
    return dumps
