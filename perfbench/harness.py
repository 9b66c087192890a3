"""The deployment under test and the closed-loop client that drives it.

:func:`start_deployment` builds the server ``python -m repro serve``
would run (in this process, on a free port) and finishes one warm-up
session; :func:`drive` runs a :class:`~plan.Plan` through
``SubDExClient`` on one keep-alive connection in a closed loop, times
every request at the client and checks every answer.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro import SubDEx
from repro.datasets import yelp
from repro.server import RetryPolicy, ServerConfig, SubDExClient, build_server
from repro.server.client import ClientSession

from plan import (
    BUDGETED,
    OTHER,
    Action,
    Plan,
    Workload,
    engine_config,
    maps_fingerprint_json,
    recs_fingerprint_json,
    step_fingerprint_json,
)

#: Client-side timeout; a request slower than this fails.
REQUEST_TIMEOUT_S = 60.0

_QUALITY_FIELDS = {
    "rung": str,
    "complete": bool,
    "candidates_total": int,
    "candidates_scanned": int,
    "candidates_scored": int,
    "fraction_scanned": (int, float),
    "pruning_confidence": (int, float),
    "snapshots": int,
    "budget_cut": bool,
}


@dataclass
class Deployment:
    server: Any
    thread: threading.Thread
    setup_s: float

    @property
    def url(self) -> str:
        return self.server.url

    def pids(self) -> list[int]:
        """This process (the front) plus every live worker process."""
        pids = [os.getpid()]
        if self.server.cluster is not None:
            pids += [
                w["pid"] for w in self.server.cluster.worker_states()
                if w.get("pid")
            ]
        return pids

    def stop(self) -> None:
        self.server.graceful_shutdown(drain_seconds=10.0)
        self.thread.join(10.0)


def start_deployment(workload: Workload) -> Deployment:
    """Generate the data, start the server, finish one warm-up session."""
    started = time.perf_counter()
    database = yelp(seed=0, scale_factor=workload.scale)
    server = build_server(
        {"yelp": lambda: SubDEx(database, engine_config())},
        port=0,
        config=ServerConfig(workers=workload.workers),
    )
    thread = threading.Thread(
        target=server.serve_forever, name="perfbench-serve", daemon=True
    )
    thread.start()
    with SubDExClient(server.url, timeout=REQUEST_TIMEOUT_S) as client:
        session = client.create_session()
        session.maps()
        session.close()
    return Deployment(server, thread, time.perf_counter() - started)


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux ≥ 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        pass


@dataclass
class Sample:
    request_class: str
    kind: str
    client_ms: float
    server_ms: float | None
    trace_id: str
    ok: bool
    budget_ms: int | None = None
    quality: dict[str, Any] | None = None
    error: str | None = None


@dataclass
class RunResult:
    samples: list[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    def ok(self, request_class: str) -> list[Sample]:
        return [s for s in self.samples if s.ok and s.request_class == request_class]

    @property
    def failed(self) -> list[Sample]:
        return [s for s in self.samples if not s.ok]


class _Mismatch(Exception):
    pass


def _check(action: Action, answer: Any) -> dict | None:
    """Raise :class:`_Mismatch` unless ``answer`` matches the reference."""
    kind = action.kind
    if kind in ("create", "apply_rec"):
        got: Any = step_fingerprint_json(answer)
    elif kind == "maps":
        got = maps_fingerprint_json(answer["maps"])
    elif kind == "recs":
        got = recs_fingerprint_json(answer)
    elif kind == "summary":
        got = (
            answer["n_steps"],
            {side: pairs for side, pairs in answer["criteria"].items() if pairs},
        )
    elif kind == "history":
        got = tuple((s["index"], s["group_size"]) for s in answer["steps"])
    elif kind == "scan":
        got = (answer["group_size"], maps_fingerprint_json(answer["maps"]))
    elif kind == "close":
        got = answer["n_steps"]
    elif kind == "budgeted":
        quality = answer.get("quality")
        if not isinstance(quality, dict):
            raise _Mismatch("budgeted answer has no quality block")
        for name, kinds in _QUALITY_FIELDS.items():
            value = quality.get(name)
            if not isinstance(value, kinds) or (
                kinds is int and isinstance(value, bool)
            ):
                raise _Mismatch(f"quality.{name} malformed: {value!r}")
        got = recs_fingerprint_json(answer["recommendations"])
        if quality["complete"]:
            if got != action.expect:
                raise _Mismatch("complete budgeted answer differs from full")
        elif not (
            0 <= quality["candidates_scored"] <= quality["candidates_scanned"]
            <= quality["candidates_total"]
            and 0.0 <= quality["fraction_scanned"] <= 1.0
            and quality["snapshots"] >= 0
            and len(got) <= engine_config().recommender.o
        ):
            raise _Mismatch(f"partial quality block inconsistent: {quality}")
        return quality
    else:
        raise ValueError(kind)
    if got != action.expect:
        raise _Mismatch(f"{kind} answer differs from the reference")
    return None


def _send(client: SubDExClient, session: ClientSession | None, action: Action):
    """Issue one scripted request; returns (answer, session)."""
    kind, args = action.kind, action.args
    if kind == "create":
        session = client.create_session(criteria=args["criteria"])
        return session.step, session
    assert session is not None
    if kind == "apply_rec":
        return session.apply_recommendation(args["number"]), session
    if kind == "maps":
        return session.maps(), session
    if kind == "recs":
        return session.recommendations(), session
    if kind == "summary":
        return session.summary(), session
    if kind == "history":
        return session.history(), session
    if kind == "budgeted":
        return session.recommend(budget_ms=args["budget_ms"]), session
    if kind == "close":
        return session.close(), session
    raise ValueError(kind)


def _run_session(
    client: SubDExClient,
    actions: list[Action],
    trace_prefix: str,
    out: list[Sample],
) -> None:
    session: ClientSession | None = None
    for number, action in enumerate(actions):
        trace_id = f"{trace_prefix}{number:08x}"
        client.trace_id = trace_id
        quality = None
        error = None
        answer = None
        started = time.perf_counter()
        try:
            if action.kind == "scan":
                answer = client.cluster_maps(
                    criteria=action.args["criteria"], k=action.args["k"]
                )
            else:
                answer, session = _send(client, session, action)
            elapsed = time.perf_counter() - started
            quality = _check(action, answer)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            elapsed = time.perf_counter() - started
            error = f"{type(exc).__name__}: {exc}"
        out.append(
            Sample(
                request_class=action.request_class,
                kind=action.kind,
                client_ms=elapsed * 1000.0,
                server_ms=client.last_server_ms,
                trace_id=trace_id,
                ok=error is None,
                budget_ms=action.args.get("budget_ms")
                if action.request_class == BUDGETED else None,
                quality=quality,
                error=error,
            )
        )
        if error is not None and action.kind == "create":
            return  # the rest of the session has nothing to act on
        if quality is not None and not quality["complete"]:
            out.append(_await_refinement(session, answer, action, trace_id))


def _await_refinement(
    session: ClientSession, answer: dict, action: Action, trace_id: str
) -> Sample:
    """Poll a partial answer's refinement; it must equal the full answer.

    The client waits, as a UI showing the best-so-far answer would, so a
    refinement never runs behind the session's next step.
    """
    error = None
    started = time.perf_counter()
    try:
        token = answer["refinement"]["token"]
        refined = session.wait_for_refinement(
            token, timeout=REQUEST_TIMEOUT_S, interval=0.02
        )
        if refined.get("status") != "done":
            raise _Mismatch(f"refinement ended {refined.get('status')!r}")
        if recs_fingerprint_json(refined["recommendations"]) != action.expect:
            raise _Mismatch("refined answer differs from the full answer")
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        error = f"{type(exc).__name__}: {exc}"
    return Sample(
        request_class=OTHER,
        kind="refine",
        client_ms=(time.perf_counter() - started) * 1000.0,
        server_ms=None,
        trace_id=trace_id,
        ok=error is None,
        error=error,
    )


def drive(deployment: Deployment, plan: Plan) -> RunResult:
    """Run ``plan``'s sessions in order on one keep-alive client."""
    result = RunResult()
    with SubDExClient(
        deployment.url, timeout=REQUEST_TIMEOUT_S, retry=RetryPolicy(max_attempts=1)
    ) as client:
        started = time.perf_counter()
        for number, actions in enumerate(plan.sessions):
            prefix = f"{plan.seed & 0xFFFFFFFF:08x}{number:08x}"
            _run_session(client, actions, prefix, result.samples)
        result.wall_s = time.perf_counter() - started
    return result
