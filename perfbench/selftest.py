"""The benchmark's own self-test, at a small scale (about two minutes).

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it runs two sessions untraced and traced, and asserts
that every metric ``BENCHMARK.json`` names is emitted with its unit, that
no request failed and that every layer wrapper saw calls where it
should.  It then corrupts one reference fingerprint and asserts that the
run reports that request as failed.  Exits non-zero on the first broken
assertion.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run  # sets up the import path

from plan import WORKLOADS, Action, build_plan

SCALE = 0.05


def _small(name: str):
    workload = WORKLOADS[name]
    # no sessions per second leaves the script at its minimum size
    return dataclasses.replace(workload, scale=SCALE, sessions_per_second=0.0)


def _expected(section: str) -> dict[str, str]:
    with open(os.path.join(run._ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def _check_names(metrics: dict, section: str, label: str) -> None:
    expected = _expected(section)
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == expected, (
        f"{label}: metric names/units differ from BENCHMARK.json: "
        f"missing {sorted(set(expected) - set(got))}, "
        f"extra {sorted(set(got) - set(expected))}, "
        f"unit mismatches "
        f"{sorted(n for n in got if n in expected and got[n] != expected[n])}"
    )


def main() -> int:
    for name in sorted(WORKLOADS):
        workload = _small(name)
        plan = build_plan(workload, seed=7, seconds=1.0)
        metrics, result = run.run_untraced(workload, plan)
        assert not result.failed, f"{name}: failures {result.failed[:3]}"
        _check_names(metrics, "end_to_end", f"{name} untraced")
        metrics, result = run.run_traced(workload, plan)
        assert not result.failed, f"{name} traced: failures {result.failed[:3]}"
        _check_names(metrics, "per_layer", f"{name} traced")
        print(f"selftest: {name}: {len(result.samples)} requests ok, "
              f"{len(metrics)} per-layer metrics", flush=True)

    # a corrupted reference answer must surface as a failed request
    workload = _small("drill")
    plan = build_plan(workload, seed=7, seconds=1.0)
    session = plan.sessions[0]
    target = next(i for i, a in enumerate(session) if a.kind == "recs")
    session[target] = Action("recs", {}, ("corrupted",))
    _, result = run.run_untraced(workload, plan)
    failed = [s for s in result.failed if s.kind == "recs"]
    assert len(result.failed) == 1 and failed, (
        f"corrupted fingerprint not reported: {len(result.failed)} failures"
    )
    print("selftest: corrupted reference reported as 1 failed request")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_children()
