"""``batch_engine`` child: in-process ``simulate`` over the fixed case list.

Run as ``python3 perfbench/launch.py SAMPLES.json --worker SEED SECONDS``
(with ``PYTHONPATH`` naming the source tree).

Prints ``ready`` once imports and the instance build are done, then
runs whole passes over :data:`CASE_NAMES` on the default engine core
with the recorder off until ``SECONDS`` have passed (at least one
pass), and prints one JSON summary line with the start and end of every
pass (``time.perf_counter``).  The parent times set-up and restart.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.adversaries import NonClairvoyantLowerBoundAdversary, paper_profile
from repro.core.engine import SimulationResult, simulate
from repro.core.job import Instance, Job
from repro.schedulers import make_scheduler

from gen import engine_instance_jobs

#: The fixed case list: the E1 adversary at k=2 through ``batch`` and
#: ``batch+``, CDB alpha=2 and Profit on one seeded Poisson instance.
CASE_NAMES = ("e1_k2_batch", "e1_k2_batch_plus", "e5_cdb_alpha2", "profit")


def build_cases(seed: int) -> dict[str, Callable[..., SimulationResult]]:
    """Case name -> ``run(core=None, recorder=None)``."""
    jobs = [
        Job(id=i, arrival=a, deadline=d, length=p)
        for i, a, d, p in engine_instance_jobs(seed)
    ]
    instance = Instance(jobs, name=f"poisson/{seed}")

    def e1(name: str) -> Callable[..., SimulationResult]:
        def run(**kw: Any) -> SimulationResult:
            adversary = NonClairvoyantLowerBoundAdversary(5.0, paper_profile(2))
            return simulate(make_scheduler(name), adversary=adversary, **kw)
        return run

    def poisson(name: str, **params: Any) -> Callable[..., SimulationResult]:
        def run(**kw: Any) -> SimulationResult:
            return simulate(
                make_scheduler(name, **params), instance, clairvoyant=True, **kw
            )
        return run

    return {
        "e1_k2_batch": e1("batch"),
        "e1_k2_batch_plus": e1("batch+"),
        "e5_cdb_alpha2": poisson("cdb", alpha=2.0),
        "profit": poisson("profit"),
    }


def run_pass(
    cases: dict[str, Callable[..., SimulationResult]],
    outcomes: dict[str, list[list[float]]],
) -> list[float]:
    """One pass over the cases on the default core, recorder off: adds
    each call's ``[events, span, jobs]`` to ``outcomes`` when new, and
    returns the pass's ``[start, end]``."""
    t0 = time.perf_counter()
    for name, run in cases.items():
        result = run()
        outcome = [result.events_processed, result.span, len(result.instance.jobs)]
        if outcome not in outcomes[name]:
            outcomes[name].append(outcome)
    return [t0, time.perf_counter()]


def main(argv: list[str]) -> int:
    seed, seconds = int(argv[1]), float(argv[2])
    cases = build_cases(seed)
    print("ready", flush=True)
    #: ``[start, end]`` of every pass, and per case the distinct
    #: ``[events, span, jobs]`` outcomes across calls.
    passes: list[list[float]] = []
    outcomes: dict[str, list[list[float]]] = {name: [] for name in cases}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cases, outcomes))
    print(json.dumps({"passes": passes, "outcomes": outcomes}), flush=True)
    return 0
