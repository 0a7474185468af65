"""The benchmark's three THEMIS workloads: build, step, fingerprint, check.

Each workload drives the public simulator API from one thread:
:func:`repro.experiments.common.build_federation` builds the federation,
:class:`repro.runtime.EventRuntime` wraps it, and ``run(ticks=1)`` is called
once per shedding interval so every interval's wall time is one latency
sample.  In simulated time the load is an open loop: sources emit at fixed
rates whatever the node capacity, and that overload is what THEMIS sheds.

No execution-mode switch is set here (``columnar``, ``columnar_backend``,
``fusion``, ``runtime``, ``workers``): the benchmark measures the default
path and keeps working when those switches are removed.  The workload seed
feeds ``SimulationConfig.seed`` and every query's source seed.

The caller puts the repository's ``src`` directory on ``sys.path`` first
(``run.py`` does, after clearing the ``REPRO_*`` environment variables).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.fairness import jains_index
from repro.experiments.common import build_federation
from repro.faults import FaultInjector, FaultPlan, LossEpisode
from repro.federation.fsps import FederatedSystem
from repro.runtime import EventRuntime
from repro.simulation.config import SimulationConfig
from repro.workloads.aggregate import make_aggregate_query
from repro.workloads.complex import (
    make_avg_all_query,
    make_cov_query,
    make_top5_query,
)

__all__ = [
    "GOLDEN_SEED",
    "WORKLOADS",
    "Run",
    "Workload",
    "check_run",
    "fairness",
    "fingerprint",
    "setup",
    "step",
]

#: The seed whose fingerprints are committed in ``golden.json``.
GOLDEN_SEED = 0

_AGGREGATE_KINDS = ("avg", "max", "count")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its queries, federation shape and settings."""

    name: str
    num_nodes: int
    warmup_seconds: float
    duration_seconds: float
    queries: Callable[[int], list]
    settings: Dict[str, object]
    #: drop probability of the seeded loss episode spanning the whole run
    loss_probability: float = 0.0

    def config(self, seed: int, ticks: Optional[int] = None) -> SimulationConfig:
        """The run's configuration; ``ticks`` shortens it (self-tests)."""
        warmup, duration = self.warmup_seconds, self.duration_seconds
        if ticks is not None:
            interval = SimulationConfig.shedding_interval
            warmup, duration = 0.0, ticks * interval
        return SimulationConfig(
            warmup_seconds=warmup,
            duration_seconds=duration,
            seed=seed,
            **self.settings,
        )


def _aggregate_queries(rate: float, dataset: str) -> Callable[[int], list]:
    def build(seed: int) -> list:
        return [
            make_aggregate_query(
                _AGGREGATE_KINDS[i % len(_AGGREGATE_KINDS)],
                query_id=f"q{i}",
                rate=rate,
                dataset=dataset,
                seed=seed * 1000 + i,
            )
            for i in range(50)
        ]

    return build


_COMPLEX_KINDS = (
    ("avgall", make_avg_all_query, {"sources_per_fragment": 4}),
    ("top5", make_top5_query, {"machines_per_fragment": 2}),
    ("cov", make_cov_query, {}),
)


def _complex_queries(seed: int) -> list:
    # The mix generate_complex_workload builds, except that its per-seed draw
    # of each query's fragment count is replaced by a fixed 1/2 pattern: the
    # federation's shape, and so its work, stays the same on every seed and
    # only the data follows the seed.
    queries = []
    for index in range(12):
        kind, make, extra = _COMPLEX_KINDS[index % len(_COMPLEX_KINDS)]
        queries.append(
            make(
                query_id=f"q{index}-{kind}",
                num_fragments=1 + (index // len(_COMPLEX_KINDS)) % 2,
                rate=60.0,
                dataset="gaussian",
                seed=seed * 7919 + index,
                **extra,
            )
        )
    return queries


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="overload-shed",
            num_nodes=1,
            warmup_seconds=5.0,
            duration_seconds=25.0,
            queries=_aggregate_queries(400.0, "gaussian"),
            settings={"capacity_fraction": 0.5},
        ),
        Workload(
            name="paper-scale",
            num_nodes=1,
            warmup_seconds=6.0,
            duration_seconds=25.0,
            queries=_aggregate_queries(2000.0, "uniform"),
            settings={"capacity_fraction": 0.9},
        ),
        Workload(
            name="wan-federation",
            num_nodes=8,
            warmup_seconds=2.0,
            duration_seconds=50.0,
            queries=_complex_queries,
            settings={
                "capacity_fraction": 0.5,
                "stw_seconds": 4.0,
                "network_latency_seconds": 0.05,
                "reliable_delivery": True,
                "checkpoint_interval": 1.0,
            },
            loss_probability=0.02,
        ),
    )
}


@dataclass
class Run:
    """One built federation, ready to be stepped."""

    config: SimulationConfig
    system: FederatedSystem
    runtime: EventRuntime
    injector: Optional[FaultInjector]
    setup_s: float

    def close(self) -> None:
        if self.injector is not None:
            self.injector.close()
        self.runtime.close()


def setup(workload: Workload, seed: int, ticks: Optional[int] = None) -> Run:
    """Build the queries and federation, the runtime and the fault injector.

    The returned ``setup_s`` is the wall time of exactly that work.
    """
    config = workload.config(seed, ticks)
    start = time.perf_counter()
    system = build_federation(
        workload.queries(seed), num_nodes=workload.num_nodes, config=config
    )
    runtime = EventRuntime(system, checkpoint_interval=config.checkpoint_interval)
    injector = None
    if workload.loss_probability:
        plan = FaultPlan(
            seed=seed,
            episodes=(
                LossEpisode(
                    start=0.0,
                    end=config.total_seconds + 1.0,
                    drop_probability=workload.loss_probability,
                ),
            ),
        )
        injector = FaultInjector(runtime, plan)
    setup_s = time.perf_counter() - start
    return Run(config, system, runtime, injector, setup_s)


def step(run: Run, between: Optional[Callable[[], object]] = None) -> List[float]:
    """Advance the run one shedding interval at a time; return each one's
    wall seconds.  ``between`` is called untimed after every interval."""
    clock = time.perf_counter
    runtime = run.runtime
    samples = []
    for _ in range(run.config.total_ticks):
        start = clock()
        runtime.run(ticks=1)
        samples.append(clock() - start)
        if between is not None:
            between()
    return samples


def fingerprint(system: FederatedSystem, config: SimulationConfig) -> Dict[str, object]:
    """The run's observable outcome, as compared against ``golden.json``."""
    per_query = system.mean_sic_per_query(skip_initial=config.warmup_ticks)
    return {
        "per_query_sic": {q: per_query[q] for q in sorted(per_query)},
        "messages_sent": system.network.sent_messages,
        "bytes_sent": system.network.bytes_sent,
        "received_tuples": system.total_received_tuples(),
        "shed_tuples": system.total_shed_tuples(),
    }


def fairness(fp: Dict[str, object]) -> Tuple[float, float]:
    """``(jain_index, mean_sic)`` over the fingerprint's per-query SIC."""
    values = list(fp["per_query_sic"].values())
    return jains_index(values), sum(values) / len(values)


def _transport_problems(network) -> List[str]:
    stats = network.stats
    problems = []
    if network.in_flight() or network.reliable_pending():
        problems.append(
            f"{network.in_flight()} in flight, "
            f"{network.reliable_pending()} unacked after the drain"
        )
    for kind in network.RELIABLE_KINDS:
        sent = stats.sent.get(kind, 0)
        closed = stats.delivered.get(kind, 0) + stats.expired.get(kind, 0)
        if network.reliability is None:
            closed += stats.dropped.get(kind, 0)
        if sent != closed:
            problems.append(f"{kind}: sent {sent} != delivered+expired {closed}")
    return problems


def check_run(
    run: Run,
    fp: Dict[str, object],
    golden: Optional[Dict[str, object]],
) -> List[Tuple[str, Optional[str]]]:
    """Drain the network and check the finished run.

    Returns one ``(check, problem)`` pair per check made; ``problem`` is
    ``None`` when the check passed.  ``golden`` is compared only when given.
    """
    system = run.system
    system.drain_network()
    checks: List[Tuple[str, Optional[str]]] = []

    sic = fp["per_query_sic"]
    bad = {q: v for q, v in sic.items() if not 0.0 <= v <= 1.0}
    checks.append(("sic_in_unit_range", f"out of [0, 1]: {bad}" if bad or not sic
                   else None))

    report = system.result_accounting_report()
    problem = None
    if report.get("unaccounted_tuples") != 0 or report.get("lane_problems"):
        problem = (
            f"unaccounted={report.get('unaccounted_tuples')} "
            f"lanes={report.get('lane_problems')}"
        )
    checks.append(("result_ledger_closes", problem))

    problems = _transport_problems(system.network)
    checks.append(("transport_ledger_closes", "; ".join(problems) or None))

    if golden is not None:
        diff = sorted(k for k in golden if golden[k] != fp.get(k))
        checks.append(("golden_fingerprint", f"differs on {diff}" if diff else None))
    return checks
