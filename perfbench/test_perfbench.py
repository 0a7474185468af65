"""Self-tests of the benchmark: run with ``python -m pytest perfbench -q``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import scenarios  # noqa: E402
from repro.experiments.common import build_federation  # noqa: E402
from repro.simulation.simulator import Simulator  # noqa: E402

TINY_TICKS = 12
WORKLOAD_NAMES = sorted(scenarios.WORKLOADS)


def _stepped_fingerprint(workload, seed):
    run = scenarios.setup(workload, seed, TINY_TICKS)
    try:
        scenarios.step(run)
        return scenarios.fingerprint(run.system, run.config)
    finally:
        run.close()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_has_a_hundred_latency_samples(name):
    # p90 must have at least ten samples beyond it
    config = scenarios.WORKLOADS[name].config(0)
    assert config.total_ticks - config.warmup_ticks >= 100


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_clean_at_tiny_length(name):
    rep = bench.run_rep(scenarios, scenarios.WORKLOADS[name], 0, None, ticks=TINY_TICKS)
    assert len(rep.ticks) == TINY_TICKS
    assert [c for c in rep.checks if c[1] is not None] == []
    assert {c[0] for c in rep.checks} >= {
        "finishes", "sic_in_unit_range", "result_ledger_closes",
        "transport_ledger_closes",
    }


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_stepped_run_matches_one_shot_run(name):
    workload = scenarios.WORKLOADS[name]
    seed = 3
    if workload.loss_probability:
        # Simulator.run installs no fault plan: take the one-shot run on the
        # same runtime and injector instead.
        run = scenarios.setup(workload, seed, TINY_TICKS)
        try:
            run.runtime.run(ticks=run.config.total_ticks)
            one_shot = scenarios.fingerprint(run.system, run.config)
        finally:
            run.close()
    else:
        config = workload.config(seed, TINY_TICKS)
        system = build_federation(
            workload.queries(seed), num_nodes=workload.num_nodes, config=config
        )
        Simulator(system, config).run()
        one_shot = scenarios.fingerprint(system, config)
    assert _stepped_fingerprint(workload, seed) == one_shot


def test_traced_run_restores_every_patched_attribute():
    targets = layertrace.patch_targets()
    before = [cls.__dict__[method] for cls, method, _, _ in targets]
    workload = scenarios.WORKLOADS["wan-federation"]
    untraced = _stepped_fingerprint(workload, 0)

    tracer = layertrace.install()
    run = scenarios.setup(workload, 0, TINY_TICKS)
    try:
        tracer.wrap_fault_policy(run.system.network)
        tracer.enabled = True
        try:
            scenarios.step(run)
        finally:
            tracer.restore()
        assert run.system.network.fault_policy == run.injector._policy
        traced = scenarios.fingerprint(run.system, run.config)
    finally:
        run.close()

    after = [cls.__dict__[method] for cls, method, _, _ in targets]
    assert all(a is b for a, b in zip(after, before))
    assert traced == untraced
    for layer in ("runtime.scheduler", "federation.node_round", "faults.policy",
                  "state.checkpoint", "streaming.window_insert_rows"):
        assert tracer.layers[layer].calls > 0, layer
    rows = list(tracer.span_rows())
    assert rows and rows[0][3] == -1
    assert all(-1 <= parent < index for index, (_, _, _, parent) in enumerate(rows))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = scenarios.WORKLOADS["overload-shed"]
    rep = bench.run_rep(scenarios, workload, 0, None, ticks=TINY_TICKS)
    traced = bench.run_rep(scenarios, workload, 0, None, ticks=TINY_TICKS,
                           tracer=layertrace.install(), reference=rep.fingerprint)
    end_to_end = bench.end_to_end_metrics(scenarios, [rep])
    per_layer = bench.per_layer_metrics([rep], [traced])
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert bench.unit_of(metric["name"]) == metric["unit"], metric["name"]
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES


def test_repro_environment_does_not_change_what_is_run():
    env = dict(os.environ, REPRO_RUNTIME="sharded", REPRO_FUSION="off",
               REPRO_COLUMNAR_BACKEND="list")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper-scale",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The golden fingerprint matched and the traced run equalled it...
    assert result["correct"] and result["failed"] == 0
    # ...on the default path: fused columnar plans on the event runtime.
    assert metrics["streaming.fused.calls"] > 0
    assert metrics["streaming.fused.hit_ratio"] == 1.0
    assert metrics["runtime.events"] > 0
