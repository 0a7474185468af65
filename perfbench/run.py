"""THEMIS simulator benchmark: one workload, measured end to end or by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload overload-shed --seed 0 --seconds 20 --trace 0

Builds and steps the workload again and again for ``--seconds`` seconds and
prints, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (simulation speed,
per-interval latency, set-up time, peak memory, fairness); with ``--trace 1``
they are the per-layer ones from a separate, traced run (see
``layertrace.py``).  The line before it is a JSON object with the run's
provenance, sample counts and fingerprint.  Both are also written to
``perfbench/out/``, with the traced run's spans.  ``perfbench/README.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from calibration import REFERENCE_S, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Ticks of the short, unmeasured run that warms imports and caches.
WARMUP_TICKS = 8
#: Untraced runs to make at least, so each interval's median has three values.
MIN_RUNS = 3
#: Federations built per run; the run's set-up time is their median.
SETUPS_PER_RUN = 5


def prepare_imports() -> None:
    """Clear ``REPRO_*`` overrides and put the repository's ``src`` first.

    The execution-mode defaults are read when ``repro`` is imported, so this
    runs before any ``repro`` import: the benchmark always measures the
    default path, whatever the caller's environment.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator sources under {src}")
    sys.path.insert(0, str(src))


# --------------------------------------------------------------- provenance
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the simulator's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> Dict[str, object]:
    import numpy

    revision = dirty = None
    # Only a checkout of its own: git would otherwise search the parent
    # directories for a repository.
    if (ROOT / ".git").exists():
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--", "src", "perfbench")
        dirty = None if status is None else bool(status)
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# -------------------------------------------------------------------- runs
class Rep:
    """Outcome of one set-up plus stepped run of the workload."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.ticks: List[float] = []
        #: intervals of the simulation's warm-up, left out of the latency
        #: samples as they are left out of the results
        self.warmup_ticks = 0
        self.calibration: List[float] = []
        self.fingerprint: Optional[Dict[str, object]] = None
        self.checks: List[Tuple[str, Optional[str]]] = []
        self.layers: Dict[str, float] = {}

    @property
    def stepped_s(self) -> float:
        return sum(self.ticks)

    @property
    def slowdown(self) -> float:
        """The machine's slowdown against the reference during this run; an
        uncalibrated run is taken at the reference speed."""
        if not self.calibration:
            return 1.0
        return statistics.median(self.calibration) / REFERENCE_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this run's wall time at the reference speed."""
        return seconds / self.slowdown


def run_rep(scenarios, workload, seed: int, golden, ticks: Optional[int] = None,
            tracer=None, reference: Optional[Dict[str, object]] = None,
            probe: Optional[Callable[[], float]] = None) -> Rep:
    """Set up, step and check one run; with ``tracer``, trace the stepping,
    and with ``probe``, time it after every interval.

    The tracer's wrappers are removed when the stepping ends, or on any
    error.  An exception counts as the failed ``finishes`` check instead of
    ending the benchmark.
    """
    rep = Rep()
    try:
        for _ in range(SETUPS_PER_RUN - 1):
            gc.collect()
            spare = scenarios.setup(workload, seed, ticks)
            rep.setup_s.append(spare.setup_s)
            spare.close()
        gc.collect()
        run = scenarios.setup(workload, seed, ticks)
        rep.setup_s.append(run.setup_s)
        rep.warmup_ticks = run.config.warmup_ticks
        try:
            if tracer is not None:
                if run.injector is not None:
                    tracer.wrap_fault_policy(run.system.network)
                tracer.enabled = True
            between = None if probe is None else lambda: rep.calibration.append(probe())
            rep.ticks = scenarios.step(run, between)
            if tracer is not None:
                tracer.restore()
            rep.fingerprint = scenarios.fingerprint(run.system, run.config)
            rep.checks = scenarios.check_run(run, rep.fingerprint, golden)
            if reference is not None:
                same = rep.fingerprint == reference
                rep.checks.append(
                    ("traced_matches_untraced", None if same else "fingerprints differ")
                )
            if tracer is not None:
                rep.layers = layer_metrics(tracer, run, rep)
        finally:
            run.close()
        rep.checks.insert(0, ("finishes", None))
    except Exception:  # the boundary that must report and keep going
        traceback.print_exc(file=sys.stderr)
        rep.checks.append(("finishes", "raised; traceback on stderr"))
    finally:
        if tracer is not None:
            tracer.restore()
    return rep


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, run, rep: Rep) -> Dict[str, float]:
    """The per-layer metrics of one traced run (after its drain); times are
    at the reference speed."""
    metrics: Dict[str, float] = {}

    def put(layer: str, *fields: str) -> None:
        stats = tracer.stats(layer)
        for field in fields:
            if field == "calls":
                metrics[f"{layer}.calls"] = stats.calls
            elif field == "self_s":
                metrics[f"{layer}.self_s"] = rep.scaled(stats.self_s)
            else:
                metrics[f"{layer}.{field}"] = stats.counts.get(field, 0)

    put("runtime.scheduler", "self_s")
    metrics["runtime.events"] = run.runtime.scheduler.processed_events
    put("workloads.generate", "calls", "self_s", "tuples")
    put("core.sic_assign", "calls", "self_s", "tuples")
    put("core.shed", "calls", "self_s", "tuples_in", "tuples_kept")
    metrics["core.shed.keep_ratio"] = _ratio(
        metrics["core.shed.tuples_kept"], metrics["core.shed.tuples_in"]
    )
    put("core.batch_split", "calls", "self_s")
    put("streaming.fragment_deliver", "calls", "self_s", "tuples")
    put("streaming.fragment_process", "calls", "self_s")
    put("streaming.fused", "calls", "self_s")
    metrics["streaming.fused.hit_ratio"] = _ratio(
        tracer.stats("streaming.fused").counts.get("hits", 0),
        metrics["streaming.fused.calls"],
    )
    put("streaming.operator_advance", "calls", "self_s")
    put("streaming.window_insert_block", "calls", "self_s", "tuples")
    put("streaming.window_insert_rows", "calls", "self_s", "tuples")
    rows = metrics["streaming.window_insert_rows.tuples"]
    metrics["streaming.row_share"] = _ratio(
        rows, rows + metrics["streaming.window_insert_block.tuples"]
    )

    network = run.system.network
    net = network.stats
    put("federation.send", "calls", "self_s")
    metrics["federation.send.bytes"] = network.bytes_sent
    put("federation.deliver", "calls", "self_s")
    put("federation.source_route", "self_s")
    put("federation.node_round", "calls", "self_s")
    put("federation.coordinator", "calls", "self_s")
    metrics["federation.messages_sent"] = network.sent_messages
    metrics["federation.bytes_sent"] = net.bytes_wire
    metrics["federation.acks_sent"] = net.acks_sent
    metrics["federation.retransmits"] = sum(net.retransmits.values())
    kinds = network.RELIABLE_KINDS
    metrics["federation.delivery_ratio"] = _ratio(
        sum(net.delivered.get(k, 0) for k in kinds),
        sum(net.sent.get(k, 0) + net.retransmits.get(k, 0) for k in kinds),
    )

    put("state.checkpoint", "calls", "self_s", "envelopes")
    put("state.ledger", "calls", "self_s")
    put("faults.policy", "calls", "self_s")
    injector = run.injector
    metrics["faults.dropped"] = sum(injector.drops_by_cause.values()) if injector else 0
    metrics["faults.duplicated"] = injector.duplicated if injector else 0

    metrics["trace.coverage"] = _ratio(
        sum(stats.self_s for stats in tracer.layers.values()), rep.stepped_s
    )
    return metrics


# ------------------------------------------------------------- measurement
def measure(scenarios, workload, seed: int, seconds: float, golden, trace: bool,
            probe: Callable[[], float]):
    """Repeat the workload for about ``seconds``.

    Returns ``(warmup, untraced, traced, tracer)``.  A short unmeasured run
    goes first so imports, caches and lazy set-up are warm.  When tracing,
    each untraced run is followed by a traced one, whose fingerprint must
    equal it; ``tracer`` holds the spans of the last traced run.  Once the
    minimum number of runs is made, no run starts that would likely end
    after ``seconds``.
    """
    import layertrace

    warmup = run_rep(scenarios, workload, seed, None, ticks=WARMUP_TICKS)
    untraced: List[Rep] = []
    traced: List[Rep] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        rep = run_rep(scenarios, workload, seed, golden, probe=probe)
        untraced.append(rep)
        if trace:
            tracer = layertrace.install()
            traced.append(run_rep(scenarios, workload, seed, None, tracer=tracer,
                                  reference=rep.fingerprint, probe=probe))
        if not rep.ticks:
            break  # it did not finish; repeating it measures nothing
        now = time.perf_counter()
        enough = trace or len(untraced) >= MIN_RUNS
        if enough and now + (now - started) > deadline:
            break
    return warmup, untraced, traced, tracer


def timing_metrics(reps: List[Rep], scaled: bool) -> Dict[str, float]:
    """Speed, interval latency and set-up time over ``reps``; wall times are
    taken at the reference speed when ``scaled``.

    The latency percentiles are taken over the intervals after the warm-up,
    each interval's time being its median over the runs: the runs step the
    same deterministic work, so the median keeps the work's own spread of
    interval costs and drops most of the machine's noise.
    """
    def wall(rep: Rep, seconds: float) -> float:
        return rep.scaled(seconds) if scaled else seconds

    measured = [[wall(r, t) for t in r.ticks[r.warmup_ticks:]] for r in reps]
    profile = [statistics.median(interval) for interval in zip(*measured)]
    return {
        "tuples_per_s": statistics.median(
            r.fingerprint["received_tuples"] / wall(r, r.stepped_s) for r in reps
        ),
        "tick_p50_ms": statistics.median(profile) * 1e3,
        "tick_p90_ms": statistics.quantiles(profile, n=10)[8] * 1e3,
        "setup_s": statistics.median(wall(r, s) for r in reps for s in r.setup_s),
    }


def end_to_end_metrics(scenarios, reps: List[Rep]) -> Dict[str, float]:
    finished = [r for r in reps if r.fingerprint is not None]
    jain, mean_sic = scenarios.fairness(finished[0].fingerprint)
    return {
        **timing_metrics(finished, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jain_index": jain,
        "mean_sic": mean_sic,
    }


def per_layer_metrics(untraced: List[Rep], traced: List[Rep]) -> Dict[str, float]:
    finished = [r for r in traced if r.layers]
    metrics = {
        key: statistics.median(r.layers[key] for r in finished)
        for key in finished[0].layers
    }
    metrics["trace.overhead"] = statistics.median(
        r.scaled(r.stepped_s) for r in finished
    ) / statistics.median(r.scaled(r.stepped_s) for r in untraced if r.ticks)
    return metrics


UNITS = {"tuples_per_s": "tuples/s", "tick_p50_ms": "ms", "tick_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "jain_index": "ratio",
         "mean_sic": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", "row_share", "coverage", "overhead")):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_sent"):
        return "B"
    return "count"


def write_spans(path: Path, tracer) -> None:
    """One CSV row per span; times in microseconds from the first span."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "start_us", "end_us", "parent"])
        for name, start, end, parent in tracer.span_rows():
            writer.writerow([name, round(start * 1e6), round(end * 1e6), parent])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_imports()
    import scenarios

    workload = scenarios.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(scenarios.WORKLOADS)}")
    golden = None
    if args.seed == scenarios.GOLDEN_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload.name]

    with Probe() as probe:
        warmup, untraced, traced, tracer = measure(
            scenarios, workload, args.seed, args.seconds, golden,
            bool(args.trace), probe,
        )
    reps = [warmup, *untraced, *traced]
    checks = [check for rep in reps for check in rep.checks]
    failures = [f"{name}: {problem}" for name, problem in checks if problem]
    finished = any(r.fingerprint is not None for r in untraced) and (
        not args.trace or any(r.layers for r in traced)
    )
    metrics: Dict[str, float] = {}
    if finished:
        metrics = (per_layer_metrics(untraced, traced) if args.trace
                   else end_to_end_metrics(scenarios, untraced))
    detail = {
        "workload": workload.name,
        "provenance": provenance(args.seed),
        "runs": len(untraced),
        "traced_runs": len(traced),
        "ticks_per_run": workload.config(args.seed).total_ticks,
        "latency_samples": len(untraced[0].ticks) - untraced[0].warmup_ticks,
        "slowdown": [round(r.slowdown, 4) for r in untraced if r.ticks],
        "unscaled": timing_metrics(
            [r for r in untraced if r.fingerprint is not None], scaled=False
        ) if finished else None,
        "fingerprint": untraced[0].fingerprint,
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    samples = [{"setup_s": r.setup_s, "warmup_ticks": r.warmup_ticks,
                "ticks": r.ticks, "calibration": r.calibration} for r in untraced]
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"detail": detail, "result": result, "samples": samples}, indent=1
    ) + "\n")
    if tracer is not None:
        write_spans(OUT / f"{stem}.spans.csv", tracer)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if finished else 1


if __name__ == "__main__":
    sys.exit(main())
