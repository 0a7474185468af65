"""Check that the calibration probe follows the machine, not the workload.

Usage (from the repository root)::

    python3 perfbench/probe_check.py --rounds 6

Steps every workload at seed 0 in turn, ``--rounds`` times, timing the
probe of ``calibration.py`` after every interval as ``run.py`` does.  For
each workload it prints the median probe time over all its intervals, and
the spread (standard deviation over mean, across rounds) of the stepped
time before and after dividing it by the round's probe median.  Medians
that agree across workloads show that the probe does not depend on what
the simulator runs; a smaller spread after scaling shows that it follows
the machine's drift.
"""

from __future__ import annotations

import argparse
import statistics

import run as bench
from calibration import Probe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()
    bench.prepare_imports()
    import scenarios

    names = sorted(scenarios.WORKLOADS)
    probes = {name: [] for name in names}
    stepped = {name: [] for name in names}
    with Probe() as probe:
        for name in names:
            bench.run_rep(scenarios, scenarios.WORKLOADS[name], 0, None,
                          ticks=bench.WARMUP_TICKS)
        for _ in range(args.rounds):
            for name in names:
                rep = bench.run_rep(scenarios, scenarios.WORKLOADS[name], 0, None,
                                    probe=probe)
                probes[name].append(rep.calibration)
                stepped[name].append((rep.stepped_s, rep.slowdown))

    def spread(values):
        return statistics.pstdev(values) / statistics.mean(values)

    print(f"{'workload':16} {'probe_ms':>9} {'raw_spread':>11} {'scaled_spread':>14}")
    for name in names:
        median_ms = statistics.median(t for run in probes[name] for t in run) * 1e3
        raw = spread([s for s, _ in stepped[name]])
        scaled = spread([s / slowdown for s, slowdown in stepped[name]])
        print(f"{name:16} {median_ms:9.4f} {raw:11.3f} {scaled:14.3f}")


if __name__ == "__main__":
    main()
