"""The machine's speed, timed in a process of its own.

On a shared machine the simulator's speed drifts by up to a third over
minutes with the load of neighbours this process cannot see (its CPU time
equals its wall time throughout).  ``run.py`` divides its wall times by the
slowdown this probe measures against :data:`REFERENCE_S`.

The probe is a random gather over an 8 MB array, larger than a core's L2
cache: the simulator's drift follows contention for the shared cache and
memory, which a loop that stays in L1 does not see.  It runs in a child
process, so no state of the simulator (its heap, its allocator, its
objects) can change what the probe does; the parent waits while it runs.

Run as a script, this module is the child: it times one probe for every
line it reads and writes the seconds back, until its input closes.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

#: Seconds one probe takes at the reference speed.
REFERENCE_S = 1.8e-3

_ARRAY_LEN = 1 << 20  # int64: 8 MB
_GATHERS = 100_000


class Probe:
    """The child process and its pipes; close it (or use ``with``) to stop it."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def __call__(self) -> float:
        """Wall seconds of one probe."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("calibration probe exited")
        return float(line)

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    import numpy as np

    data = np.arange(_ARRAY_LEN, dtype=np.int64)
    index = np.random.default_rng(1).integers(0, _ARRAY_LEN, _GATHERS)
    clock = time.perf_counter
    for _ in sys.stdin:
        start = clock()
        data.take(index).sum()
        sys.stdout.write(f"{clock() - start!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
