"""Machine-speed probes, run in processes of their own.

The host this benchmark was built on gives a process anywhere between about
0.6x and 1x of its full speed, in spells that last tens of seconds (see
README.md).  Timings are therefore divided by the time of a fixed probe
measured right after them:

* ``kernel`` (for the command's repetitions) mixes numpy lane arithmetic,
  interpreted integer work, touching fresh memory, and building and
  formatting small Python rows, the kinds of work the workloads do.  It runs
  in a separate, long-lived process that does nothing else, so its time
  depends only on the machine and never on what the measured process left
  behind (an in-process probe ran up to 2x slower after large numpy
  allocations).
* ``startup`` (for the set-up) starts a fresh interpreter that imports numpy,
  the same kind of work as the set-up, which slowed by up to 1.7x between
  spells while ``kernel`` slowed by 1.25x.

Neither imports anything from cfrenewal.
"""

from __future__ import annotations

import subprocess
import sys
import time


def kernel() -> float:
    """Seconds for a fixed mix of numpy, interpreter, fresh-memory and row-formatting work."""
    import numpy as np

    z = np.arange(8192, dtype=np.uint64)
    t = time.perf_counter()
    for _ in range(450):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        np.floor(1.0 / ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 0.5))
    s = 0
    for i in range(225_000):
        s = (s * 31 + i) & 0xFFFFFFFF
    for _ in range(2):
        np.ones(4 << 20)  # 32 MB of fresh pages, freed at once
    rows = [(i, 1000, 7 * i, i % 13, i / 7.0) for i in range(10_000)]
    "\n".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return time.perf_counter() - t


def startup() -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t


class SpeedProbe:
    """Handle on the probe process; ``measure()`` runs the kernel there once."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self.measure()  # the first kernel run pays for numpy's own warm-up

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe process ended")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel(), flush=True)
