"""The host's current speed, from a fixed reference kernel.

The shared machines this benchmark runs on change speed in phases that
last minutes: every host timing of the simulator, set-up included, and
this kernel's time grow together by up to ~1.9x.  A run samples the
kernel before each pass, and the benchmark scales its host timings by
``REFERENCE_S`` over the median sample, i.e. to a host on which the
kernel takes ``REFERENCE_S``.

The kernel is object-heavy pure Python (instances, a keyed sort, dict
of lists), like the simulator's own hot paths, with a working set of a
few MiB: a kernel that fits in a core's own cache missed the slow-downs
that contention for the shared cache brings.  It lives here rather than
in ``src/`` so that no change to the program moves it, and it runs in a
helper process of its own: inside the benchmark's process it ran ~40 %
slower after the simulator's passes than in a fresh one, so the
program's own heap would have moved the factor.  The helper runs only
while the benchmark waits for its answer.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any

#: kernel time, in a fresh process, on the reference host; the host the
#: benchmark was tuned on (2-vCPU shared Intel Xeon, Python 3.11.7) took
#: 24-26 ms in a slow phase
REFERENCE_S = 0.0135
#: objects the kernel builds and sorts
ITEMS = 20_000
#: kernel calls per sample; a sample is their mean, as a pass's host time
#: is the sum over fast and slow moments alike
CALLS = 3


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.c = a * b


def reference_kernel() -> int:
    items = [_Item(i, i % 7) for i in range(ITEMS)]
    items.sort(key=lambda o: (o.c, o.a))
    groups: dict[int, list[int]] = {}
    for o in items:
        groups.setdefault(o.b, []).append(o.c)
    return sum(len(v) for v in groups.values())


def kernel_seconds() -> float:
    """Mean time of ``CALLS`` kernel calls."""
    t0 = perf_counter()
    for _ in range(CALLS):
        reference_kernel()
    return (perf_counter() - t0) / CALLS


class HostSpeed:
    """Kernel samples over a run, each taken in the helper process.

    Use as a context manager: leaving it closes the helper's input and
    waits for the helper to exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc: Any) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)
        self._helper.stdout.close()

    def sample(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.samples.append(float(self._helper.stdout.readline()))

    def kernel_s(self) -> float:
        """The median sample."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that takes a host time of this run to the reference host."""
        return REFERENCE_S / self.kernel_s()


if __name__ == "__main__":
    # helper: one sample per input line, until the input closes
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
