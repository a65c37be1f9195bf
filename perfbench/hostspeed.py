"""Host-speed probe: scales measured times to a reference host speed.

On a shared virtual machine the speed of the host drifts by tens of
percent over seconds: a fixed pure-Python computation timed once a
second varies that much, in CPU time as well as wall time.  Every timed
quantity of a run inherits that drift, which would bury changes of the
program under noise.

The benchmark therefore times :func:`reference_work` -- a fixed
computation that does not touch the program -- between slices of the
closed loop, and before and after each set-up and check, while nothing
else runs.  A probe is the median of three timings, so one preempted
timing does not skew it.

The two vCPUs of the host drift partly independently.  A workload whose
client and server processes keep both busy at once probes both at once:
a helper process (this file run as a script) times the same work while
the benchmark process does, and the probe is the mean of the two.  A quantity measured between two probes is scaled by
``REFERENCE_S / mean(probe before, probe after)``: times are multiplied
by that factor and rates divided by it.  The run prints the raw value
beside every scaled one.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Median probe seconds (one :func:`reference_work` call) on the host the
#: benchmark was tuned on (2 vCPU x86-64 VM, Python 3.11).  Scaled values
#: read as what that host would have measured at its median speed.
REFERENCE_S = 0.0035

_ROUNDS = 4000
_TIMINGS = 3


def reference_work() -> int:
    """A fixed mix of integer arithmetic, bytes and list operations, the
    kind of bytecode the program's own Python code runs."""
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    block = list(bytes(range(64)))
    for i in range(_ROUNDS):
        a, b, c, d, e = state
        word = block[i & 63] | (block[(i + 1) & 63] << 8)
        f = (b & c) | (~b & d)
        temp = (((a << 5) | (a >> 27)) + f + e + word + 0x5A827999) \
            & 0xFFFFFFFF
        state = [temp, a, ((b << 30) | (b >> 2)) & 0xFFFFFFFF, c, d]
        block[i & 63] = temp & 0xFF
    return state[0]


def _timed() -> float:
    """Median seconds of ``_TIMINGS`` :func:`reference_work` calls."""
    timings = []
    for _ in range(_TIMINGS):
        start = time.perf_counter()
        reference_work()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class HostSpeed:
    """Probe results of one run and the scale factors they give.

    With ``both_vcpus`` a helper process probes the other vCPU at the
    same time; :meth:`close` stops it."""

    def __init__(self, both_vcpus: bool = False) -> None:
        self.probes: list[float] = []
        self._helper = None
        if both_vcpus:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)

    def probe(self) -> float:
        """Seconds of one probe (the mean over both vCPUs if probed)."""
        if self._helper is not None:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
        seconds = _timed()
        if self._helper is not None:
            seconds = (seconds + float(self._helper.stdout.readline())) / 2
        self.probes.append(seconds)
        return seconds

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=30)
            self._helper.stdout.close()
            self._helper = None

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for a quantity measured between two probes."""
        return REFERENCE_S / ((before + after) / 2)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.probes)


if __name__ == "__main__":
    # Helper mode: one probe per line read, its seconds written back.
    for _request in sys.stdin:
        print(_timed(), flush=True)
