"""Machine-speed meter: turns measured wall times into nominal seconds.

The shared two-core VMs this benchmark was defined on change how fast a
core runs by up to 2x within seconds, as other tenants load the same
physical cores, and the two cores do not change together.  Raw wall time
cannot tell that apart from a change to the code: ten runs of the same
commit spread by 0.1 to 0.25 of their median (quartile distance).

So the benchmark pins itself and every child to one CPU (`pin`), and a
meter process on that CPU (`python3 bench/speed.py`, started by `Meter`)
runs a fixed probe every PERIOD_S: a DOP853 `solve_ivp` of a 4x4 complex
linear system, a small `mpmath.quad` and a batch of `np.roots` calls.
That is the scipy, mpmath and numpy work the library spends its time in,
but none of the library's own code, so a change to critkernels leaves the
probe's cost alone.  The probe's time is CPU time, so sharing the CPU
with the benchmarked process does not count, only the speed the CPU
gives it.  The probe takes about 4% of the CPU.

`Meter.nominal(a, b, wall)` rescales a wall time measured over [a, b]
(`time.perf_counter()` stamps, which are CLOCK_MONOTONIC and so agree
between processes) by the mean of NOMINAL_PROBE_S / probe time over the
probes started in [a, b], widened to at least MIN_PROBES probes.
NOMINAL_PROBE_S is the probe's typical time on that VM, so a nominal
second is about a second there.

The meter is a process of its own, not a thread, so that the benchmark
process stays small: a child's peak resident set counts its parent's
at the moment it was started.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.1
NOMINAL_PROBE_S = 0.004
MIN_PROBES = 5


def pin() -> int:
    """Pin the calling thread, and so every child started after it, to the
    highest CPU it may run on; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Meter:
    """The meter process of one run and, once stopped, its samples.

    It returns once the meter process has warmed up, so the meter's own
    start-up does not share the CPU with anything timed.
    """

    def __init__(self, env: dict | None = None):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._proc = subprocess.Popen([sys.executable, __file__], env=env,
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline() != "ready\n":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("speed meter did not start")

    def stop(self) -> None:
        """End the meter process (closing its stdin) and read its samples."""
        try:
            out, _ = self._proc.communicate(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed meter exited {self._proc.returncode}")
        samples = json.loads(out)
        self.starts = [start for start, _ in samples]
        self.times = [spent for _, spent in samples]

    def factor(self, a: float, b: float) -> float:
        """Mean of NOMINAL_PROBE_S / probe time over the probes in [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if hi <= lo:
            raise RuntimeError("speed meter took no samples")
        return statistics.fmean(NOMINAL_PROBE_S / t for t in self.times[lo:hi])

    def nominal(self, a: float, b: float, wall: float | None = None) -> float:
        """Wall time over [a, b] (b - a unless given) in nominal seconds."""
        return (b - a if wall is None else wall) * self.factor(a, b)


def _probe():
    """The probe: a function returning the CPU seconds of one fixed task."""
    import mpmath
    import numpy as np
    from scipy.integrate import solve_ivp

    rng = np.random.default_rng(0)
    u1 = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u0 = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    y0 = np.eye(4, dtype=complex).reshape(16)
    cubics = rng.standard_normal((20, 4))

    def rhs(r, y):
        return ((u1 * r + u0) @ y.reshape(4, 4)).reshape(16)

    def weight(y):
        return mpmath.exp(-y ** 4 / 4 - y ** 2 / 2)

    def probe() -> float:
        t0 = time.thread_time()
        solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-10, atol=1e-12)
        with mpmath.workdps(15):
            mpmath.quad(weight, [0, 1])
        for c in cubics:
            np.roots(c)
        return time.thread_time() - t0

    return probe


def main() -> None:
    """Probe every PERIOD_S until stdin closes, then print the samples."""
    import select

    probe = _probe()
    probe()  # warm the code paths before the first sample
    samples = []
    print("ready", flush=True)
    while True:
        start = time.perf_counter()
        samples.append((start, probe()))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            if not sys.stdin.read():
                break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
