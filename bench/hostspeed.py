"""Host speed, measured with fixed work between the timed calls.

On a shared virtual machine the same call can take 30% longer a minute
later, because neighbours load the host, and user+sys CPU time grows with
it. A sample runs two fixed units of work for half a second and returns
their mean time as a multiple of REFERENCE_S: 1.0 at the reference speed,
1.3 on a host running 30% slower. run_bench.py divides every timed call by
the mean of the samples taken just before and just after it. That cancels
drift slower than a call, not faster noise: one sample agrees with the
next call's time only loosely.

The units are the program's kind of work: copying a 32 MB array, which
streams memory, and scipy sparse times dense products with numpy
reductions. Of the units tried, the copy tracked the program best, and a
plain-Python unit (JSON parsing and counting) moved about five times as
much as the program did, so scaling by it over-corrected. The units run in
a helper process: numpy and the buffers in the benchmark's own process
would raise the peak RSS that every child, forked from it, inherits in
ru_maxrss. Nothing here imports diachron, so a change to the program
cannot change the yardstick.

    python3 bench/hostspeed.py SECONDS   # print unit medians over SECONDS
    python3 bench/hostspeed.py --serve   # one sample per line read
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# median unit times on the 2-vCPU Intel Xeon VM that recorded the baseline;
# any constant would do, since a comparison divides two values scaled by it
REFERENCE_S = {"copy": 0.0066, "sparse": 0.0088}
SAMPLE_S = 0.5


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Units:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        self.np = np
        rng = np.random.default_rng(12345)
        self.source = rng.random(4_000_000)
        self.target = np.empty_like(self.source)
        self.matrix = sp.random(4000, 5000, density=0.004, format="csr", random_state=1)
        self.axes = rng.random((20, 5000))
        self.units = (("copy", self.copy), ("sparse", self.sparse))
        self.sample()  # first touches of the data and code are not timed later

    def copy(self) -> None:
        self.np.copyto(self.target, self.source)

    def sparse(self) -> None:
        for _ in range(6):
            scores = self.matrix @ self.axes.T
            scores.argmax(axis=1)
            self.np.sort(scores, axis=0)

    def sample(self, seconds: float = SAMPLE_S) -> float:
        """Mean unit time over about `seconds`, as a multiple of the reference."""
        ratios = []
        stop = clock() + seconds
        while clock() < stop:
            for name, unit in self.units:
                t0 = clock()
                unit()
                ratios.append((clock() - t0) / REFERENCE_S[name])
        return sum(ratios) / len(ratios)


class HostSpeed:
    """Client of a `--serve` helper process; close() stops and reaps it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.sample()  # waits until the helper is ready

    def sample(self) -> float:
        self.proc.stdin.write("sample\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host speed helper exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main(argv: list[str]) -> int:
    units = Units()
    if argv[1:] == ["--serve"]:
        for _ in sys.stdin:
            print(repr(units.sample()), flush=True)
        return 0
    seconds = float(argv[1]) if len(argv) > 1 else 20.0
    times = {name: [] for name, _ in units.units}
    stop = clock() + seconds
    while clock() < stop:
        for name, unit in units.units:
            t0 = clock()
            unit()
            times[name].append(clock() - t0)
    for name, values in times.items():
        print(f"{name:8s} median {statistics.median(values):.6f} s over {len(values)} units")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
