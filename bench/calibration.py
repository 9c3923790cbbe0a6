"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared virtual machines whose speed drifts by
+-20% over seconds to minutes: the same pure-Python loop, timed in 10 s
windows for two minutes, has a quartile spread of 0.15-0.20 of its
median, and CPU time drifts as much as wall time. The drift is common to
the whole run, so no run length averages it out. So every run
interleaves a fixed calibration task with its ops, and reports times in
*reference seconds*: an op's measured time is multiplied by

    REFERENCE_S / median(the WINDOW calibration samples nearest the op)

The task is fixed code outside aamcba: a pure-Python loop, a PyYAML
parse of a small fixed document, small numpy array operations,
``marshal.loads`` of a fixed code object and a random gather from an
8 MB array. A change to aamcba cannot change its cost, and it runs with
the garbage collector paused, so the program's heap does not enter it
either. Its mix was chosen on the machine of the baseline; see
README.md, "Calibration".
"""
from __future__ import annotations

import bisect
import gc
import marshal
import statistics
import time

#: Median time of one calibration sample on the machine the baseline
#: was taken on (2-core VM, Python 3.11.7): the length of a reference
#: second. Changing it rescales every reported time, so compare only
#: results taken with the same value.
REFERENCE_S = 0.0220

#: Least time between two samples: an op starts after a fresh sample
#: whenever this much time has passed since the last one.
INTERVAL_S = 0.2

#: Number of samples, nearest in time, whose median scales one op.
WINDOW = 7


class Calibration:
    """The calibration samples of one run and the scales they give."""

    def __init__(self) -> None:
        import numpy as np
        import yaml

        doc = {f"k{i}": {"a": [j * 1.1 for j in range(20)], "b": "x" * i}
               for i in range(8)}
        source = "\n".join(
            f"def f{i}(x):\n    return [x * {i} + j for j in range({i})]\n"
            for i in range(200))
        rng = np.random.default_rng(0)
        self._text = yaml.safe_dump(doc)
        self._code = marshal.dumps(compile(source, "<calibration>", "exec"))
        self._vector = rng.standard_normal(64)
        # 8 MB, past the caches a core of a shared host gets; it and the
        # picks add about 9 MB to the benchmark's resident set.
        self._table = rng.standard_normal(1_000_000)
        self._picks = rng.integers(0, self._table.size, 100_000)
        self._safe_load = yaml.safe_load
        self._dot = np.dot
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._last = float("-inf")
        self.task()  # warm up; not a sample

    def task(self) -> None:
        """The fixed calibration work, about 22 ms on the reference machine."""
        s = 0
        for i in range(30_000):
            s += i * i % 7
        self._safe_load(self._text)
        x = self._vector
        for _ in range(300):
            (x[1:] * x[:-1]).sum()
            self._dot(x, x)
        for _ in range(20):
            marshal.loads(self._code)
        self._table[self._picks].sum()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.task()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.samples.append(end - start)
        self._last = end

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Reference seconds per measured second, over the whole run."""
        return REFERENCE_S / self.median_s()

    def scale_at(self, when: float) -> float:
        """Reference seconds per measured second around ``when`` (a
        ``perf_counter`` reading), from the WINDOW nearest samples."""
        i = bisect.bisect_left(self.starts, when)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + WINDOW])
