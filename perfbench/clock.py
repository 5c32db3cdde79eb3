"""Call timing that is steady on a shared host.

The machine this benchmark was built on shares its CPUs with other tenants.
It switches, for a second to minutes at a time, between its full speed and
a state in which the same Python code runs 1.4 to 1.8 times slower, and no
counter inside the guest (steal time, CPU time) shows it.  A run's median
wall time then says as much about the neighbours as about the program.

`SpeedClock` brackets every timed call with a probe, a fixed kernel of the
same two kinds of work the timed calls do: NumPy calls on small arrays and
float text formatting and parsing.  A call's duration is divided by the mean
of the probe times before and after it and multiplied by `PROBE_REF_S`, the
probe's time at full speed on the reference machine.  The result reads as
the call's wall time on that machine when nothing else runs.  It follows the
neighbours' load far less than the raw time for calls that, like the probe,
are bound by the interpreter; calls bound by memory or by two threads taking
turns on the interpreter lock slow down less than the probe, so scaling
corrects them only in part.  The raw wall times are kept too.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Probe time, in seconds, at full speed on the 2-core machine the reference
# figures in README.md come from.
PROBE_REF_S = 0.0024
_PROBE_LOOPS = 300


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.standard_normal((10, 3))
        self._weights = rng.standard_normal(10)
        self._values = rng.standard_normal(300)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self._last = self.probe()

    def probe(self) -> float:
        """Seconds the fixed kernel takes now."""
        start = time.perf_counter()
        pts, w = self._points, self._weights
        acc = 0.0
        for i in range(_PROBE_LOOPS):
            d = pts - pts[i % 10]
            acc += float(np.exp(-0.5 * np.sum(d * d, axis=1)) @ w)
        text = " ".join("%.17g" % v for v in self._values)
        acc += sum(float(c) for c in text.split())
        if not np.isfinite(acc):
            raise ArithmeticError("probe kernel produced a non-finite value")
        return time.perf_counter() - start

    def time(self, key: str, fn, *args, **kwargs):
        """Call fn, record its raw and speed-scaled seconds under key, and
        return its result."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = self.probe()
        self.raw[key].append(elapsed)
        self.scaled[key].append(elapsed * PROBE_REF_S / (0.5 * (self._last + after)))
        self._last = after
        return result
