"""Host-speed probe: express measured times at one reference speed of the host.

The benchmark runs on a guest of a shared machine whose CPU speed drifts
as other tenants load it: one workload call, same input, same process,
takes 2.2 s in one minute and 4.1 s a few minutes later, and its CPU time
moves with it.  Medians over a run do not remove a drift that lasts
minutes, so two runs of the same code, minutes apart, disagree by more
than any useful regression bound.

A fixed probe -- interpreted float arithmetic and a numpy sort of a small
fixed array, code that is not qdemux's -- is timed beside the measured
work.  While a call runs, a timer signal runs the probe every
``PERIOD_S`` seconds (between bytecodes, so it waits for a long native
call to return); the probes' time is taken out of the call's wall time.
A set-up process runs the probe right after its set-up.  A time ``t``
measured beside probes of median time ``p`` is reported as
``t * PROBE_REF_S / p``: the time the work takes when the host runs the
probe in ``PROBE_REF_S`` seconds (a speed this host reaches when lightly
loaded).  A change to qdemux moves ``t`` and leaves ``p`` alone, so the
scaled time moves with it; a slower host moves both.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Time of one probe at the reference speed.
PROBE_REF_S = 4.0e-3
# Interval of the timer that samples the probe during a call.
PERIOD_S = 0.1
# Probes run after a set-up, which is too short to sample during.
PROBES_AFTER = 20


class HostSpeed:
    """Times the probe during calls or after a measured interval."""

    def __init__(self) -> None:
        self._ints = np.random.default_rng(12345).integers(0, 1 << 40, 20_000)
        self._samples: list[float] = []
        self._busy = False
        self.probe()  # first-call costs stay out of the samples

    def probe(self) -> float:
        """Run the probe once; its wall time in seconds."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(1, 2000):
            x = i * 1e-5
            acc += math.sqrt(1.0 + x * x / (x + 0.5)) - math.sin(x)
        np.unique(self._ints)
        return time.perf_counter() - start

    def after(self, elapsed_s: float) -> float:
        """``elapsed_s`` at the reference speed, probing right after it."""
        probes = [self.probe() for _ in range(PROBES_AFTER)]
        return elapsed_s * PROBE_REF_S / statistics.median(probes)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._samples.append(self.probe())
            finally:
                self._busy = False

    def sampled(self, fn):
        """Call ``fn()`` with the probe sampled every ``PERIOD_S`` seconds."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale_sampled(self, elapsed_s: float) -> tuple[float, float]:
        """Wall time of the last sampled call without its probes, raw and scaled."""
        net = elapsed_s - sum(self._samples)
        return net, net * PROBE_REF_S / statistics.median(self._samples)
