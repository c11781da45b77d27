"""CPU time corrected for the speed of a shared machine.

On a machine shared with other tenants the CPU time of the same call moves
by 10-40 % from minute to minute, as neighbours on the same cores come and
go.  ``Speedometer`` measures how fast the machine runs while a call runs:
a SIGALRM interval timer interrupts the process every ``INTERVAL_S`` and
runs a fixed loop of the kind starq spends its time in (Fraction
arithmetic in a dict under sorted tuple keys).  A call's CPU time, less the
time spent in those samples, is scaled by ``REFERENCE_S`` over the
trimmed mean of the sample times during the call.  The result reads as CPU
seconds on a machine where one sample takes ``REFERENCE_S``; the constant
only fixes that unit.

The timer is a wall-clock one on purpose: while a process-wide CPU timer
(ITIMER_PROF or ITIMER_VIRTUAL) is armed, Linux reads the process CPU clock
only at scheduler ticks, and a one-millisecond sample reads as zero.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

ITERATIONS = 200
REFERENCE_S = 0.00095
INTERVAL_S = 0.02
# Calls that saw fewer samples than this use the most recent RECENT samples.
MIN_SAMPLES = 5
RECENT = 25


def sample_loop() -> None:
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(ITERATIONS):
        key = tuple(sorted((i % 7, i % 11, i % 13)))
        value = acc.get(key, 0) + step * Fraction(i % 7 + 1, i % 5 + 1)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)


class Speedometer:
    """Samples the machine's speed; ``sampling=False`` reports raw CPU time."""

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds inside the samples
        self.warmup_s = 0.0  # CPU seconds spent waiting for the first samples
        if sampling:
            start = time.process_time()
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            while len(self.samples) < RECENT:
                sample_loop()
            self.warmup_s = time.process_time() - start - self.spent

    def _sample(self, signum, frame) -> None:
        # A collection started inside the sample would be starq's garbage,
        # and its time would be taken out of starq's CPU time.
        collecting = gc.isenabled()
        gc.disable()
        start = time.process_time()
        sample_loop()
        elapsed = time.process_time() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def stop(self) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, time.process_time()

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(raw, corrected) CPU seconds since ``mark``, samples excluded."""
        count, spent, start = mark
        raw = time.process_time() - start - (self.spent - spent)
        if not self.sampling:
            return raw, raw
        during = self.samples[count:]
        if len(during) < MIN_SAMPLES:
            during = self.samples[-RECENT:]
        return raw, raw * REFERENCE_S / trimmed_mean(during)


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the fastest and the slowest tenth.  A sample hit by a
    context switch or a burst on the sibling core says little about the call
    around it; dropping them halved the round-to-round spread of
    ``verify_s`` against the plain mean."""
    ordered = sorted(samples)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])
