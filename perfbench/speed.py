"""Host-speed sampler: scales measured durations to a fixed reference speed.

The benchmark runs on shared cores whose speed drifts by a quarter or more
over tens of seconds, for the library and for any other Python code alike.
An interval timer interrupts the main thread every ``PERIOD_S`` seconds and
its signal handler times a small fixed kernel, so each sample measures the
host's speed at that moment.  The kernel runs in the thread under test,
which is paused meanwhile, so it does not compete with the code under test.
Worker processes that the code may start would compete with it, so for a
job during which a child process ended (its CPU time was added to
``RUSAGE_CHILDREN``) only the samples taken before and after the job count.

A job's duration is first reduced by the sample time that overlapped it, then
multiplied by ``REF_KERNEL_S`` over the median sample taken within
``WINDOW_S`` of the job: the result is the duration the job would have had
on a host where the kernel takes ``REF_KERNEL_S``.  The process starts no
thread for this, and forked children do not inherit the timer.
"""

import bisect
import resource
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
WINDOW_S = 0.25
REF_KERNEL_S = 0.00125


def kernel():
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def children_cpu_s():
    """CPU time of the ended child processes of this process."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class SpeedSampler:
    def __init__(self):
        self.samples = []           # (start, end), appended in time order
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        for _ in range(3):
            self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _sample(self, *signal_args):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter()))

    def scaled(self, t0, t1, outside_only=False):
        """The job duration t1 - t0 at the reference speed.

        With ``outside_only`` the samples taken during the job are not used
        for the speed.
        """
        samples = self.samples
        i = bisect.bisect_left(samples, (t0 - WINDOW_S,))
        j = bisect.bisect_left(samples, (t1 + WINDOW_S,))
        near = samples[i:j] or samples[max(0, i - 3):i + 3]
        busy = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in near)
        if outside_only:
            near = [(s, e) for s, e in near if e <= t0 or s >= t1] or near
        speed = statistics.median(e - s for s, e in near)
        return (t1 - t0 - busy) * REF_KERNEL_S / speed
