"""Speed correction: a fixed reference loop timed during every operation.

The benchmark runs on a shared 2-vCPU box whose speed drifts: a fixed
loop takes 1.0x to 1.8x its best time, in phases that last from a second
to many minutes (bench/RESULTS.md).  The program's own time drifts with
it, so raw wall times of the same code spread by more than any useful
bound from one run to the next.

While an operation runs, an interval timer interrupts it every
``PERIOD_S`` seconds and times ``reference_loop`` in the same thread.
The loop does the same kind of interpreter work as the program: it
builds small nested tuples, renders and hashes them with blake2b, fills
a dict and sorts it.  An operation's corrected time is its wall time,
less the time spent in the loop, scaled by ``REF_S`` over the mean loop
time sampled during it::

    corrected = (wall - time in the loop) * REF_S / mean loop time

The mean caps each sample at three times the median, so that one sample
that lost the CPU for a while does not stand for the whole operation.
The loop's time varies by 30% from one sample to the next; averaged over
the 50 samples of a 1.5 s exploration, the correction brought the spread
of single fig1 explorations from 14% to 5% of their median.

``REF_S`` is one millisecond, about the loop's mean time while the
program runs on a 2-vCPU Intel Xeon (family 6, model 207) with Python
3.11.7, so on that box a corrected time reads roughly like a wall time.
It only sets the scale.  The loop lives here, not in the program,
so a change to the program never changes it.
"""
import hashlib
import signal
import statistics
import time

_clock = time.perf_counter
_blake = hashlib.blake2b

REF_ITERATIONS = 300
REF_S = 0.001       # seconds: the scale of a corrected time
PERIOD_S = 0.030    # one sample per 30 ms: the loop costs about 3.5%
NEAREST = 24        # samples used for an operation that holds fewer


def reference_loop(n=REF_ITERATIONS):
    acc = {}
    for i in range(n):
        k = (i % 17, ("x", i % 5), (i, i >> 1))
        acc[k] = _blake(repr(k).encode(), digest_size=8).digest()
    return sorted(acc)


class Sampler:
    """Times ``reference_loop`` every ``PERIOD_S`` seconds of wall time.

    ``samples`` holds (start, duration) pairs in time order.  The handler
    runs in the main thread between bytecodes, like any Python signal
    handler, so it measures the thread that runs the program.
    """

    def __init__(self):
        self.samples = []
        self._old = None

    def _tick(self, signum, frame):
        t = _clock()
        reference_loop()
        self.samples.append((t, _clock() - t))

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; an operation too short to sample gets a burst."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self.burst(NEAREST - len(self.samples))

    def burst(self, n=NEAREST):
        """Time the loop ``n`` times back to back (for short set-ups)."""
        for _ in range(n):
            self._tick(None, None)

    def correct(self, start, end):
        """(corrected seconds, wall seconds less the loop) of [start, end]."""
        inside = [s for s in self.samples if start <= s[0] < end]
        wall = end - start - sum(d for _, d in inside)
        near = inside
        if len(near) < NEAREST:
            mid = (start + end) / 2
            near = sorted(self.samples,
                          key=lambda s: abs(s[0] - mid))[:NEAREST]
        if not near:
            raise RuntimeError("no reference samples")
        cap = 3 * statistics.median(d for _, d in near)
        mean = statistics.fmean(min(d, cap) for _, d in near)
        return wall * REF_S / mean, wall
