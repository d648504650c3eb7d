"""Fixed reference kernel that measures how fast this machine runs right now.

The machine is shared, and its speed drifts by a factor of two over seconds.
``Sampler`` runs the kernel every 25 ms in a thread of the benchmark process,
on the same CPU as the operations, so the kernel sees the speed the
operations see while they run; an operation's time is then scaled by
``ref_nominal_s / ref`` with ``ref`` the mean kernel time around it, and the
time the sampler itself took inside the operation is taken off first. The
kernel is shaped like one simulator trial: SeedSequence spawning and Gaussian
draws, a small FFT, and a bisection whose every step reduces a 4-element
NumPy array. It never imports ``swipt_relay``, so no change to the program
can move it.
"""

from __future__ import annotations

import os
import threading
import time
from array import array

import numpy as np

REPEATS = 2
INTERVAL_S = 0.025  # between the end of one sample and the start of the next
# An operation shorter than the window is scaled by the samples of a window
# around its middle: eight typical operations long, and within these limits.
# Many short operations each average few samples and keep up with quick
# changes of speed; few longer ones need more samples each.
WINDOW_OPS = 8
WINDOW_MIN_S = 0.1
WINDOW_MAX_S = 1.0


def _one(seed: int) -> float:
    child_a, child_b = np.random.SeedSequence(seed).spawn(2)
    taps_a = np.random.default_rng(child_a).standard_normal((4, 2))
    taps_b = np.random.default_rng(child_b).standard_normal((4, 2))
    gains = np.abs(np.fft.fft(taps_a[:, 0] + 1j * taps_b[:, 1], n=4)) ** 2 + 1e-3
    inv = 1.0 / gains
    lo = float(inv.min())
    hi = lo + 1000.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if float(np.maximum(0.0, mid - inv).sum()) >= 1000.0:
            hi = mid
        else:
            lo = mid
    return hi


def run() -> float:
    """Run the kernel once and return the CPU time it took this thread, in
    seconds (time spent waiting for the interpreter lock is not counted)."""
    start = time.thread_time()
    for seed in range(REPEATS):
        _one(seed)
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and so the sampler and the operations, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Context manager that runs the kernel every ``INTERVAL_S`` in a
    thread and records each sample's wall interval and kernel time."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.refs = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        start = time.perf_counter()
        ref = run()
        self.ends.append(time.perf_counter())
        self.refs.append(ref)
        self.starts.append(start)  # last: len(starts) counts whole samples

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def net_and_ref(self, op_starts, op_ends) -> tuple[np.ndarray, np.ndarray]:
        """For operations with the given wall intervals (all ended before
        this call): the wall time less the CPU time the sampler took inside
        it, and the mean kernel time of the samples taken during it, or
        during the window around its middle if it is shorter.

        A sample's CPU time is spread evenly over its wall interval, so an
        operation that runs NumPy code without the interpreter lock while
        the sampler runs is charged only for the CPU the sampler took."""
        n = len(self.starts)  # the sampler may append while this runs
        starts = np.array(self.starts[:n])
        ends = np.array(self.ends[:n])
        refs = np.array(self.refs[:n])
        op_starts = np.asarray(op_starts, dtype=float)
        op_ends = np.asarray(op_ends, dtype=float)

        lengths = ends - starts
        cum = np.concatenate(([0.0], np.cumsum(refs)))

        def busy_until(t):
            """CPU time the sampler took before ``t``."""
            k = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
            part = np.clip((t - starts[k]) / lengths[k], 0.0, 1.0)
            return np.where(t >= starts[0], cum[k] + refs[k] * part, 0.0)

        net = (op_ends - op_starts) - (busy_until(op_ends) - busy_until(op_starts))

        mids = 0.5 * (starts + ends)
        window = np.clip(WINDOW_OPS * np.median(op_ends - op_starts), WINDOW_MIN_S, WINDOW_MAX_S)
        widen = np.maximum(0.0, 0.5 * (window - (op_ends - op_starts)))
        lo = np.searchsorted(mids, op_starts - widen)
        hi = np.searchsorted(mids, op_ends + widen)
        lo = np.where(hi > lo, lo, np.clip(lo - 1, 0, n - 1))  # none near: take the nearest before
        hi = np.where(hi > lo, hi, lo + 1)
        return net, (cum[hi] - cum[lo]) / (hi - lo)
