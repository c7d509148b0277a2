"""Measurement helpers: event-lag attribution, the open-loop pacer, summaries.

Everything here is plain numpy/stdlib so it can be unit-tested without the
package under test (``perfbench/tests/test_perfbench_helpers.py``).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Iterable, List, Sequence

import numpy as np


def trigger_batches(batch_newest: Sequence[float], event_times: Sequence[float]) -> np.ndarray:
    """Index of the batch that triggered each event.

    The trigger batch of an event is the first batch whose newest packet
    timestamp is ``>= event.time``: before that batch arrived, the feed
    clock had not reached the event's time, so nothing could have fired it.
    Events stamped after the newest timestamp of the whole feed (the slots
    and windows flushed at close) belong to the last batch, whose hand-over
    ended the feed.  ``batch_newest`` need not be monotone; a running
    maximum is taken, as the engine clock never moves backwards.
    """
    newest = np.maximum.accumulate(np.asarray(batch_newest, dtype=float))
    if newest.size == 0:
        raise ValueError("no batches to attribute events to")
    index = np.searchsorted(newest, np.asarray(event_times, dtype=float), side="left")
    return np.minimum(index, newest.size - 1)


def event_lags_s(
    batch_newest: Sequence[float],
    batch_start: Sequence[float],
    event_times: Sequence[float],
    event_reached: Sequence[float],
) -> np.ndarray:
    """Per-event lag: when the event reached the caller minus its trigger's start.

    ``batch_start`` is the hand-over time of each batch in a closed loop, or
    its due time in an open loop (so a late hand-over counts against every
    event it delays).
    """
    start = np.asarray(batch_start, dtype=float)
    trigger = trigger_batches(batch_newest, event_times)
    return np.asarray(event_reached, dtype=float) - start[trigger]


def spin(seconds: float) -> None:
    """Busy-wait for ``seconds``.

    The pacer waits this way rather than sleeping: on a virtual machine a
    sleep overshoots by milliseconds now and then, and the work right after
    a wake-up runs slower and less evenly, which would show as event lag.
    """
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Pacer:
    """Open-loop schedule: batch ``k`` is due when capture time ``(k+1) * batch_s`` has
    elapsed, played back ``speed`` times faster than capture time.

    The schedule never slows when the consumer does.  :meth:`hand_over`
    waits until the batch is due (or returns at once when it is already
    late) and records how late the hand-over was, measured from the due
    time, never from the previous hand-over.  ``wait_cpu_s`` is the CPU the
    waiting itself used, which is not the program's.
    """

    def __init__(
        self,
        batch_seconds: float,
        speed: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = spin,
    ) -> None:
        if batch_seconds <= 0 or speed <= 0:
            raise ValueError("batch_seconds and speed must be positive")
        self.interval = batch_seconds / speed
        self._clock = clock
        self._sleep = sleep
        self.start = None
        self.due: List[float] = []
        self.handed: List[float] = []
        self.waited_s = 0.0
        self.wait_cpu_s = 0.0

    def begin(self) -> None:
        """Start the schedule now (capture time 0)."""
        self.start = self._clock()

    def due_time(self, slot: int) -> float:
        """Wall time at which batch ``slot`` (0-based capture second) is due."""
        return self.start + (slot + 1) * self.interval

    def hand_over(self, slot: int) -> float:
        """Wait for batch ``slot``'s due time; return the hand-over time."""
        due = self.due_time(slot)
        now = self._clock()
        if now < due:
            cpu = time.thread_time()
            self._sleep(due - now)
            self.wait_cpu_s += time.thread_time() - cpu
            self.waited_s += due - now
            now = self._clock()
        self.due.append(due)
        self.handed.append(now)
        return now

    @property
    def lateness_s(self) -> np.ndarray:
        """How late each hand-over was, from its due time (>= 0 up to clock jitter)."""
        return np.asarray(self.handed) - np.asarray(self.due)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN for no values."""
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else float("nan")


def median(values: Iterable[float]) -> float:
    """Median of the values (NaN for none)."""
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def proc_status_kib(pid: object = "self") -> dict:
    """The memory fields of ``/proc/<pid>/status`` (``VmRSS``, ``VmHWM``,
    ``RssAnon``, ``RssShmem``, ...) in KiB; empty once the process is gone."""
    fields = {}
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                name, _, value = line.partition(":")
                if value.endswith(" kB\n"):
                    fields[name] = int(value.split()[0])
    except (FileNotFoundError, ProcessLookupError):
        return {}
    return fields


def trim_heap() -> None:
    """Hand the C allocator's free pages back to the system (glibc only), so
    that the resident set counts only memory in use."""
    import ctypes

    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def reset_peak_rss(pid: object = "self") -> None:
    """Reset the process's ``VmHWM`` to its current resident set."""
    with open(f"/proc/{pid}/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


class ChildPeaks:
    """Peak anonymous memory of each forked worker.

    The first :meth:`sample` that sees a live child resets its high-water
    mark; every sample reads the mark, which also covers the transient
    peaks between samples.  :meth:`peaks_kib` gives each child's peak less
    its file-backed and shared-memory pages; what it inherited from the
    parent at fork is still in it (see :func:`worker_growth_kib`).
    """

    def __init__(self) -> None:
        self.last: dict = {}  # pid -> (VmHWM, RssFile, RssShmem) at the latest sample

    def sample(self) -> None:
        """Read every live child's memory fields."""
        import multiprocessing

        for child in multiprocessing.active_children():
            pid = child.pid
            try:
                if pid not in self.last:
                    reset_peak_rss(pid)
            except (FileNotFoundError, ProcessLookupError):
                continue
            status = proc_status_kib(pid)
            if status:
                self.last[pid] = (status["VmHWM"], status["RssFile"], status["RssShmem"])

    def peaks_kib(self) -> List[int]:
        """Each child's peak resident set without file and shm pages."""
        return [peak - file - shmem for peak, file, shmem in self.last.values()]


def worker_growth_kib(peaks_kib: Sequence[int], inherited_kib: int) -> int:
    """Sum over workers of their peak above ``inherited_kib``, the harness's
    anonymous memory every forked worker starts with."""
    return sum(max(0, peak - inherited_kib) for peak in peaks_kib)


def usable_cpus() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1



def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The sharded engine's shared-memory rings start it as a helper process
    on first use; left alone it would end only after this process has
    exited, unwaited.  A no-op when it never started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
