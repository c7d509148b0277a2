"""Unit tests of the benchmark's own helpers (no package code is timed here)."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer, self_times_ns  # noqa: E402


def test_event_attributed_to_first_batch_reaching_its_time():
    """An event belongs to the first batch whose newest timestamp is >= its time."""
    newest = [1.0, 2.0, 3.0]
    assert measure.trigger_batches(newest, [0.5, 1.0, 1.0001, 2.9, 3.0]).tolist() == [
        0, 0, 1, 2, 2,
    ]


def test_events_past_the_feed_end_belong_to_the_last_batch():
    """Slots and windows flushed at close are stamped past the newest packet."""
    assert measure.trigger_batches([1.0, 2.0], [2.5, float("inf")]).tolist() == [1, 1]


def test_attribution_uses_the_running_maximum_of_the_clock():
    """A batch whose newest packet is older than the clock cannot trigger anything."""
    # batch 1 only carries late packets; the clock stays at 5.0
    assert measure.trigger_batches([5.0, 4.0, 6.0], [4.5, 5.5]).tolist() == [0, 2]


def test_event_lag_counts_from_the_trigger_batch_start():
    """Lag = reach time minus the hand-over (or due) time of the trigger batch."""
    lags = measure.event_lags_s(
        batch_newest=[1.0, 2.0],
        batch_start=[10.0, 20.0],
        event_times=[0.7, 1.5, 2.0],
        event_reached=[10.25, 20.5, 21.0],
    )
    assert lags.tolist() == [0.25, 0.5, 1.0]


def test_self_time_subtracts_nested_children():
    """Self time is a span's duration minus what its children cover."""
    # root [0, 100] with children [10, 30] and [40, 90]; grandchild [50, 60]
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    assert self_times_ns(start, end, parent).tolist() == [30.0, 20.0, 40.0, 10.0]


def test_self_time_clips_a_child_to_its_parent():
    """A child poking outside its parent never drives the parent negative."""
    assert self_times_ns([0, 5], [10, 15], [-1, 0]).tolist() == [5.0, 10.0]


def test_tracer_records_nesting_and_restores_originals():
    """Wrapped calls nest by call order; uninstall puts the originals back."""

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    originals = (Layer.outer, Layer.inner)
    tracer = Tracer()
    Layer.outer = tracer.wrap(Layer.outer, "outer", "calls", lambda *_: 1)
    Layer.inner = tracer.wrap(Layer.inner, "inner", None, None)
    tracer.tick = 3
    assert Layer().outer() == 2
    Layer.outer, Layer.inner = originals
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["tick"].tolist() == [3, 3]
    assert tracer.counts["calls"] == 1
    own = tracer.self_seconds()
    total = (spans["end"][0] - spans["start"][0]) / 1e9
    assert own["outer"] + own["inner"] == pytest.approx(total)


def test_tracer_install_is_undone():
    """Installing and uninstalling leaves the package's methods untouched."""
    from repro.runtime.demux import FlowDemux

    before = FlowDemux.split
    tracer = Tracer()
    with tracer.installed(spans={"runtime.demux.split"}):
        assert FlowDemux.split is not before
    assert FlowDemux.split is before
    assert tracer.missing == []


class FakeClock:
    """A clock that only moves when slept on or advanced by the test."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_pacer_lateness_is_measured_from_the_due_time():
    """A stall delays later hand-overs; each one is late from its own due time."""
    clock = FakeClock()
    pacer = measure.Pacer(batch_seconds=1.0, speed=10.0, clock=clock, sleep=clock.sleep)
    pacer.begin()  # batch k is due at 100 + 0.1 * (k + 1)
    pacer.hand_over(0)  # on time: waits until 100.1
    clock.now += 0.35  # the engine stalls on batch 0 until 100.45
    pacer.hand_over(1)  # due 100.2 -> 0.25 late
    pacer.hand_over(2)  # due 100.3 -> 0.15 late, not 0 since the last hand-over
    clock.now += 0.01
    pacer.hand_over(5)  # due 100.6 -> waits, on time
    assert pacer.lateness_s == pytest.approx([0.0, 0.25, 0.15, 0.0])
    assert pacer.waited_s == pytest.approx(0.1 + 0.14)


def test_pacer_schedule_does_not_slow_with_the_consumer():
    """Due times depend only on the slot, never on when earlier batches went out."""
    clock = FakeClock()
    pacer = measure.Pacer(batch_seconds=1.0, speed=4.0, clock=clock, sleep=clock.sleep)
    pacer.begin()
    clock.now += 10.0
    pacer.hand_over(0)
    assert pacer.due_time(7) == pytest.approx(102.0)


def test_settings_rotation_holds_the_deployment_mix():
    """Every 20 sessions hold the resolution shares and the fps draw's shares
    exactly; 80 sessions hold every pair in proportion to their product."""
    from collections import Counter

    resolution_share = {"HD": 5, "FHD": 9, "QHD": 4, "UHD": 2}  # isp._RESOLUTION_MIX
    fps_share = Counter(inputs.FPS_DRAW)
    for start in (0, 20, 40, 60):
        block = [inputs.streaming_settings(i) for i in range(start, start + 20)]
        assert Counter(r for r, _ in block) == resolution_share
        assert Counter(f for _, f in block) == {f: 5 * n for f, n in fps_share.items()}
    cycle = Counter(inputs.streaming_settings(i) for i in range(80))
    assert cycle == {
        (r, f): count * n for r, count in resolution_share.items() for f, n in fps_share.items()
    }


def test_worker_growth_counts_each_peak_above_the_inherited_memory():
    """Each worker counts its peak without file and shm pages, above what it
    inherited at fork, and never below 0."""
    peaks = measure.ChildPeaks()
    peaks.last = {101: (1600, 60, 40), 102: (950, 60, 0)}
    assert peaks.peaks_kib() == [1500, 890]
    assert measure.worker_growth_kib(peaks.peaks_kib(), 1000) == 500 + 0


def test_proc_status_reads_this_process():
    """The fields peak_rss_mb is built from exist in /proc/self/status."""
    status = measure.proc_status_kib()
    assert status["VmHWM"] >= status["VmRSS"] >= status["RssAnon"] > 0
    assert measure.proc_status_kib(2**31) == {}


def test_resource_tracker_is_stopped_and_waited_for():
    """No helper process the shared-memory rings start outlives the run."""
    import os
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    measure.stop_resource_tracker()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    measure.stop_resource_tracker()  # idempotent
