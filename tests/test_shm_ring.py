"""Shared-memory column rings (DESIGN.md §12): round-trip, lifecycle, replay.

The data-plane guarantees under test:

* a slot round-trip is **value-identical** to ``demux.split`` — dtypes,
  RTP/address presence, reconstructed address tuples, ``nbytes`` — so the
  worker-side fold cannot observe which plane delivered its tick;
* slot reuse is gated by §8 checkpoint pruning, so an undersized ring (or
  an oversized tick) degrades to the inline-pickle **fallback**, never to
  corruption — output stays bit-identical to the serial reference;
* **lifecycle**: no ring segment outlives its supervisor, whether the feed
  finishes, raises mid-run, or its generator is abandoned, and a worker
  respawn (kill + restore + replay) reads replayed slots intact.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.net.packet import PacketColumns
from repro.runtime import (
    FaultPlan,
    FlowDemux,
    KillWorker,
    SessionFeed,
    SessionReport,
    ShardedEngine,
    ShmColumnRing,
    WorkerRestarted,
)
from repro.runtime.shard import shard_of
from repro.runtime.shm import SHM_NAME_PREFIX


def shm_segments():
    """Names of live ring segments under /dev/shm (empty off-Linux)."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SHM_NAME_PREFIX)
        }
    except FileNotFoundError:
        return set()


def multi_row_sends(feed, n_shards):
    """Per-shard tick sends carrying more than one row.

    Each of them overflows a one-row ring slot, so a fork feed with
    ``ring_slot_rows=1`` must pickle exactly this many ticks inline.
    """
    demux = FlowDemux()
    count = 0
    for batch in feed:
        rows = [0] * n_shards
        for key, indices in demux.split_indices(batch):
            rows[shard_of(key, n_shards)] += indices.size
        count += sum(n > 1 for n in rows)
    return count


def reports_by_client_port(events):
    return {
        event.flow.client_port: event.report
        for event in events
        if isinstance(event, SessionReport)
    }


def assert_columns_identical(got: PacketColumns, expected: PacketColumns):
    """Value-and-presence equality of two batches (dtype-exact)."""
    for name in ("timestamps", "payload_sizes", "directions"):
        got_col, exp_col = getattr(got, name), getattr(expected, name)
        assert got_col.dtype == exp_col.dtype
        assert np.array_equal(got_col, exp_col)
    for name in ("rtp_payload_type", "rtp_ssrc", "rtp_sequence", "rtp_timestamp"):
        got_col, exp_col = getattr(got, name), getattr(expected, name)
        assert (got_col is None) == (exp_col is None)
        if exp_col is not None:
            assert np.array_equal(got_col, exp_col)
    assert (got.addresses is None) == (expected.addresses is None)
    if expected.addresses is not None:
        assert all(a == b for a, b in zip(got.addresses, expected.addresses))
    assert got.nbytes() == expected.nbytes()


def _mixed_batch(n=400, n_flows=5, with_rtp=True, with_addresses=True, seed=0):
    """A batch mixing flows and directions like a live demuxed feed tick."""
    rng = np.random.default_rng(seed)
    directions = rng.integers(0, 2, n).astype(np.int8)
    addresses = None
    if with_addresses:
        cache = {}
        addresses = np.empty(n, dtype=object)
        for i in range(n):
            flow = int(rng.integers(0, n_flows))
            up = (f"10.0.0.{flow}", "198.51.100.7", 40000 + flow, 443, "udp")
            tup = up if directions[i] else (up[1], up[0], up[3], up[2], up[4])
            addresses[i] = cache.setdefault(tup, tup)
    rtp = (
        {
            "rtp_payload_type": rng.integers(-1, 128, n),
            "rtp_ssrc": rng.integers(-1, 2**20, n),
            "rtp_sequence": rng.integers(-1, 65536, n),
            "rtp_timestamp": rng.integers(-1, 2**31, n),
        }
        if with_rtp
        else {}
    )
    return PacketColumns(
        timestamps=np.sort(rng.uniform(0.0, 30.0, n)),
        payload_sizes=rng.integers(60, 1300, n).astype(float),
        directions=directions,
        addresses=addresses,
        **rtp,
    )


# ---------------------------------------------------------------------------
# ring unit round-trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("with_rtp", [True, False])
@pytest.mark.parametrize("with_addresses", [True, False])
def test_slot_roundtrip_matches_demux_split(with_rtp, with_addresses):
    """write_slot → read_slot equals the materialised demux.split pairs."""
    batch = _mixed_batch(with_rtp=with_rtp, with_addresses=with_addresses)
    demux = FlowDemux()
    index_pairs = demux.split_indices(batch)
    expected = [(key, batch.take(rows)) for key, rows in index_pairs]
    ring = ShmColumnRing(n_slots=2, slot_rows=512, shard=0)
    try:
        n_rows, spans, flags = ring.write_slot(1, batch, index_pairs)
        got = ring.read_slot(1, n_rows, spans, flags)
        assert [key for key, _ in got] == [key for key, _ in expected]
        for (_, got_sub), (_, exp_sub) in zip(got, expected):
            assert_columns_identical(got_sub, exp_sub)
        # the in-band flow-id column agrees with the control-message spans
        flow_ids = ring.slot_flow_ids(1, n_rows)
        for span_index, (_key, start, stop) in enumerate(spans):
            assert (flow_ids[start:stop] == span_index).all()
    finally:
        ring.destroy()


def test_slot_views_survive_slot_reuse():
    """Decoded sub-batches are copies: overwriting the slot cannot torn-read."""
    batch_a = _mixed_batch(seed=1)
    batch_b = _mixed_batch(seed=2)
    demux = FlowDemux()
    ring = ShmColumnRing(n_slots=1, slot_rows=512)
    try:
        pairs_a = demux.split_indices(batch_a)
        n_rows, spans, flags = ring.write_slot(0, batch_a, pairs_a)
        decoded = ring.read_slot(0, n_rows, spans, flags)
        expected = [(key, batch_a.take(rows)) for key, rows in pairs_a]
        ring.write_slot(0, batch_b, demux.split_indices(batch_b))  # reuse
        for (_, got_sub), (_, exp_sub) in zip(decoded, expected):
            assert_columns_identical(got_sub, exp_sub)
    finally:
        ring.destroy()


def test_oversized_tick_is_rejected_by_write_slot():
    ring = ShmColumnRing(n_slots=1, slot_rows=16)
    try:
        batch = _mixed_batch(n=64)
        with pytest.raises(ValueError, match="exceeds slot capacity"):
            ring.write_slot(0, batch, FlowDemux().split_indices(batch))
    finally:
        ring.destroy()


def test_ring_validation_and_explicit_destroy():
    with pytest.raises(ValueError):
        ShmColumnRing(n_slots=0, slot_rows=8)
    with pytest.raises(ValueError):
        ShmColumnRing(n_slots=2, slot_rows=0)
    before = shm_segments()
    ring = ShmColumnRing(n_slots=2, slot_rows=8)
    assert ring.name in shm_segments()
    ring.destroy()
    ring.destroy()  # idempotent
    assert shm_segments() <= before


# ---------------------------------------------------------------------------
# feed-level: wraparound, fallback, lifecycle, replay
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def shm_reference(fitted_pipeline, runtime_sessions):
    """Serial-backend reports every shm-plane run below must equal."""
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="serial")
    return reports_by_client_port(
        engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )


def _run_fork_feed(fitted_pipeline, runtime_sessions, **kwargs):
    engine = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="fork", **kwargs
    )
    events = list(
        engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    )
    return engine, events


def _assert_reports_equal(got, reference):
    assert set(got) == set(reference)
    for port, report in got.items():
        expected = reference[port]
        assert report.platform == expected.platform
        assert report.title == expected.title
        assert report.stage_timeline == expected.stage_timeline
        assert report.pattern == expected.pattern
        assert report.objective_metrics == expected.objective_metrics


def test_shm_feed_identical_and_pipe_volume_reduced(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """Rings pin serial output; only control messages hit the pipe.

    The comparison run uses a one-row ring: every tick overflows its slot
    and takes the inline-pickle fallback, which is the whole-batch payload
    the rings replace.
    """
    before = shm_segments()
    engine, events = _run_fork_feed(fitted_pipeline, runtime_sessions)
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] == 0
    assert stats["shm_ring_peak_bytes"] > 0
    inline_engine, inline_events = _run_fork_feed(
        fitted_pipeline, runtime_sessions, ring_slot_rows=1
    )
    _assert_reports_equal(reports_by_client_port(inline_events), shm_reference)
    inline_stats = inline_engine.last_feed_stats
    assert inline_stats["shm_fallback_ticks"] == multi_row_sends(
        SessionFeed(runtime_sessions, batch_seconds=4.0), n_shards=2
    )
    assert inline_stats["shm_ring_peak_bytes"] == 0
    # the acceptance number: per-tick pickle volume collapses to control
    # messages once batch arrays travel through shared memory
    assert (
        stats["pipe_payload_bytes_total"]
        < inline_stats["pipe_payload_bytes_total"] / 10
    )
    assert mp.active_children() == []
    assert shm_segments() <= before


def test_undersized_ring_wraps_to_inline_fallback(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """More in-flight ticks than slots: fallback ticks, identical output."""
    engine, events = _run_fork_feed(
        fitted_pipeline,
        runtime_sessions,
        ring_slots=1,  # < snapshot_every_ticks: slots starve before a prune
        snapshot_every_ticks=8,
    )
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []


def test_tick_larger_than_slot_falls_back_inline(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """A tick overflowing slot_rows pickles inline — for that tick only."""
    engine, events = _run_fork_feed(
        fitted_pipeline,
        runtime_sessions,
        ring_slot_rows=64,  # far below a 4-second batch of three sessions
    )
    stats = engine.last_feed_stats
    assert stats["shm_fallback_ticks"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []


def test_segments_cleaned_after_completed_feed(
    fitted_pipeline, runtime_sessions, shm_reference
):
    before = shm_segments()
    _run_fork_feed(fitted_pipeline, runtime_sessions)
    assert shm_segments() <= before
    assert mp.active_children() == []


def test_segments_cleaned_after_abandoned_generator(
    fitted_pipeline, runtime_sessions
):
    """An abandoned mid-feed generator leaves no worker and no segment.

    Teardown is prompt: every worker sees EOF as soon as the parent closes
    its pipe end, instead of waiting out the join timeout and being
    terminated.
    """
    before = shm_segments()
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="fork")
    generator = engine.run_feed(SessionFeed(runtime_sessions, batch_seconds=4.0))
    next(generator)  # segments exist while the feed is live
    assert len(shm_segments() - before) == 2  # one ring per shard
    started = time.perf_counter()
    generator.close()
    assert time.perf_counter() - started < 2.0
    assert mp.active_children() == []
    assert shm_segments() <= before
    engine.close()  # idempotent after the generator already cleaned up


def test_segments_cleaned_after_midfeed_exception(
    fitted_pipeline, runtime_sessions
):
    """A feed raising mid-run propagates and still unlinks every segment."""

    def exploding_feed():
        for tick, batch in enumerate(
            SessionFeed(runtime_sessions, batch_seconds=4.0)
        ):
            if tick == 2:
                raise RuntimeError("capture card unplugged")
            yield batch

    before = shm_segments()
    engine = ShardedEngine(fitted_pipeline, n_workers=2, backend="fork")
    with pytest.raises(RuntimeError, match="capture card unplugged"):
        list(engine.run_feed(exploding_feed()))
    assert mp.active_children() == []
    assert shm_segments() <= before


@pytest.mark.faults
def test_restore_then_replay_reuses_slots_across_respawn(
    fitted_pipeline, runtime_sessions, shm_reference
):
    """A killed worker replays shm ticks from still-pinned slots exactly.

    The §12 reuse rule is what makes this safe: every un-checkpointed tick
    keeps its slot pinned until pruned, so the respawned worker re-reads
    the replayed control messages against intact slot data, and the feed's
    reports stay bit-identical to the serial reference.
    """
    n_ticks = sum(1 for _ in SessionFeed(runtime_sessions, batch_seconds=4.0))
    plan = FaultPlan(
        actions=(
            KillWorker(shard=0, tick=n_ticks // 3),
            KillWorker(shard=1, tick=(2 * n_ticks) // 3),
        )
    )
    before = shm_segments()
    engine = ShardedEngine(
        fitted_pipeline,
        n_workers=2,
        backend="fork",
        snapshot_every_ticks=3,
        recv_timeout_s=60.0,
    )
    events = list(
        engine.run_feed(
            SessionFeed(runtime_sessions, batch_seconds=4.0), fault_plan=plan
        )
    )
    restarts = [e for e in events if isinstance(e, WorkerRestarted)]
    assert len(restarts) == 2
    stats = engine.last_feed_stats
    assert stats["n_restarts"] == 2
    assert stats["replayed_ticks_total"] > 0
    assert stats["shm_ring_peak_bytes"] > 0
    _assert_reports_equal(reports_by_client_port(events), shm_reference)
    assert mp.active_children() == []
    assert shm_segments() <= before
