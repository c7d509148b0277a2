"""The three workloads: inputs, one timed pass each, and their offline references.

A *pass* is one complete, independently checked unit of work: set up
(``load_pipeline`` + engine construction, up to the engine's first batch
pull), push the whole feed through, collect every event.  The
runner repeats passes for the measurement window and reports medians.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import inputs
import measure

#: Mean packet rate the open loop offers.  Each capture plays back at the
#: constant multiple of capture time that yields this rate (see
#: :func:`pcap_speed`), so every seed offers the same load.  The capture's
#: busiest 10 s carry about twice its mean rate, as sessions ramp up and
#: down, so they offer about half of what decode + engine sustained on the
#: 2-core machine the benchmark was written on: the seed keeps up, and a 2x
#: slowdown saturates the busiest stretch and shows as a backlog.
PCAP_OFFERED_PPS = 34_000.0
#: A capture flow closes after this much capture time without packets.
PCAP_IDLE_TIMEOUT_S = 10.0
#: Batches a warm-up pass feeds before the timed passes start.
WARMUP_BATCHES = 30


@dataclass
class Pass:
    """What one timed pass measured."""

    setup_s: float
    wall_s: float
    busy_s: float
    cpu_s: float
    n_packets: int
    lags_s: np.ndarray
    n_batches: int
    reports: Dict[int, list]  # session index -> its close reports
    digest: Optional[str] = None
    feed_stats: Optional[dict] = None
    peak_state_bytes: int = 0
    lateness_s: Optional[np.ndarray] = None
    decoded_packets: int = 0
    rows_skipped: int = 0
    #: each forked worker's peak private memory (see measure.ChildPeaks)
    worker_peaks_kib: List[int] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        """Events the pass delivered."""
        return int(self.lags_s.size)


class ClosedFeed:
    """Closed loop: hands over the next pre-built batch whenever the engine asks.

    Stamps every hand-over, sets the tracer's tick id, and calls
    ``sampler`` between ticks (the engine's state bytes in traced runs, the
    workers' memory on ``live_2w``); the sampling time is excluded from the
    pass's busy time.
    """

    def __init__(self, batches, contexts, tracer=None, sampler=None) -> None:
        self.batches = batches
        self.flow_contexts = contexts
        self.tracer = tracer
        self.sampler = sampler
        self.handed: List[float] = []
        self.cpu_at_first_pull = 0.0
        self.harness_s = 0.0

    def __iter__(self):
        for index, batch in enumerate(self.batches):
            if index == 0:
                self.cpu_at_first_pull = measure.cpu_seconds()
            elif self.sampler is not None:
                began = time.perf_counter()
                self.sampler()
                self.harness_s += time.perf_counter() - began
            if self.tracer is not None:
                self.tracer.tick = index
            self.handed.append(time.perf_counter())
            yield batch


class PacedFeed:
    """Open loop: decodes the capture batch by batch and hands each over when due.

    Batch ``k`` (capture second ``k``) is due at a fixed multiple of capture
    time after the first pull, whether or not the engine kept up.
    """

    def __init__(self, first, rest, pacer: measure.Pacer, decode_next, tracer=None,
                 sampler=None) -> None:
        self.first = first
        self.rest = rest
        self.pacer = pacer
        self.decode_next = decode_next
        self.tracer = tracer
        self.sampler = sampler
        self.harness_s = 0.0
        self.newest: List[float] = []
        self.cpu_at_first_pull = 0.0
        #: packets decoded after the first pull (the first batch is set-up)
        self.decoded_packets = 0

    def __iter__(self):
        self.cpu_at_first_pull = measure.cpu_seconds()
        self.pacer.begin()
        origin = float(self.first.timestamps[0])
        batch, slot = self.first, -1
        while batch is not None:
            slot = max(slot + 1, int((float(batch.timestamps[0]) - origin) // 1.0))
            self.pacer.hand_over(slot)
            if self.tracer is not None:
                self.tracer.tick = len(self.newest)
            self.newest.append(float(batch.timestamps.max()))
            yield batch
            if self.sampler is not None:
                began = time.perf_counter()
                self.sampler()
                self.harness_s += time.perf_counter() - began
            batch = self.decode_next(self.rest)
            if batch is not None:
                self.decoded_packets += len(batch)


# ---------------------------------------------------------------- events
def _consume(events, reports: list) -> tuple:
    """Drain an event iterator; returns (reach times, event times)."""
    from repro.runtime.events import SessionReport

    reached: List[float] = []
    times: List[float] = []
    for event in events:
        reached.append(time.perf_counter())
        times.append(event.time)
        if isinstance(event, SessionReport):
            reports.append(event)
    return reached, times


def by_session(report_events) -> Dict[int, list]:
    """Close reports grouped by the session index their client port encodes."""
    grouped: Dict[int, list] = defaultdict(list)
    for event in report_events:
        grouped[event.flow.client_port - inputs.CLIENT_PORT_BASE].append(event.report)
    return dict(grouped)


def _state_sampler(engine, peak: list):
    """Traced runs: keep the largest per-session state seen in ``peak[0]``."""

    def sample() -> None:
        sizes = engine.state_nbytes().values()
        if sizes:
            peak[0] = max(peak[0], max(sizes))

    return sample


def _load(model: Path):
    from repro.runtime import persistence

    return persistence.load_pipeline(model)


# ---------------------------------------------------------------- live
def _live_engine(kind: str, pipeline, n_workers: int):
    """(engine, its feed runner, its release hook) for a live workload."""
    from repro.runtime.engine import StreamingEngine
    from repro.runtime.shard import ShardedEngine

    if kind == "live_1w":
        engine = StreamingEngine(pipeline, analytics=True)
        return engine, engine.run, lambda: None
    engine = ShardedEngine(pipeline, n_workers=n_workers, backend="fork", analytics=True)
    # close() reaps any worker a torn-down feed left behind
    return engine, engine.run_feed, engine.close


def live_setup(kind: str, model: Path, batches, contexts, n_workers: int) -> float:
    """Set-up only: load, construct, reach the first pull.

    The feed is then run to its end over that one batch: closing the
    engine normally lets sharded workers exit at once, where abandoning the
    feed would leave them to the reaper's join timeouts.
    """
    began = time.perf_counter()
    _engine, run, release = _live_engine(kind, _load(model), n_workers)
    feed = ClosedFeed(batches[:1], contexts)
    try:
        for _ in run(feed):
            pass
    finally:
        release()
    return feed.handed[0] - began


def live_pass(kind: str, model: Path, batches, contexts, n_workers: int,
              tracer=None) -> Pass:
    """One pass of ``live_1w`` / ``live_2w`` over the pre-built batches."""
    began = time.perf_counter()
    engine, run, release = _live_engine(kind, _load(model), n_workers)
    peak = [0]
    workers = measure.ChildPeaks()
    if kind == "live_2w":
        # a sharded engine's session state lives in its workers
        sampler = workers.sample
    else:
        sampler = _state_sampler(engine, peak) if tracer is not None else None
    feed = ClosedFeed(batches, contexts, tracer=tracer, sampler=sampler)
    reports: list = []
    try:
        reached, times = _consume(run(feed), reports)
    finally:
        release()
    cpu = measure.cpu_seconds() - feed.cpu_at_first_pull
    newest = [float(batch.timestamps.max()) for batch in batches]
    wall = reached[-1] - feed.handed[0]
    return Pass(
        setup_s=feed.handed[0] - began,
        wall_s=wall,
        busy_s=wall - feed.harness_s,
        cpu_s=cpu,
        n_packets=sum(event.n_packets for event in reports),
        lags_s=measure.event_lags_s(newest, feed.handed, times, reached),
        n_batches=len(feed.handed),
        reports=by_session(reports),
        digest=engine.analytics.digest(),
        feed_stats=getattr(engine, "last_feed_stats", None),
        peak_state_bytes=peak[0],
        worker_peaks_kib=workers.peaks_kib(),
    )


def live_warmup(kind: str, model: Path, batches, contexts, n_workers: int) -> None:
    """An untimed short pass: first-call costs are paid before timing starts."""
    _engine, run, release = _live_engine(kind, _load(model), n_workers)
    try:
        for _ in run(ClosedFeed(batches[:WARMUP_BATCHES], contexts)):
            pass
    finally:
        release()


# ---------------------------------------------------------------- capture
def pcap_speed(rows: dict) -> float:
    """Playback multiple of capture time that offers ``PCAP_OFFERED_PPS``."""
    duration = float(rows["ts"].max() - rows["ts"].min())
    return PCAP_OFFERED_PPS * duration / rows["ts"].size


def _pcap_engine(model: Path):
    from repro.runtime.engine import StreamingEngine

    return StreamingEngine(
        _load(model), idle_timeout_s=PCAP_IDLE_TIMEOUT_S, analytics=True
    )


def _open_capture(path: Path, tracer=None):
    """(stats, batch iterator, decode-next function) over the capture."""
    from repro.net import pcap

    stats = pcap.ParseStats()
    batches = pcap.iter_pcap_column_batches(
        path, batch_seconds=1.0, client_ip=inputs.CAPTURE_CLIENT_IP, stats=stats
    )

    def decode_next(iterator):
        index = tracer.open("net.pcap.decode") if tracer is not None else None
        try:
            return next(iterator, None)
        finally:
            if index is not None:
                tracer.close(index)

    return stats, batches, decode_next


def pcap_setup(model: Path, path: Path, speed: float) -> float:
    """Set-up only: load, construct, open and scan the capture, first pull."""
    began = time.perf_counter()
    engine = _pcap_engine(model)
    _stats, batches, decode_next = _open_capture(path)
    first = decode_next(batches)
    feed = PacedFeed(first, batches, measure.Pacer(1.0, speed), decode_next)
    events = engine.run(feed)
    try:
        next(events, None)
    finally:
        events.close()
        batches.close()
    return feed.pacer.start - began


def pcap_pass(model: Path, path: Path, speed: float, tracer=None) -> Pass:
    """One pass of ``pcap_paced``: the capture played back on a fixed schedule."""
    began = time.perf_counter()
    engine = _pcap_engine(model)
    stats, batches, decode_next = _open_capture(path, tracer)
    first = decode_next(batches)  # opens and scans the capture
    pacer = measure.Pacer(1.0, speed)
    peak = [0]
    sampler = _state_sampler(engine, peak) if tracer is not None else None
    feed = PacedFeed(first, batches, pacer, decode_next, tracer=tracer, sampler=sampler)
    reports: list = []
    reached, times = _consume(engine.run(feed), reports)
    cpu = measure.cpu_seconds() - feed.cpu_at_first_pull - pacer.wait_cpu_s
    wall = reached[-1] - pacer.start
    return Pass(
        setup_s=pacer.start - began,
        wall_s=wall,
        busy_s=wall - pacer.waited_s - feed.harness_s,
        cpu_s=cpu,
        n_packets=sum(event.n_packets for event in reports),
        lags_s=measure.event_lags_s(feed.newest, pacer.due, times, reached),
        n_batches=len(pacer.due),
        reports=by_session(reports),
        digest=engine.analytics.digest(),
        peak_state_bytes=peak[0],
        lateness_s=pacer.lateness_s,
        decoded_packets=feed.decoded_packets,
        rows_skipped=stats.n_skipped + stats.truncated_records,
    )


def pcap_warmup(model: Path, path: Path) -> None:
    """Untimed: the first batches of the capture, unpaced."""
    engine = _pcap_engine(model)
    _stats, batches, _decode = _open_capture(path)
    for _ in engine.run(itertools.islice(batches, WARMUP_BATCHES)):
        pass
    batches.close()


# ---------------------------------------------------------------- references
@dataclass
class Reference:
    """What every pass must reproduce, computed offline before timing."""

    reports: Dict[int, object]  # session index -> expected report
    digest: Optional[str]  # expected fleet digest (None: compare across passes)
    sessions: list


def live_reference(model: Path, corpus) -> Reference:
    """Offline ``process_many`` reports and the ``fold_corpus`` digest."""
    from repro.analytics import fleet

    pipeline = _load(model)
    reports = pipeline.process_many(corpus)
    digest = fleet.fold_corpus(
        pipeline, corpus, reports=reports, client_port_base=inputs.CLIENT_PORT_BASE
    ).digest()
    return Reference(dict(enumerate(reports)), digest, list(corpus))


def pcap_reference(model: Path, rows: dict, corpus) -> Reference:
    """Offline ``process_many`` over each flow's packets as the capture holds them.

    Built from the generator's rows, not from the decoder under test: the
    timestamps are quantised to the capture's microseconds and RTP
    datagrams padded to their header, exactly as written.
    """
    from repro.net.packet import (
        DOWNSTREAM_CODE,
        RTP_NONE,
        UPSTREAM_CODE,
        PacketColumns,
        PacketStream,
    )

    seconds, micros = inputs.record_time(rows["ts"])
    # the decoder's own arithmetic, so timestamps compare bit for bit
    timestamps = seconds.astype(float) + micros.astype(float) / 1_000_000
    is_rtp = rows["ssrc"] != RTP_NONE
    sizes = inputs.datagram_sizes(rows).astype(float)
    streams = []
    for index in range(len(corpus)):
        mine = np.flatnonzero(rows["client_port"] == inputs.CLIENT_PORT_BASE + index)
        server_ip = inputs.u32_ip(int(rows["server_ip"][mine[0]]))
        server_port = int(rows["server_port"][mine[0]])
        client_port = inputs.CLIENT_PORT_BASE + index
        down = rows["down"][mine]
        addresses = np.empty(mine.size, dtype=object)
        addresses.fill((server_ip, inputs.CAPTURE_CLIENT_IP, server_port, client_port, "udp"))
        up_rows = np.flatnonzero(~down)
        if up_rows.size:
            filler = np.empty(up_rows.size, dtype=object)
            filler.fill((inputs.CAPTURE_CLIENT_IP, server_ip, client_port, server_port, "udp"))
            addresses[up_rows] = filler
        rtp = is_rtp[mine]
        columns = PacketColumns(
            timestamps=timestamps[mine],
            payload_sizes=sizes[mine],
            directions=np.where(down, DOWNSTREAM_CODE, UPSTREAM_CODE).astype(np.int8),
            rtp_payload_type=np.where(rtp, rows["pt"][mine] & 0x7F, RTP_NONE),
            rtp_ssrc=np.where(rtp, rows["ssrc"][mine] & 0xFFFFFFFF, RTP_NONE),
            rtp_sequence=np.where(rtp, rows["seq"][mine] & 0xFFFF, RTP_NONE),
            rtp_timestamp=np.where(rtp, rows["rtp_ts"][mine] & 0xFFFFFFFF, RTP_NONE),
            addresses=addresses,
        )
        streams.append(PacketStream.from_columns(columns))
    reports = _load(model).process_many(streams)
    return Reference(dict(enumerate(reports)), None, list(corpus))
