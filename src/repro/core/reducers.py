"""Incremental stage reducers: one bounded-memory fold for the Fig. 6 cascade.

The paper's cascade is inherently incremental — a 5 s launch window, per-slot
stage classification with a carried EMA, confidence-gated pattern inference
over transition prefixes, and windowed QoE measurement.  This module makes
the *code* incremental too: every stage declares the bounded state it folds
packet batches into, plus the finalisation view that yields exactly the
offline report.  Offline ``process()`` / ``process_many()``, the streaming
runtime's per-flow session states and the sharded workers are all drivers
over the same four reducers (DESIGN.md §7):

* :class:`LaunchWindowReducer` — keeps only the packets of the title window
  (``timestamp <= origin + N``); the window stream it assembles produces
  launch features identical to extracting them from the full session,
  because the packet-group labeler never reads past the window;
* :class:`SlotStageReducer` — integer-exact per-slot payload/packet counters
  per direction (one pair of ``bincount`` adds per batch) plus the causal
  :class:`~repro.core.volumetric.OnlineVolumetricTracker` EMA for the
  provisional per-slot stage gate;
* the **transition prefix** state
  (:class:`~repro.core.transition.PrefixTransitionTracker`, carried by the
  runtime's :class:`~repro.runtime.state.SessionState`) — nine cumulative
  counts feeding the online pattern gate;
* :class:`QoEIntervalReducer` — a compact per-interval store of only the
  QoE-relevant downstream columns (timestamps + RTP sequence/timestamp),
  consolidated and time-sorted per sealed interval.  Sealed intervals back
  the provisional per-window ``QoEInterval`` events; their concatenation
  reproduces the downstream views of the offline-sorted stream exactly, so
  the close-time QoE metrics stay bit-identical to offline ``estimate()``;
* :class:`ApproxQoEIntervalReducer` — the **approximate** QoE tier
  (``qoe_mode="approx"``): no downstream columns at all.  Packets fold into
  fixed-size aggregates — streaming count/sum/max of inter-frame gaps plus
  a deterministic reservoir sample for the p95 lag estimate, strict record
  highs of the RTP timestamp for the frame count (the last-seen RTP
  timestamp carried across windows doubles as freeze detection), and
  unwrapped sequence-range + counting-set arithmetic for loss — so
  per-session state is O(intervals) with a hard constant per interval,
  independent of the packet rate.  Close metrics come from
  :meth:`ObjectiveQoEEstimator.estimate_approx` on session-level aggregates
  only, which is what makes offline and streaming approx reports identical
  across batch sizes and within-batch shuffles (the fold sorts each batch;
  feeds are time-ordered across batches).

:class:`SessionReducerCascade` bundles the reducers with the shared session
aggregates (origin, last timestamp, per-direction byte totals, RTP flag).
In the default **bounded** mode the cascade holds no packet history: state
is O(slots) counters + O(launch-window packets) + the three downstream QoE
columns (~24 bytes per downstream packet instead of the full columnar
history).  With ``keep_history=True`` (the runtime's ``"full"`` mode) the
raw batches are additionally retained, which allows an exact refold when a
packet older than the current session origin arrives across batches.

Bit-identical finalisation relies on two properties of the data:

* payload sizes are integral (true for generated traffic and real
  captures), so byte sums are exact under any accumulation order;
* stable time sorting commutes with direction selection and with interval
  bucketing, so the reducer's consolidated downstream columns equal the
  offline stream's per-direction views element for element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.qoe import BURST_GAP_SECONDS, FRAME_GAP_SECONDS
from repro.core.volumetric import OnlineVolumetricTracker
from repro.net.packet import (
    DOWNSTREAM_CODE,
    RTP_NONE,
    PacketColumns,
    PacketStream,
)

__all__ = [
    "ApproxQoEIntervalReducer",
    "LaunchWindowReducer",
    "QOE_MODES",
    "QoEIntervalReducer",
    "SealedApproxQoEInterval",
    "SealedQoEInterval",
    "SessionReducerCascade",
    "SlotStageReducer",
]

#: Valid values of ``SessionReducerCascade(qoe_mode=...)``.
QOE_MODES = ("exact", "approx")

_EMPTY_FEATURES = np.zeros((0, 4))
_EMPTY_SLOTS = np.zeros(0, dtype=np.int64)
_EMPTY_FLOAT = np.zeros(0, dtype=float)
_EMPTY_INT = np.zeros(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# launch window (title stage)
# ---------------------------------------------------------------------------
class LaunchWindowReducer:
    """Bounded buffer of the title window's packets.

    Keeps every row with ``timestamp <= origin + window_seconds`` (both
    directions: the window origin is the session's first packet, which may
    be upstream).  The assembled stream yields launch features identical to
    extracting them from the whole session because
    :meth:`PacketGroupLabeler.label_window` only reads ``[origin, origin +
    window)`` of the downstream direction and normalises against the maximum
    payload observed *within* the window.

    Late window packets (arriving in a later batch, still inside the window)
    are absorbed like any others — which is what lets the runtime
    re-classify the title when the window fills retroactively.
    """

    __slots__ = ("window_seconds", "_chunks", "n_rows")

    def __init__(self, window_seconds: float) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        self._chunks: List[PacketColumns] = []
        self.n_rows = 0

    def absorb(self, columns: PacketColumns, origin: float) -> int:
        """Keep the batch's window rows; return how many were kept."""
        timestamps = columns.timestamps
        upper = origin + self.window_seconds
        if timestamps.size < 2 or bool(np.all(timestamps[1:] >= timestamps[:-1])):
            # sorted batch: the window rows are a prefix — zero-copy slice
            if float(timestamps[0]) > upper:
                return 0
            count = int(np.searchsorted(timestamps, upper, side="right"))
            kept = columns if count == len(columns) else columns.take(slice(0, count))
        else:
            mask = timestamps <= upper
            count = int(np.count_nonzero(mask))
            if not count:
                return 0
            kept = (
                columns
                if count == len(columns)
                else columns.take(np.flatnonzero(mask))
            )
        if count:
            self._chunks.append(kept)
            self.n_rows += count
        return count

    def stream(self) -> PacketStream:
        """The buffered window as a time-sorted stream."""
        if not self._chunks:
            return PacketStream()
        return PacketStream.from_columns(PacketColumns.concat(self._chunks))

    def nbytes(self) -> int:
        return sum(chunk.nbytes() for chunk in self._chunks)


# ---------------------------------------------------------------------------
# slot counters + provisional EMA (stage classification)
# ---------------------------------------------------------------------------
class SlotStageReducer:
    """Integer-exact per-slot volumetric counters plus the online EMA state.

    Columns of the counter matrix are (down payload bytes, down packets,
    up payload bytes, up packets) per ``I``-second slot.  The counts are
    grown with one pair of ``bincount`` adds per batch and equal
    :meth:`VolumetricAttributeGenerator.raw_slot_matrix` of the packets seen
    so far exactly; :meth:`raw_matrix` converts them to the offline rates.
    The EMA tracker and slot cursor feed the runtime's *provisional* stage
    gate (causal running-peak attributes, classified per completed slot).
    """

    __slots__ = ("slot_duration", "_raw", "_max_slot", "_cursor", "_tracker")

    def __init__(self, slot_duration: float, alpha: float) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        self.slot_duration = slot_duration
        self._raw = np.zeros((64, 4))
        self._max_slot = -1
        self._cursor = 0
        self._tracker = OnlineVolumetricTracker(alpha=alpha)

    def _ensure_capacity(self, slot: int) -> None:
        if slot < self._raw.shape[0]:
            return
        grown = np.zeros((max(slot + 1, self._raw.shape[0] * 2), 4))
        grown[: self._raw.shape[0]] = self._raw
        self._raw = grown

    def reset_counts(self) -> None:
        """Zero the counters (exact refold after an origin shift).

        The EMA tracker and cursor are deliberately left untouched: the
        provisional timeline already emitted cannot be retracted, and the
        authoritative timeline is recomputed from the refolded counters at
        finalisation anyway.
        """
        self._raw = np.zeros((64, 4))
        self._max_slot = -1

    def absorb(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        down: np.ndarray,
        origin: float,
    ) -> None:
        """Fold one batch's rows into the per-slot counters."""
        indices = np.floor((timestamps - origin) / self.slot_duration).astype(np.int64)
        # a packet older than the session origin (cross-batch reordering)
        # folds into slot 0; bounded mode accepts the approximation, the
        # full-history mode refolds with the corrected origin instead
        np.clip(indices, 0, None, out=indices)
        top = int(indices.max())
        self._ensure_capacity(top)
        self._max_slot = max(self._max_slot, top)
        length = top + 1
        if down.any():
            idx = indices[down]
            self._raw[:length, 0] += np.bincount(
                idx, weights=sizes[down], minlength=length
            )
            self._raw[:length, 1] += np.bincount(idx, minlength=length)
        up = ~down
        if up.any():
            idx = indices[up]
            self._raw[:length, 2] += np.bincount(
                idx, weights=sizes[up], minlength=length
            )
            self._raw[:length, 3] += np.bincount(idx, minlength=length)

    def absorb_directional(
        self,
        down_times: np.ndarray,
        down_sizes: np.ndarray,
        up_times: np.ndarray,
        up_sizes: np.ndarray,
        origin: float,
    ) -> None:
        """Fold pre-split per-direction rows (offline whole-session path).

        Counter-identical to :meth:`absorb` on the interleaved batch: each
        direction's rows keep their relative order, so every ``bincount``
        accumulates the same weights in the same order.
        """
        top = -1
        per_direction = []
        for times, sizes in ((down_times, down_sizes), (up_times, up_sizes)):
            if times.size:
                indices = np.floor((times - origin) / self.slot_duration).astype(
                    np.int64
                )
                np.clip(indices, 0, None, out=indices)
                top = max(top, int(indices.max()))
                per_direction.append((indices, sizes))
            else:
                per_direction.append(None)
        if top < 0:
            return
        self._ensure_capacity(top)
        self._max_slot = max(self._max_slot, top)
        length = top + 1
        for column, entry in ((0, per_direction[0]), (2, per_direction[1])):
            if entry is None:
                continue
            indices, sizes = entry
            self._raw[:length, column] += np.bincount(
                indices, weights=sizes, minlength=length
            )
            self._raw[:length, column + 1] += np.bincount(indices, minlength=length)

    def advance(
        self, clock: float, origin: Optional[float], total_slots: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Complete every slot the feed clock has passed (provisional gate).

        Returns the causal (running-peak, EMA-carried) feature rows and slot
        indices of the newly completed slots; pass ``clock=inf`` at close
        time to flush the final partial slot.
        """
        if origin is None:
            return _EMPTY_FEATURES, _EMPTY_SLOTS
        if np.isfinite(clock):
            complete = min(
                int(np.floor((clock - origin) / self.slot_duration)), total_slots
            )
        else:  # close-time flush: every observed slot completes
            complete = total_slots
        if complete <= self._cursor:
            return _EMPTY_FEATURES, _EMPTY_SLOTS
        self._ensure_capacity(complete - 1)
        converted = self._convert(self._raw[self._cursor : complete])
        features = np.empty_like(converted)
        for row in range(converted.shape[0]):
            features[row] = self._tracker.update(converted[row])
        slots = np.arange(self._cursor, complete, dtype=np.int64)
        self._cursor = complete
        return features, slots

    def _convert(self, raw: np.ndarray) -> np.ndarray:
        """Counters -> offline rate units (same expressions as the generator)."""
        interval = self.slot_duration
        converted = np.empty_like(raw)
        converted[:, 0] = raw[:, 0] * 8 / interval / 1e6  # down Mbps
        converted[:, 1] = raw[:, 1] / interval            # down pkt/s
        converted[:, 2] = raw[:, 2] * 8 / interval / 1e3  # up Kbps
        converted[:, 3] = raw[:, 3] / interval            # up pkt/s
        return converted

    def raw_matrix(self, total_slots: int) -> np.ndarray:
        """The offline ``raw_slot_matrix`` equivalent of the counters.

        ``total_slots`` is the offline slot count (``ceil(duration / I)``,
        at least 1); any counter row past it (a packet exactly on the final
        slot boundary) is truncated, exactly as the offline matrix drops it.
        """
        n = max(1, total_slots)
        self._ensure_capacity(n - 1)
        return self._convert(self._raw[:n])

    def nbytes(self) -> int:
        return self._raw.nbytes


# ---------------------------------------------------------------------------
# per-interval QoE stores (exact and approximate tiers)
# ---------------------------------------------------------------------------
class _IntervalSealer:
    """Seal-watermark logic shared by the exact and approx QoE reducers.

    Subclasses provide ``interval_seconds``, ``_sealed_upto`` and
    ``_sealed_view(index, origin, end_s, partial)``; the watermark ensures
    every interval seals exactly once (late rows landing in an
    already-sealed interval still fold, but the provisional event for that
    window is never re-emitted).
    """

    __slots__ = ()

    def advance(self, clock: float, origin: Optional[float]) -> list:
        """Seal every interval whose end the feed clock has passed."""
        if origin is None or not np.isfinite(clock):
            return []
        complete = int(np.floor((clock - origin) / self.interval_seconds))
        if complete <= self._sealed_upto:
            return []
        sealed = [
            self._sealed_view(
                index,
                origin,
                end_s=origin + (index + 1) * self.interval_seconds,
                partial=False,
            )
            for index in range(self._sealed_upto, complete)
        ]
        self._sealed_upto = complete
        return sealed

    def flush(self, origin: Optional[float], last_ts: float) -> list:
        """Seal the trailing partial interval at close time (if any)."""
        if origin is None:
            return []
        k_last = max(0, int(np.floor((last_ts - origin) / self.interval_seconds)))
        if k_last < self._sealed_upto:
            return []
        sealed = []
        for index in range(self._sealed_upto, k_last + 1):
            partial = index == k_last
            end = last_ts if partial else origin + (index + 1) * self.interval_seconds
            sealed.append(self._sealed_view(index, origin, end_s=end, partial=partial))
        self._sealed_upto = k_last + 1
        return sealed


@dataclass(frozen=True)
class SealedQoEInterval:
    """One completed (or close-flushed) QoE measurement window."""

    index: int
    start_s: float
    end_s: float
    duration_s: float
    down_times: np.ndarray
    rtp_timestamps: np.ndarray
    rtp_sequences: np.ndarray
    payload_bytes: float
    n_packets: int
    partial: bool


class _IntervalStore:
    """Downstream (timestamp, rtp_seq, rtp_ts) columns of one interval."""

    __slots__ = ("chunks", "payload_bytes", "n_packets", "_ts", "_seq", "_rts")

    def __init__(self) -> None:
        self.chunks: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]] = []
        self.payload_bytes = 0.0
        self.n_packets = 0
        self._ts: Optional[np.ndarray] = None
        self._seq: Optional[np.ndarray] = None
        self._rts: Optional[np.ndarray] = None

    def append(
        self,
        timestamps: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_timestamps: Optional[np.ndarray],
        payload_sum: float,
    ) -> None:
        self.chunks.append((timestamps, sequences, rtp_timestamps))
        self.payload_bytes += payload_sum
        self.n_packets += int(timestamps.size)

    def consolidate(self) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Merge pending chunks into one stably time-sorted column triple.

        Stable sorting the concatenation of an already-consolidated (sorted)
        prefix with later arrivals equals one stable sort over all arrivals
        in their original order, so late rows landing in a sealed interval
        still finalise exactly.
        """
        if self.chunks:
            parts = self.chunks
            if self._ts is not None:
                parts = [(self._ts, self._seq, self._rts)] + parts
            if len(parts) == 1:
                ts, seq, rts = parts[0]
            else:
                ts = np.concatenate([part[0] for part in parts])

                def optional(slot: int) -> Optional[np.ndarray]:
                    if all(part[slot] is None for part in parts):
                        return None
                    return np.concatenate(
                        [
                            part[slot]
                            if part[slot] is not None
                            else np.full(part[0].size, RTP_NONE, dtype=np.int64)
                            for part in parts
                        ]
                    )

                seq, rts = optional(1), optional(2)
            if ts.size > 1 and not bool(np.all(ts[1:] >= ts[:-1])):
                order = np.argsort(ts, kind="stable")
                ts = ts[order]
                seq = seq[order] if seq is not None else None
                rts = rts[order] if rts is not None else None
            self._ts, self._seq, self._rts = ts, seq, rts
            self.chunks = []
        if self._ts is None:
            return _EMPTY_FLOAT, None, None
        return self._ts, self._seq, self._rts

    def nbytes(self) -> int:
        total = 0
        for arrays in ([(self._ts, self._seq, self._rts)] + self.chunks):
            for column in arrays:
                if column is not None:
                    total += column.nbytes
        return total


class QoEIntervalReducer(_IntervalSealer):
    """Per ``W``-second interval store of the QoE-relevant downstream columns.

    Each interval holds only the three columns the objective QoE estimator
    reads — downstream arrival timestamps, RTP sequence numbers and RTP
    timestamps — consolidated and stably time-sorted when the interval
    seals.  Sealed intervals drive the provisional :class:`QoEInterval`
    events; :meth:`final_arrays` concatenates them (interval order equals
    global time order) into exactly the downstream views offline
    ``ObjectiveQoEEstimator.estimate`` reads from the sorted stream.
    """

    __slots__ = ("interval_seconds", "_stores", "_sealed_upto")

    def __init__(self, interval_seconds: float = 10.0) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds
        self._stores: Dict[int, _IntervalStore] = {}
        self._sealed_upto = 0  # first interval index not yet sealed

    def absorb_arrays(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        origin: float,
    ) -> None:
        """Bucket pre-selected downstream rows by interval index.

        The common case — time-sorted rows (offline full-session folds and
        time-sliced feed batches) — partitions into contiguous runs with one
        boundary scan, storing zero-copy views; unsorted batches fall back
        to per-interval masks (arrival order within an interval is preserved
        either way, which is what keeps finalisation stable-sort exact).
        """
        if not timestamps.size:
            return
        indices = np.floor((timestamps - origin) / self.interval_seconds).astype(
            np.int64
        )
        np.clip(indices, 0, None, out=indices)
        if bool(np.all(indices[1:] >= indices[:-1])):
            boundaries = np.flatnonzero(indices[1:] != indices[:-1]) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [indices.size]))
            for start, end in zip(starts, ends):
                self._append(
                    int(indices[start]),
                    timestamps[start:end],
                    sequences[start:end] if sequences is not None else None,
                    rtp_times[start:end] if rtp_times is not None else None,
                    float(sizes[start:end].sum()),
                )
        else:
            for interval in np.unique(indices):
                mask = indices == interval
                self._append(
                    int(interval),
                    timestamps[mask],
                    sequences[mask] if sequences is not None else None,
                    rtp_times[mask] if rtp_times is not None else None,
                    float(sizes[mask].sum()),
                )

    def _append(
        self,
        key: int,
        timestamps: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        payload_sum: float,
    ) -> None:
        store = self._stores.get(key)
        if store is None:
            store = self._stores[key] = _IntervalStore()
        # late rows landing in an already-sealed interval simply queue as
        # pending chunks; consolidate() re-sorts them stably at finalise,
        # so the close-time columns stay exact (the already-emitted
        # provisional event for that window is not retracted)
        store.append(timestamps, sequences, rtp_times, payload_sum)

    # ------------------------------------------------------------ sealing
    def _sealed_view(
        self, index: int, origin: float, end_s: float, partial: bool
    ) -> SealedQoEInterval:
        # index 0 starts at the origin directly: with the infinite-interval
        # sentinel (one window spanning the whole session) 0 * inf is NaN
        start = origin if index == 0 else origin + index * self.interval_seconds
        store = self._stores.get(index)
        if store is None:
            ts, seq, rts = _EMPTY_FLOAT, None, None
            payload, count = 0.0, 0
        else:
            ts, seq, rts = store.consolidate()
            payload, count = store.payload_bytes, store.n_packets
        return SealedQoEInterval(
            index=index,
            start_s=start,
            end_s=end_s,
            # floor at 1 ms: a close-flushed partial window whose last packet
            # sits exactly on the interval boundary has zero span, and rates
            # over a sub-millisecond window would be monitoring noise
            duration_s=max(end_s - start, 1e-3),
            down_times=ts,
            rtp_timestamps=rts[rts != RTP_NONE] if rts is not None else _EMPTY_INT,
            rtp_sequences=seq[seq != RTP_NONE] if seq is not None else _EMPTY_INT,
            payload_bytes=payload,
            n_packets=count,
            partial=partial,
        )

    # ------------------------------------------------------------ finalise
    def final_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All downstream (times, rtp_timestamps, rtp_sequences), time-sorted.

        Equals the offline stream's ``timestamps(DOWNSTREAM)`` /
        ``rtp_timestamps(DOWNSTREAM)`` / ``rtp_sequences(DOWNSTREAM)`` views
        exactly: each interval is stably sorted, intervals partition time in
        ascending order, and equal timestamps never straddle intervals.
        """
        if not self._stores:
            return _EMPTY_FLOAT, _EMPTY_INT, _EMPTY_INT
        triples = [self._stores[key].consolidate() for key in sorted(self._stores)]
        if len(triples) == 1:
            times, seq, rts = triples[0]
            return (
                times,
                rts[rts != RTP_NONE] if rts is not None else _EMPTY_INT,
                seq[seq != RTP_NONE] if seq is not None else _EMPTY_INT,
            )
        times = np.concatenate([ts for ts, _, _ in triples])
        any_seq = any(seq is not None for _, seq, _ in triples)
        any_rts = any(rts is not None for _, _, rts in triples)
        if any_seq:
            seq = np.concatenate(
                [
                    seq if seq is not None else np.full(ts.size, RTP_NONE, np.int64)
                    for ts, seq, _ in triples
                ]
            )
            seq = seq[seq != RTP_NONE]
        else:
            seq = _EMPTY_INT
        if any_rts:
            rts = np.concatenate(
                [
                    rts if rts is not None else np.full(ts.size, RTP_NONE, np.int64)
                    for ts, _, rts in triples
                ]
            )
            rts = rts[rts != RTP_NONE]
        else:
            rts = _EMPTY_INT
        return times, rts, seq

    def nbytes(self) -> int:
        return sum(store.nbytes() for store in self._stores.values())


# ---------------------------------------------------------------------------
# approximate QoE tier: O(intervals) state, no packet columns
# ---------------------------------------------------------------------------
class _ReservoirSampler:
    """Deterministic algorithm-R reservoir over a stream of values.

    Every value past the fill phase consumes exactly one uniform draw from a
    fixed-seed generator, so the retained sample depends only on the value
    *sequence*, never on how the stream was chunked into batches — which is
    what keeps approx close reports pinned across feed batch sizes.
    """

    __slots__ = ("samples", "seen", "_rng")

    def __init__(self, capacity: int, seed: int) -> None:
        self.samples = np.empty(capacity, dtype=float)
        self.seen = 0
        self._rng = np.random.default_rng(seed)

    def add(self, values: np.ndarray) -> None:
        if not values.size:
            return
        capacity = self.samples.size
        fill = min(max(capacity - self.seen, 0), int(values.size))
        if fill:
            self.samples[self.seen : self.seen + fill] = values[:fill]
        rest = values[fill:]
        if rest.size:
            # 1-based stream positions of the overflow values
            positions = np.arange(
                self.seen + fill + 1, self.seen + values.size + 1, dtype=float
            )
            draws = np.floor(self._rng.random(rest.size) * positions).astype(np.int64)
            hit = draws < capacity
            if hit.any():
                # sequential semantics: for duplicate slots the LAST value
                # wins; fancy assignment does not guarantee that, so dedupe
                slots, keep = np.unique(draws[hit][::-1], return_index=True)
                self.samples[slots] = rest[hit][::-1][keep]
        self.seen += int(values.size)

    def sample(self) -> np.ndarray:
        """The retained values (all of them while the stream fits)."""
        return self.samples[: min(self.seen, self.samples.size)]

    def nbytes(self) -> int:
        return self.samples.nbytes


@dataclass(frozen=True)
class SealedApproxQoEInterval:
    """One completed (or close-flushed) approximate measurement window.

    Carries fixed-size aggregates instead of packet columns; the engine
    turns them into provisional metrics via
    :meth:`ObjectiveQoEEstimator.estimate_approx`.  ``frozen`` flags a
    window that carried packets (and an RTP stream) without the RTP
    timestamp ever advancing past the previous window's last-seen value — a
    frozen image with the transport still flowing.

    ``candidate_gap_packets`` is the per-window candidate-gap ledger: the
    total size of the arrival-order sequence gaps (``0 < gap < 200``)
    *revealed* inside this window — each gap is attributed to the window of
    the arrival that exposed it, so a loss burst is localised to its sealing
    window instead of surfacing only in the session-wide lost count.  Unlike
    ``seq_lost`` (a delta of the session-wide counting-set estimate, which
    depends on when windows seal relative to the feed batches), the ledger
    is a pure function of the flow's sorted packet sequence — chunking- and
    batching-invariant, which is what lets the fleet tier fold it
    bit-stably.  A candidate later resolved by a reordered arrival is not
    retracted (provisional verdicts never are).
    """

    index: int
    start_s: float
    end_s: float
    duration_s: float
    n_packets: int
    payload_bytes: float
    n_rtp: int
    n_new_frames: int
    burst_gap_count: int
    gap_count: int
    gap_max_s: float
    gap_samples: np.ndarray
    seq_received: int
    seq_lost: int
    partial: bool
    frozen: bool
    candidate_gap_packets: int = 0


class _ApproxIntervalStore:
    """Fixed-size aggregates of one approximate measurement window."""

    __slots__ = (
        "n_packets",
        "payload_bytes",
        "n_rtp",
        "n_new_frames",
        "gap_count",
        "gap_sum",
        "gap_max",
        "burst_gap_count",
        "reservoir",
        "seq_received",
        "candidate_gap_packets",
    )

    def __init__(self, index: int, capacity: int) -> None:
        self.n_packets = 0
        self.payload_bytes = 0.0
        self.n_rtp = 0
        self.n_new_frames = 0
        self.gap_count = 0
        self.gap_sum = 0.0
        self.gap_max = 0.0
        self.burst_gap_count = 0
        # seeded by the interval index: deterministic per window
        self.reservoir = _ReservoirSampler(capacity, seed=index)
        self.seq_received = 0
        self.candidate_gap_packets = 0

    def nbytes(self) -> int:
        return self.reservoir.nbytes()


class ApproxQoEIntervalReducer(_IntervalSealer):
    """O(intervals) approximate QoE state: aggregates only, no columns.

    Per sealed ``W``-second interval the reducer keeps a
    :class:`_ApproxIntervalStore` — a hard constant of scalars plus a small
    reservoir, freed when the window seals — and per session a fixed set of
    aggregates the close-time
    :meth:`ObjectiveQoEEstimator.estimate_approx` reads.  Peak per-session
    state is therefore flat in the packet rate *and* bounded by the open
    (unsealed) windows rather than the session's lifetime (pinned by the
    memory benchmark's scaling probe), unlike the exact tier's ~24 B per
    downstream packet.

    **Error model** (each bound asserted by ``tests/test_approx_qoe.py``):

    * throughput and duration are exact (integral byte sums);
    * the inter-frame gap population (count, sum, max — gaps above
      :data:`~repro.core.qoe.FRAME_GAP_SECONDS`) is exact whenever batches
      are time-ordered across arrivals (feeds are time-sliced; each batch
      is sorted on fold, so within-batch shuffling is invisible); the p95
      lag is exact while the session has at most ``session_reservoir``
      frame gaps and an unbiased fixed-seed sample estimate beyond that;
    * the frame count equals the distinct RTP-timestamp count whenever the
      RTP clock is non-decreasing in arrival order (record-high counting
      never overcounts);
    * loss runs the exact estimator's own reset-aware algorithm on two
      fixed 64 KiB counting sets: arrival-order sequence gaps with
      ``0 < g < 200`` mark their skipped values in a ``skipped`` set, every
      observed value marks a ``seen`` set, and close-time lost is
      ``popcount(skipped & ~seen)``.  This equals the exact count whenever
      the session's sequence numbers span at most one 16-bit wrap (no
      aliasing) and no value is skipped-and-never-seen *twice* (the exact
      path counts such values once per candidate gap, a set once).

    The one structural approximation shared with bounded mode: a packet
    older than the carried last arrival (cross-batch reordering) produces a
    negative gap, which simply drops out of the frame-gap population.
    """

    #: Reservoir capacity per sealed interval (provisional p95).
    interval_reservoir = 64
    #: Session-level reservoir capacity backing the close-time p95.
    session_reservoir = 4096

    __slots__ = (
        "interval_seconds",
        "_stores",
        "_sealed_upto",
        "_last_down_ts",
        "_frame_max_rts",
        "_n_frames",
        "_n_rtp",
        "_n_down",
        "_gap_count",
        "_gap_sum",
        "_gap_max",
        "_burst_gap_count",
        "_gap_reservoir",
        "_seq_received",
        "_seq_last_raw",
        "_seen",
        "_skipped",
        "_lost_reported",
    )

    #: Arrival-order sequence gaps at or above this are stream resets, not
    #: loss bursts — the same cutoff as the exact estimator.
    _RESET_GAP = 200

    def __init__(self, interval_seconds: float = 10.0) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds
        self._stores: Dict[int, _ApproxIntervalStore] = {}
        self._sealed_upto = 0
        self._last_down_ts = float("-inf")
        self._frame_max_rts = -1
        self._n_frames = 0
        self._n_rtp = 0
        self._n_down = 0
        self._gap_count = 0
        self._gap_sum = 0.0
        self._gap_max = 0.0
        self._burst_gap_count = 0
        self._gap_reservoir = _ReservoirSampler(self.session_reservoir, seed=0x95)
        self._seq_received = 0
        self._seq_last_raw = -1
        # the two 64 KiB counting sets backing the loss estimate, lazy
        self._seen: Optional[np.ndarray] = None
        self._skipped: Optional[np.ndarray] = None
        self._lost_reported = 0  # lost count already attributed to sealed windows

    # ------------------------------------------------------------ ingestion
    def absorb_arrays(
        self,
        timestamps: np.ndarray,
        sizes: np.ndarray,
        sequences: Optional[np.ndarray],
        rtp_times: Optional[np.ndarray],
        origin: float,
    ) -> None:
        """Fold pre-selected downstream rows into the fixed-size aggregates."""
        if not timestamps.size:
            return
        if timestamps.size > 1 and not bool(
            np.all(timestamps[1:] >= timestamps[:-1])
        ):
            order = np.argsort(timestamps, kind="stable")
            timestamps = timestamps[order]
            sizes = sizes[order]
            sequences = sequences[order] if sequences is not None else None
            rtp_times = rtp_times[order] if rtp_times is not None else None
        n = int(timestamps.size)

        # --- inter-frame gap stream (diffs against the carried last arrival)
        gap_at = np.full(n, -1.0)
        if np.isfinite(self._last_down_ts):
            gap_at = timestamps - np.concatenate(
                ([self._last_down_ts], timestamps[:-1])
            )
        elif n > 1:
            gap_at[1:] = np.diff(timestamps)
        self._last_down_ts = max(self._last_down_ts, float(timestamps[-1]))
        frame_gaps = gap_at[gap_at > FRAME_GAP_SECONDS]
        if frame_gaps.size:
            self._gap_count += int(frame_gaps.size)
            self._gap_sum += float(frame_gaps.sum())
            self._gap_max = max(self._gap_max, float(frame_gaps.max()))
            self._gap_reservoir.add(frame_gaps)
        self._burst_gap_count += int(np.count_nonzero(gap_at > BURST_GAP_SECONDS))
        self._n_down += n

        # --- frames: strict record highs of the RTP timestamp
        new_frame_at: Optional[np.ndarray] = None
        rtp_valid: Optional[np.ndarray] = None
        if rtp_times is not None:
            rtp_valid = rtp_times != RTP_NONE
            if rtp_valid.any():
                values = rtp_times[rtp_valid]
                running = np.maximum.accumulate(
                    np.concatenate(([self._frame_max_rts], values))
                )
                is_new = running[1:] > running[:-1]
                self._frame_max_rts = int(running[-1])
                self._n_frames += int(np.count_nonzero(is_new))
                self._n_rtp += int(values.size)
                new_frame_at = np.zeros(n, dtype=bool)
                new_frame_at[np.flatnonzero(rtp_valid)[is_new]] = True
            else:
                rtp_valid = None

        # --- sequences: the exact loss algorithm on two counting sets
        seq_valid: Optional[np.ndarray] = None
        cand_gap_at: Optional[np.ndarray] = None
        if sequences is not None:
            seq_valid = sequences != RTP_NONE
            if seq_valid.any():
                raw = sequences[seq_valid].astype(np.int64)
                if self._seen is None:
                    self._seen = np.zeros(0x10000, dtype=bool)
                    self._skipped = np.zeros(0x10000, dtype=bool)
                self._seen[raw & 0xFFFF] = True
                if self._seq_last_raw < 0:
                    prevs, nexts = raw[:-1], raw[1:]
                else:
                    prevs = np.concatenate(([self._seq_last_raw], raw[:-1]))
                    nexts = raw
                if prevs.size:
                    gaps = (nexts - prevs - 1) & 0xFFFF
                    candidate = (gaps > 0) & (gaps < self._RESET_GAP)
                    if candidate.any():
                        gap_sizes = gaps[candidate]
                        gap_starts = prevs[candidate]
                        # expand each gap into its skipped values (the exact
                        # estimator's own expansion) and mark them
                        offsets = np.arange(int(gap_sizes.sum())) - np.repeat(
                            np.cumsum(gap_sizes) - gap_sizes, gap_sizes
                        )
                        skipped = (
                            np.repeat(gap_starts, gap_sizes) + offsets + 1
                        ) & 0xFFFF
                        self._skipped[skipped] = True
                        # per-window candidate-gap ledger: attribute each gap
                        # to the row of the arrival that revealed it (the
                        # ``nexts`` side), so the size lands in that row's
                        # sealing window below.  Reveal rows are distinct, so
                        # plain fancy assignment is exact.
                        seq_rows = np.flatnonzero(seq_valid)
                        reveal = seq_rows[1:] if self._seq_last_raw < 0 else seq_rows
                        cand_gap_at = np.zeros(n, dtype=np.int64)
                        cand_gap_at[reveal[candidate]] = gap_sizes
                self._seq_last_raw = int(raw[-1])
                self._seq_received += int(raw.size)
            else:
                seq_valid = None

        # --- per-interval aggregates (sorted rows => contiguous runs)
        indices = np.floor((timestamps - origin) / self.interval_seconds).astype(
            np.int64
        )
        np.clip(indices, 0, None, out=indices)
        boundaries = np.flatnonzero(indices[1:] != indices[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for start, end in zip(starts, ends):
            store = self._stores.get(int(indices[start]))
            if store is None:
                store = self._stores[int(indices[start])] = _ApproxIntervalStore(
                    int(indices[start]), self.interval_reservoir
                )
            store.n_packets += int(end - start)
            store.payload_bytes += float(sizes[start:end].sum())
            run_gaps = gap_at[start:end]
            run_frame_gaps = run_gaps[run_gaps > FRAME_GAP_SECONDS]
            if run_frame_gaps.size:
                store.gap_count += int(run_frame_gaps.size)
                store.gap_sum += float(run_frame_gaps.sum())
                store.gap_max = max(store.gap_max, float(run_frame_gaps.max()))
                store.reservoir.add(run_frame_gaps)
            store.burst_gap_count += int(
                np.count_nonzero(run_gaps > BURST_GAP_SECONDS)
            )
            if rtp_valid is not None:
                store.n_rtp += int(np.count_nonzero(rtp_valid[start:end]))
            if new_frame_at is not None:
                store.n_new_frames += int(np.count_nonzero(new_frame_at[start:end]))
            if seq_valid is not None:
                store.seq_received += int(np.count_nonzero(seq_valid[start:end]))
            if cand_gap_at is not None:
                store.candidate_gap_packets += int(cand_gap_at[start:end].sum())

    # ------------------------------------------------------------ sealing
    def _sealed_view(
        self, index: int, origin: float, end_s: float, partial: bool
    ) -> SealedApproxQoEInterval:
        # index 0 starts at the origin directly (inf-interval sentinel: 0*inf
        # is NaN), exactly like the exact reducer
        start = origin if index == 0 else origin + index * self.interval_seconds
        # pop, don't get: nothing reads a sealed store again (close metrics
        # come from the session-level aggregates), so live per-interval state
        # is bounded by the *open* windows, not the session's lifetime.  Late
        # rows landing in a sealed interval re-create a store that is never
        # re-sealed — dead weight bounded by the feed's reordering span.
        store = self._stores.pop(index, None)
        if store is None:
            return SealedApproxQoEInterval(
                index=index,
                start_s=start,
                end_s=end_s,
                duration_s=max(end_s - start, 1e-3),
                n_packets=0,
                payload_bytes=0.0,
                n_rtp=0,
                n_new_frames=0,
                burst_gap_count=0,
                gap_count=0,
                gap_max_s=0.0,
                gap_samples=_EMPTY_FLOAT,
                seq_received=0,
                seq_lost=0,
                partial=partial,
                frozen=False,
            )
        # attribute the growth of the session-wide lost count since the last
        # seal to this window (a skipped value resolved by a later arrival
        # silently drops out of the session total — provisional verdicts are
        # not retracted, exactly like the other gates)
        lost_now = self._lost_so_far()
        lost = max(0, lost_now - self._lost_reported)
        self._lost_reported = lost_now
        return SealedApproxQoEInterval(
            index=index,
            start_s=start,
            end_s=end_s,
            duration_s=max(end_s - start, 1e-3),
            n_packets=store.n_packets,
            payload_bytes=store.payload_bytes,
            n_rtp=store.n_rtp,
            n_new_frames=store.n_new_frames,
            burst_gap_count=store.burst_gap_count,
            gap_count=store.gap_count,
            gap_max_s=store.gap_max,
            gap_samples=store.reservoir.sample().copy(),
            seq_received=store.seq_received,
            seq_lost=lost,
            partial=partial,
            # packets flowed but the RTP clock never advanced past the
            # previous window's last-seen timestamp: a frozen image
            frozen=store.n_packets > 0 and store.n_rtp > 0
            and store.n_new_frames == 0,
            candidate_gap_packets=store.candidate_gap_packets,
        )

    def _lost_so_far(self) -> int:
        """Skipped-and-never-seen sequence values (the exact lost count)."""
        if self._skipped is None:
            return 0
        return int(np.count_nonzero(self._skipped & ~self._seen))

    # ------------------------------------------------------------ finalise
    def final_aggregates(self) -> dict:
        """Session-level keyword arguments for ``estimate_approx``.

        Independent of the interval width and of how the feed was batched,
        which is what pins offline (one infinite window) and streaming
        (10 s windows) approx close reports equal.
        """
        lost = self._lost_so_far()
        return {
            "n_down_packets": self._n_down,
            "n_frames": self._n_frames,
            "n_rtp": self._n_rtp,
            "burst_gap_count": self._burst_gap_count,
            "gap_count": self._gap_count,
            "gap_max_s": self._gap_max,
            "gap_samples": self._gap_reservoir.sample().copy(),
            "seq_received": self._seq_received,
            "seq_lost": lost,
        }

    def nbytes(self) -> int:
        total = self._gap_reservoir.nbytes()
        if self._seen is not None:
            total += self._seen.nbytes + self._skipped.nbytes
        return total + sum(store.nbytes() for store in self._stores.values())


# ---------------------------------------------------------------------------
# the cascade: shared aggregates + the reducers, one absorb() entry point
# ---------------------------------------------------------------------------
class SessionReducerCascade:
    """Bounded fold state of one session across every cascade stage.

    Parameters
    ----------
    slot_duration / alpha:
        Stage-classification slot ``I`` and EMA weight (from the fitted
        activity classifier).
    window_seconds:
        Title window ``N`` (from the fitted title classifier).
    qoe_interval_seconds:
        Width of the provisional QoE measurement windows (10 s by default).
    keep_history:
        Retain the raw batches (the runtime's ``"full"`` mode): enables
        :meth:`assembled_stream` and the exact refold when a packet older
        than the session origin arrives in a later batch.  The default
        (bounded) mode holds no packet history.
    qoe_mode:
        ``"exact"`` (default) keeps the per-interval downstream QoE columns
        (close metrics bit-identical to offline); ``"approx"`` folds into
        the O(intervals) :class:`ApproxQoEIntervalReducer` — no columns at
        all, close metrics approximate with documented error bounds.
        Incompatible with ``keep_history`` (full mode exists to be exact).
    """

    __slots__ = (
        "origin",
        "last_ts",
        "n_packets",
        "down_bytes",
        "up_bytes",
        "has_downstream",
        "has_rtp",
        "origin_shifts",
        "launch",
        "slots",
        "qoe",
        "qoe_mode",
        "_history",
        "_window_seconds",
        "_alpha",
        "_qoe_interval_seconds",
    )

    def __init__(
        self,
        slot_duration: float,
        alpha: float,
        window_seconds: float,
        qoe_interval_seconds: float = 10.0,
        keep_history: bool = False,
        qoe_mode: str = "exact",
    ) -> None:
        if qoe_mode not in QOE_MODES:
            raise ValueError(f"qoe_mode must be one of {QOE_MODES}, got {qoe_mode!r}")
        if qoe_mode == "approx" and keep_history:
            raise ValueError(
                "qoe_mode='approx' is incompatible with keep_history: the "
                "full-history mode exists to stay exact under reordering"
            )
        self.origin: Optional[float] = None
        self.last_ts = float("-inf")
        self.n_packets = 0
        self.down_bytes = 0.0
        self.up_bytes = 0.0
        self.has_downstream = False
        self.has_rtp = False
        self.origin_shifts = 0
        self._window_seconds = window_seconds
        self._alpha = alpha
        self._qoe_interval_seconds = qoe_interval_seconds
        self.launch = LaunchWindowReducer(window_seconds)
        self.slots = SlotStageReducer(slot_duration, alpha)
        self.qoe_mode = qoe_mode
        if qoe_mode == "approx":
            self.qoe = ApproxQoEIntervalReducer(qoe_interval_seconds)
        else:
            self.qoe = QoEIntervalReducer(qoe_interval_seconds)
        self._history: Optional[List[PacketColumns]] = [] if keep_history else None

    # ------------------------------------------------------------ ingestion
    def absorb(self, columns: PacketColumns) -> int:
        """Fold one batch into every reducer; return new launch-window rows.

        The return value counts rows that landed inside the title window —
        the runtime uses a non-zero count after the title gate fired as the
        re-classification trigger.
        """
        if not len(columns):
            return 0
        timestamps = columns.timestamps
        batch_min = float(timestamps.min())
        if self.origin is None:
            self.origin = batch_min
        elif batch_min < self.origin and self._history is not None:
            # exact refold: an older packet surfaced, so every slot/interval
            # assignment shifts.  Only possible with retained history.
            self.origin_shifts += 1
            self._history.append(columns)
            self._refold(batch_min)
            mask = timestamps <= self.origin + self._window_seconds
            return int(np.count_nonzero(mask))
        elif batch_min < self.origin:
            # bounded mode: keep the anchored origin; pre-origin rows clip
            # into slot/interval 0 (the provisional counters absorb the
            # approximation, the final QoE columns stay exact)
            self.origin_shifts += 1
        if self._history is not None:
            self._history.append(columns)
        return self._fold(columns)

    def _fold(self, columns: PacketColumns) -> int:
        timestamps = columns.timestamps
        self.last_ts = max(self.last_ts, float(timestamps.max()))
        self.n_packets += len(columns)
        down = columns.directions == DOWNSTREAM_CODE
        sizes = columns.payload_sizes
        # one downstream gather, shared by the byte totals and the QoE store
        down_times = timestamps[down]
        down_sizes = sizes[down]
        if down_times.size:
            self.has_downstream = True
            down_sum = float(down_sizes.sum())
            self.down_bytes += down_sum
            # integral payload sizes make the subtraction exact
            self.up_bytes += float(sizes.sum()) - down_sum
        else:
            self.up_bytes += float(sizes.sum())
        ssrc = columns.rtp_ssrc
        if not self.has_rtp and ssrc is not None and bool(np.any(ssrc != RTP_NONE)):
            self.has_rtp = True
        new_window_rows = self.launch.absorb(columns, self.origin)
        self.slots.absorb(timestamps, sizes, down, self.origin)
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        self.qoe.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down] if sequences is not None else None,
            rtp_times[down] if rtp_times is not None else None,
            self.origin,
        )
        return new_window_rows

    def absorb_stream(self, stream: PacketStream) -> int:
        """Fold a whole sorted session stream (the offline one-shot path).

        Fold-identical to ``absorb(stream.columns())`` but reads the
        stream's cached per-direction views instead of re-deriving them, so
        repeated offline classification of the same corpus pays the
        direction split once per stream, not once per fold.  Only valid as
        the first fold of the cascade; later folds fall back to
        :meth:`absorb`.
        """
        columns = stream.columns()
        if not len(columns) or self.origin is not None:
            return self.absorb(columns)
        from repro.net.packet import Direction  # local: avoid cycle at import

        timestamps = columns.timestamps
        self.origin = float(timestamps[0])  # sorted stream
        self.last_ts = float(timestamps[-1])
        self.n_packets = len(columns)
        if self._history is not None:
            self._history.append(columns)
        down_times = stream.timestamps(Direction.DOWNSTREAM)
        down_sizes = stream.payload_sizes(Direction.DOWNSTREAM)
        up_times = stream.timestamps(Direction.UPSTREAM)
        up_sizes = stream.payload_sizes(Direction.UPSTREAM)
        if down_times.size:
            self.has_downstream = True
            self.down_bytes += float(down_sizes.sum())
        self.up_bytes += float(up_sizes.sum())
        ssrc = columns.rtp_ssrc
        if ssrc is not None and bool(np.any(ssrc != RTP_NONE)):
            self.has_rtp = True
        new_window_rows = self.launch.absorb(columns, self.origin)
        self.slots.absorb_directional(
            down_times, down_sizes, up_times, up_sizes, self.origin
        )
        sequences = columns.rtp_sequence
        rtp_times = columns.rtp_timestamp
        if sequences is not None or rtp_times is not None:
            down_rows = stream.direction_indices(Direction.DOWNSTREAM)
        self.qoe.absorb_arrays(
            down_times,
            down_sizes,
            sequences[down_rows] if sequences is not None else None,
            rtp_times[down_rows] if rtp_times is not None else None,
            self.origin,
        )
        return new_window_rows

    def _refold(self, new_origin: float) -> None:
        """Re-fold the retained history against a corrected (earlier) origin."""
        history = self._history or []
        self.origin = new_origin
        self.last_ts = float("-inf")
        self.n_packets = 0
        self.down_bytes = 0.0
        self.up_bytes = 0.0
        self.has_downstream = False
        self.has_rtp = False
        self.launch = LaunchWindowReducer(self._window_seconds)
        self.slots.reset_counts()
        # like the slot cursor, the seal watermark survives the refold:
        # already-emitted provisional QoEInterval events cannot be
        # retracted, so the rebuilt store must not re-seal (re-emit) them
        sealed_upto = self.qoe._sealed_upto
        self.qoe = QoEIntervalReducer(self._qoe_interval_seconds)
        self.qoe._sealed_upto = sealed_upto
        for batch in history:
            self._fold(batch)

    # ------------------------------------------------------------ aggregates
    @property
    def duration(self) -> float:
        """Seconds between the first and last packet (the offline value)."""
        if self.origin is None:
            return 0.0
        return max(0.0, self.last_ts - self.origin)

    def total_slots(self) -> int:
        """Slot count of the session so far (the offline ``n_slots``)."""
        if self.origin is None:
            return 0
        return max(
            1,
            int(np.ceil((self.last_ts - self.origin) / self.slots.slot_duration)),
        )

    # ------------------------------------------------------------ provisional
    def advance_slots(self, clock: float) -> Tuple[np.ndarray, np.ndarray]:
        """Provisional stage gate: feature rows of newly completed slots."""
        return self.slots.advance(clock, self.origin, self.total_slots())

    def advance_qoe(self, clock: float) -> List[SealedQoEInterval]:
        """Provisional QoE gate: seal intervals the clock has passed."""
        return self.qoe.advance(clock, self.origin)

    def flush_qoe(self) -> List[SealedQoEInterval]:
        """Seal the trailing partial interval at close time."""
        if self.origin is None:
            return []
        return self.qoe.flush(self.origin, self.last_ts)

    # ------------------------------------------------------------ finalise
    def launch_stream(self) -> PacketStream:
        """The title window's packets as a time-sorted stream."""
        return self.launch.stream()

    def final_raw_matrix(self) -> np.ndarray:
        """The offline raw slot matrix of everything absorbed so far."""
        if self.origin is None:
            return np.zeros((1, 4))
        return self.slots.raw_matrix(self.total_slots())

    def qoe_arrays(self) -> dict:
        """Keyword arguments for ``ObjectiveQoEEstimator.estimate_arrays``."""
        if self.qoe_mode == "approx":
            raise RuntimeError(
                "the approx QoE tier keeps no downstream columns; finalise "
                "through qoe_approx_arrays() / estimate_approx() instead"
            )
        down_times, rtp_timestamps, rtp_sequences = self.qoe.final_columns()
        return {
            "duration_s": self.duration,
            "down_times": down_times,
            "down_payload_bytes": self.down_bytes,
            "rtp_timestamps": rtp_timestamps,
            "rtp_sequences": rtp_sequences,
        }

    def qoe_approx_arrays(self) -> dict:
        """Keyword arguments for ``ObjectiveQoEEstimator.estimate_approx``."""
        if self.qoe_mode != "approx":
            raise RuntimeError(
                "the exact QoE tier finalises through qoe_arrays() / "
                "estimate_arrays(); qoe_approx_arrays() is approx-mode only"
            )
        return {
            "duration_s": self.duration,
            "down_payload_bytes": self.down_bytes,
            **self.qoe.final_aggregates(),
        }

    def flow_summary(self, server_port: int) -> dict:
        """The flow-metadata fields the platform signatures read.

        Matches :meth:`repro.net.flow.Flow.summary` bit for bit: byte totals
        are integral, so the mean-throughput and byte-ratio arithmetic below
        reproduces the stream-backed computation exactly.
        """
        duration = self.duration
        down = int(self.down_bytes)
        total = down + int(self.up_bytes)
        return {
            "duration_s": duration,
            "downstream_mbps": (
                down * 8 / duration / 1e6 if duration > 0 else 0.0
            ),
            "downstream_fraction": down / total if total else 0.0,
            "is_rtp": self.has_rtp,
            "server_port": server_port,
        }

    # ------------------------------------------------------------ history
    @property
    def keeps_history(self) -> bool:
        return self._history is not None

    @property
    def history(self) -> List[PacketColumns]:
        if self._history is None:
            raise RuntimeError(
                "packet history is not retained in bounded mode; construct the "
                "cascade with keep_history=True (runtime mode='full')"
            )
        return self._history

    def assembled_stream(self) -> PacketStream:
        """The full packet history as one time-sorted stream (full mode)."""
        return PacketStream.from_columns(PacketColumns.concat(self.history))

    # ------------------------------------------------------------ accounting
    def state_nbytes(self) -> int:
        """Approximate bytes of live per-session state (arrays only).

        Bounded mode counts the slot counters, the launch-window buffer and
        the per-interval QoE columns; full-history mode additionally counts
        every retained batch's columns.
        """
        total = self.launch.nbytes() + self.slots.nbytes() + self.qoe.nbytes()
        if self._history is not None:
            total += sum(batch.nbytes() for batch in self._history)
        return total
