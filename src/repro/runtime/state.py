"""Per-session state machines for the streaming runtime.

A :class:`SessionState` is everything the runtime holds for one live flow:
the per-stage reducer cascade
(:class:`~repro.core.reducers.SessionReducerCascade` — launch-window buffer,
integer-exact slot counters with the carried EMA, per-interval QoE columns)
plus the online gate bookkeeping (provisional stage timeline, transition
prefix counts for the pattern gate, title-gate flags).

Three memory modes (DESIGN.md §7):

* ``"bounded"`` (default) — no packet history.  State is O(slots) counters,
  the O(window) launch buffer and the three downstream QoE columns
  (~24 bytes per downstream packet), yet close-time reports finalise
  bit-identical to offline ``process()`` because every reducer's fold is
  exact.  The one approximation: a packet *older than the session origin*
  arriving in a later batch clips into slot/interval 0, so such feeds
  should use full mode.
* ``"full"`` — additionally retains the raw batches, enabling
  :meth:`assembled_stream` and an exact refold when the origin shifts.
* ``"approx"`` — no QoE columns either: the QoE stage folds into the
  O(intervals) :class:`~repro.core.reducers.ApproxQoEIntervalReducer`
  (fixed-size aggregates per 10 s window), so per-session state is flat in
  the packet rate.  Close reports carry ``qoe_approximate=True`` and equal
  offline ``process(..., qoe_mode="approx")`` on the same packets; context
  fields stay exact — only the QoE metrics are approximate, with the error
  bounds documented on the reducer.

The state machine itself never calls a classifier — the engine harvests
feature rows from many sessions and runs each forest once per tick
(DESIGN.md §6), and reports come from the shared
:meth:`ContextClassificationPipeline.finalize_cascades` driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.reducers import SealedQoEInterval, SessionReducerCascade
from repro.core.title_classifier import TitlePrediction
from repro.core.transition import PrefixTransitionTracker
from repro.net.flow import FlowKey
from repro.net.packet import PacketColumns, PacketStream
from repro.simulation.catalog import PlayerStage

__all__ = ["FlowContext", "SessionState"]

#: Valid values of ``SessionState(mode=...)``.
SESSION_MODES = ("bounded", "full", "approx")


@dataclass(frozen=True)
class FlowContext:
    """Out-of-band knowledge about a flow.

    ``platform`` overrides signature-based detection (simulated feeds know
    they replay GeForce NOW sessions); ``rate_scale`` records the fidelity a
    synthetic flow was generated at so final QoE metrics are reported at
    physical scale — both mirror what offline ``process(GameSession)``
    receives from :meth:`ContextClassificationPipeline._as_stream`.
    ``region`` tags the flow's serving region for the fleet analytics tier
    (:mod:`repro.analytics`); untagged flows fold under the aggregator's
    default region.
    """

    platform: Optional[str] = None
    rate_scale: float = 1.0
    region: Optional[str] = None


class SessionState:
    """Online cascade state of one live flow."""

    __slots__ = (
        "key",
        "context",
        "cascade",
        "mode",
        "timeline",
        "transitions",
        "title_fired",
        "title_prediction",
        "pattern_resolved",
        "_window_rows_pending",
    )

    def __init__(
        self,
        key: FlowKey,
        slot_duration: float,
        alpha: float,
        context: Optional[FlowContext] = None,
        window_seconds: float = 5.0,
        qoe_interval_s: float = 10.0,
        mode: str = "bounded",
    ) -> None:
        if mode not in SESSION_MODES:
            raise ValueError(f"mode must be one of {SESSION_MODES}, got {mode!r}")
        self.key = key
        self.context = context or FlowContext()
        self.mode = mode
        self.cascade = SessionReducerCascade(
            slot_duration=slot_duration,
            alpha=alpha,
            window_seconds=window_seconds,
            qoe_interval_seconds=qoe_interval_s,
            keep_history=(mode == "full"),
            qoe_mode="approx" if mode == "approx" else "exact",
        )
        self.timeline: List[PlayerStage] = []
        self.transitions = PrefixTransitionTracker()
        self.title_fired = False
        self.title_prediction: Optional[TitlePrediction] = None
        self.pattern_resolved = False
        self._window_rows_pending = 0

    # ------------------------------------------------------------ ingestion
    def absorb(self, columns: PacketColumns) -> None:
        """Consume one demultiplexed sub-batch of this flow's packets."""
        self._window_rows_pending += self.cascade.absorb(columns)

    def take_new_window_rows(self) -> int:
        """Launch-window rows absorbed since the last call (then reset).

        The engine clears the counter when the title gate fires and treats a
        non-zero count on a fired state as the re-classification trigger.
        """
        pending = self._window_rows_pending
        self._window_rows_pending = 0
        return pending

    # ------------------------------------------------------------ aggregates
    @property
    def origin(self) -> Optional[float]:
        return self.cascade.origin

    @property
    def last_ts(self) -> float:
        return self.cascade.last_ts

    @property
    def n_packets(self) -> int:
        return self.cascade.n_packets

    @property
    def duration(self) -> float:
        """Seconds between the first and last packet observed."""
        return self.cascade.duration

    def total_slots(self) -> int:
        """Slot count of the session so far (the offline ``n_slots``)."""
        return self.cascade.total_slots()

    # ------------------------------------------------------------ gating
    def title_ready(self, clock: float, window_seconds: float) -> bool:
        """True once the title window has fully elapsed for this flow."""
        return (
            not self.title_fired
            and self.cascade.origin is not None
            and self.cascade.has_downstream
            and clock >= self.cascade.origin + window_seconds
        )

    def advance(self, clock: float) -> Tuple[np.ndarray, np.ndarray]:
        """Complete every slot the feed clock has passed (provisional gate).

        Returns the provisional (causal running-peak, EMA-carried) feature
        rows and slot indices of the newly completed slots; the engine
        classifies the rows of all sessions in one forest pass.  Pass
        ``clock=inf`` at close time to flush the final partial slot.
        """
        return self.cascade.advance_slots(clock)

    def advance_qoe(self, clock: float) -> List[SealedQoEInterval]:
        """Seal the QoE measurement windows the feed clock has passed."""
        return self.cascade.advance_qoe(clock)

    def flush_qoe(self) -> List[SealedQoEInterval]:
        """Seal the trailing partial QoE window at close time."""
        return self.cascade.flush_qoe()

    # ------------------------------------------------------------ assembly
    def launch_stream(self) -> PacketStream:
        """The title window's packets as a time-sorted stream (both modes)."""
        return self.cascade.launch_stream()

    def assembled_stream(self) -> PacketStream:
        """The full packet history as one time-sorted stream (full mode only).

        Values (and, for distinct timestamps, order) are exactly the stream
        offline ``process()`` would see.  Bounded mode holds no history and
        raises; the close-time report does not need it — it finalises from
        the reducers in both modes.
        """
        return self.cascade.assembled_stream()

    # ------------------------------------------------------------ accounting
    def state_nbytes(self) -> int:
        """Approximate bytes of this session's live state (arrays only)."""
        return self.cascade.state_nbytes()
