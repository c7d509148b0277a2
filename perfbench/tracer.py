"""In-memory span tracer installed around the package's public entry points.

The benchmark never edits the package: a traced run wraps the entry points
of each layer from here (:data:`LAYER_HOOKS`), records one span per call —
name, start, end, parent and the feed tick it ran in — and restores the
originals afterwards.  Spans stay in memory until :meth:`Tracer.save`.

Only the calling process is traced.  The sharded workload's worker
processes run untraced; their share of the work shows as the parent's
``runtime.supervisor.wait`` time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np


def _rows(position: int) -> Callable:
    """Counter: ``len`` of the argument at ``position`` (after ``self``)."""

    def count(args, _kwargs, _result) -> int:
        value = args[position] if len(args) > position else None
        return int(getattr(value, "shape", (len(value),))[0]) if value is not None else 0

    return count


def _one(_args, _kwargs, _result) -> int:
    return 1


def _batch_rows(args, _kwargs, _result) -> int:
    return len(args[1]) if len(args) > 1 else 0


#: ``(module, owner, attribute, span name, counter name, counter)``.  An owner
#: of ``None`` patches a module-level function, which callers must look up
#: through the module at call time (``persistence.load_pipeline(...)``).
LAYER_HOOKS: Tuple[tuple, ...] = (
    ("repro.runtime.demux", "FlowDemux", "split", "runtime.demux.split", None, None),
    ("repro.runtime.demux", "FlowDemux", "split_indices", "runtime.demux.split",
     "runtime.demux.packets", _batch_rows),
    ("repro.runtime.state", "SessionState", "absorb", "runtime.state.absorb",
     "runtime.state.absorb_calls", _one),
    ("repro.runtime.state", "SessionState", "advance", "runtime.state.advance", None, None),
    ("repro.runtime.state", "SessionState", "advance_qoe", "runtime.state.advance",
     None, None),
    ("repro.core.transition", "PrefixTransitionTracker", "extend",
     "core.transition.extend", None, None),
    ("repro.core.title_classifier", "GameTitleClassifier", "predict_streams",
     "core.title_classifier.predict_streams", "core.title_classifier.rows", _rows(1)),
    ("repro.core.activity_classifier", "PlayerActivityClassifier", "predict_features",
     "core.activity_classifier.predict_features", "core.activity_classifier.rows",
     _rows(1)),
    ("repro.ml.kernel", "ForestKernel", "predict_proba", "ml.kernel.predict_proba",
     "ml.kernel.rows", _rows(1)),
    ("repro.core.qoe", "ObjectiveQoEEstimator", "estimate_arrays", "core.qoe.estimate",
     "core.qoe.intervals", _one),
    ("repro.core.qoe", "ObjectiveQoEEstimator", "estimate_approx", "core.qoe.estimate",
     "core.qoe.intervals", _one),
    ("repro.core.pipeline", "ContextClassificationPipeline", "finalize_cascades",
     "core.pipeline.finalize_cascades", "core.pipeline.sessions_finalized", _rows(1)),
    ("repro.core.pipeline", "ContextClassificationPipeline", "process_many",
     "core.pipeline.process_many", None, None),
    ("repro.analytics.fleet", "FleetAggregator", "observe_all", "analytics.fleet.observe",
     None, None),
    ("repro.analytics.fleet", "FleetAggregator", "observe", "analytics.fleet.observe",
     "analytics.fleet.events", _one),
    ("repro.analytics.fleet", None, "fold_corpus", "analytics.fleet.fold_corpus",
     None, None),
    ("repro.runtime.engine", "StreamingEngine", "ingest", "runtime.engine.ingest",
     "runtime.engine.ticks", _one),
    ("repro.runtime.engine", "StreamingEngine", "ingest_demuxed", "runtime.engine.ingest",
     None, None),
    ("repro.runtime.engine", "StreamingEngine", "close_all", "runtime.engine.ingest",
     None, None),
    # the one private hook: flow-to-shard routing has no public entry point
    ("repro.runtime.shard", "ShardedEngine", "_partition_indices", "runtime.shard.route",
     None, None),
    ("repro.runtime.supervisor", "ShardSupervisor", "send_tick_indexed",
     "runtime.supervisor.send", None, None),
    ("repro.runtime.supervisor", "ShardSupervisor", "send_tick", "runtime.supervisor.send",
     None, None),
    ("repro.runtime.supervisor", "ShardSupervisor", "drain", "runtime.supervisor.wait",
     None, None),
    ("repro.runtime.supervisor", "ShardSupervisor", "close_all", "runtime.supervisor.close",
     None, None),
    ("repro.runtime.persistence", None, "load_pipeline", "runtime.persistence.load",
     None, None),
)


class Tracer:
    """Span recorder.  ``tick`` is set by the feed before each hand-over."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name: List[int] = []
        self._start: List[int] = []
        self._end: List[int] = []
        self._parent: List[int] = []
        self._tick: List[int] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.tick = -1
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # ------------------------------------------------------------ recording
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Open a span; returns its index (spans nest by call order)."""
        index = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._tick.append(self.tick)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        """Close the span opened as ``index``."""
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, counter: Optional[str], count) -> Callable:
        """``fn`` with a span around every call (and an optional counter)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.counts[counter] += count(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ install
    def install(self, spans: Optional[Set[str]] = None) -> None:
        """Wrap every hook (or those whose span name is in ``spans``) that
        exists; record the ones that do not."""
        for module_name, owner_name, attribute, name, counter, count in LAYER_HOOKS:
            if spans is not None and name not in spans:
                continue
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = (
                None if owner is None else inspect.getattr_static(owner, attribute, None)
            )
            if not inspect.isfunction(original):
                self.missing.append(f"{module_name}.{owner_name or ''}.{attribute}")
                continue
            setattr(owner, attribute, self.wrap(original, name, counter, count))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped original (reverse order)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self, spans: Optional[Set[str]] = None):
        """Context manager: hooks installed inside, originals restored after."""
        self.install(spans)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ results
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as columns (times in ns)."""
        return {
            "name": np.asarray(self._name, dtype=np.int32),
            "start": np.asarray(self._start, dtype=np.int64),
            "end": np.asarray(self._end, dtype=np.int64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "tick": np.asarray(self._tick, dtype=np.int64),
        }

    def self_seconds(self, in_feed: bool = True) -> Dict[str, float]:
        """Self time per span name, in seconds, of the spans recorded while
        the feed ran (``in_feed``) or during set-up (tick -1)."""
        spans = self.arrays()
        own = self_times_ns(spans["start"], spans["end"], spans["parent"])
        keep = (spans["tick"] >= 0) if in_feed else (spans["tick"] < 0)
        totals = np.bincount(
            spans["name"][keep], weights=own[keep], minlength=len(self.names)
        )
        return {name: float(totals[i]) / 1e9 for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write the spans and counters out (compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            counters=np.asarray(sorted(self.counts.items()), dtype=object).astype(str),
            **self.arrays(),
        )


def self_times_ns(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Children of one parent never overlap one another on a single thread,
    and the covered part is clipped to the parent's own interval, so a child
    that (through clock skew) pokes outside its parent never drives a self
    time negative.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return duration.astype(float)
    owner = parent[child]
    clipped = np.minimum(end[child], end[owner]) - np.maximum(start[child], start[owner])
    covered = np.bincount(
        owner, weights=np.maximum(clipped, 0).astype(float), minlength=duration.size
    )
    return np.maximum(duration - covered, 0.0)
