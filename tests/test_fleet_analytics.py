"""Fleet analytics tier: sketch algebra, rollup identity, region threading.

The tier's contract (DESIGN.md §10) is *bit-identity*: the same corpus
folded offline, through a single-process streaming engine, or across a
sharded fleet — with or without seeded worker crashes — yields
byte-identical rollup state.  The sketch algebra tests pin the substrate
(order/chunking-invariant merges), the identity tests pin the three fold
paths against each other, and the fault-matrix test (``pytest -m faults``)
pins exactly-once folding through SIGKILLed workers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analytics import (
    DEFAULT_REGION,
    CentroidSketch,
    LogBucketHistogram,
    StatsAccumulator,
    fold_corpus,
)
from repro.core.reducers import ApproxQoEIntervalReducer
from repro.runtime import (
    FaultPlan,
    KillWorker,
    SessionFeed,
    ShardedEngine,
    StreamingEngine,
)
from repro.simulation.isp import _REGION_MIX, ISPDeploymentSimulator

SKETCHES = {
    "stats": StatsAccumulator,
    "histogram": LogBucketHistogram,
    "centroid": CentroidSketch,
}


def _values(seed, size=4000):
    rng = np.random.default_rng(seed)
    # span underflow, in-range and overflow against the default layouts
    return np.concatenate(
        [
            rng.lognormal(mean=2.0, sigma=1.5, size=size // 2),
            rng.uniform(0.0, 5e5, size=size // 4),
            rng.uniform(0.0, 1e-4, size=size // 4),
        ]
    )


# ---------------------------------------------------------------------------
# sketch algebra: merge is associative, commutative, chunking-invariant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SKETCHES))
@pytest.mark.parametrize("seed", [3, 17, 92])
def test_sketch_fold_is_order_and_chunking_invariant(kind, seed):
    values = _values(seed)
    cls = SKETCHES[kind]

    serial = cls()
    serial.add_many(values)
    reference = serial.digest()

    # one value at a time, shuffled
    shuffled = cls()
    for value in np.random.default_rng(seed + 1).permutation(values):
        shuffled.add(float(value))
    assert shuffled.digest() == reference

    # uneven chunks folded into one sketch
    chunked = cls()
    for chunk in np.array_split(values, 13):
        chunked.add_many(chunk)
    assert chunked.digest() == reference

    # per-chunk sketches merged as a binary tree
    leaves = []
    for chunk in np.array_split(values, 8):
        leaf = cls()
        leaf.add_many(chunk)
        leaves.append(leaf)
    while len(leaves) > 1:
        merged = leaves.pop(0)
        merged.merge(leaves.pop(0))
        leaves.append(merged)
    assert leaves[0].digest() == reference
    assert leaves[0] == serial  # __eq__ compares canonical state


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_sketch_merge_is_commutative(kind):
    cls = SKETCHES[kind]
    a_values, b_values = _values(5, 1000), _values(6, 700)
    ab, ba = cls(), cls()
    a, b = cls(), cls()
    a.add_many(a_values)
    b.add_many(b_values)
    ab.add_many(a_values)
    ab.merge(b)
    ba.add_many(b_values)
    ba.merge(a)
    assert ab.digest() == ba.digest()


@pytest.mark.parametrize("kind", sorted(SKETCHES))
def test_sketch_snapshot_round_trip_is_exact(kind):
    cls = SKETCHES[kind]
    sketch = cls()
    sketch.add_many(_values(9))
    clone = pickle.loads(pickle.dumps(sketch, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone.digest() == sketch.digest()
    # the clone keeps folding identically
    sketch.add_many(_values(10, 500))
    clone.add_many(_values(10, 500))
    assert clone.digest() == sketch.digest()


def test_sketch_merge_rejects_layout_mismatch():
    a = LogBucketHistogram(min_value=1e-3, max_value=1e6, growth=1.08)
    b = LogBucketHistogram(min_value=1e-3, max_value=1e6, growth=1.10)
    with pytest.raises(ValueError, match="different"):
        a.merge(b)
    with pytest.raises(TypeError):
        a.merge(CentroidSketch())


# ---------------------------------------------------------------------------
# quantile error bounds vs numpy percentiles
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["histogram", "centroid"])
@pytest.mark.parametrize(
    "distribution", ["lognormal", "uniform"]
)
def test_quantile_relative_error_within_bin_bound(kind, distribution):
    rng = np.random.default_rng(42)
    if distribution == "lognormal":
        values = rng.lognormal(mean=3.0, sigma=1.0, size=20_000)
    else:
        values = rng.uniform(1.0, 1000.0, size=20_000)
    growth = 1.08
    sketch = SKETCHES[kind](min_value=1e-3, max_value=1e6, growth=growth)
    sketch.add_many(values)
    # documented bound: relative error at most sqrt(growth) - 1 for values
    # inside [min_value, max_value] (plus float slack)
    bound = np.sqrt(growth) - 1.0 + 1e-9
    for q in (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        expected = float(np.percentile(values, q * 100.0))
        got = sketch.quantile(q)
        assert abs(got - expected) <= bound * expected, (kind, q, got, expected)


def test_stats_accumulator_exact_moments():
    values = _values(11)
    stats = StatsAccumulator()
    stats.add_many(values)
    assert stats.count == values.size
    assert stats.min == float(values.min())
    assert stats.max == float(values.max())
    # fixed-point sum: exact to the 2**-20 rounding of each value
    assert abs(stats.sum - float(values.sum())) <= values.size * 2.0**-20


# ---------------------------------------------------------------------------
# rollup identity: offline fold == streaming == sharded serial
# ---------------------------------------------------------------------------
REGIONS = ["eu-central", None, "us-east"]


@pytest.mark.parametrize("qoe_mode", ["exact", "approx"])
def test_rollups_bit_identical_across_fold_paths(
    fitted_pipeline, runtime_sessions, qoe_mode
):
    offline = fold_corpus(
        fitted_pipeline, runtime_sessions, regions=REGIONS, qoe_mode=qoe_mode
    )
    reference = offline.digest()

    session_mode = "approx" if qoe_mode == "approx" else "bounded"
    engine = StreamingEngine(
        fitted_pipeline, session_mode=session_mode, analytics=True
    )
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0, regions=REGIONS)
    for _ in engine.run(feed):
        pass
    assert engine.analytics.digest() == reference

    sharded = ShardedEngine(
        fitted_pipeline,
        n_workers=2,
        backend="serial",
        session_mode=session_mode,
        analytics=True,
    )
    feed = SessionFeed(runtime_sessions, batch_seconds=4.0, regions=REGIONS)
    for _ in sharded.run_feed(feed):
        pass
    assert sharded.analytics.digest() == reference

    # the sharded corpus path reuses the same offline fold
    sharded.process_many(runtime_sessions, qoe_mode=qoe_mode, regions=REGIONS)
    assert sharded.analytics.digest() == reference

    # every region key landed where its tag said (one title per session here)
    regions_seen = {region for region, _title, _mode in offline.keys()}
    assert "eu-central" in regions_seen and "us-east" in regions_seen
    assert DEFAULT_REGION in regions_seen  # the untagged session
    assert {mode for _r, _t, mode in offline.keys()} == {qoe_mode}


def test_rollups_are_independent_of_batch_granularity(
    fitted_pipeline, runtime_sessions
):
    digests = set()
    for batch_seconds in (2.0, 4.0, 16.0):
        engine = StreamingEngine(
            fitted_pipeline, session_mode="approx", analytics=True
        )
        feed = SessionFeed(runtime_sessions, batch_seconds=batch_seconds)
        for _ in engine.run(feed):
            pass
        digests.add(engine.analytics.digest())
    assert len(digests) == 1


def test_aggregator_retains_no_per_session_state(
    fitted_pipeline, runtime_sessions
):
    engine = StreamingEngine(fitted_pipeline, session_mode="approx", analytics=True)
    feed = SessionFeed(runtime_sessions, batch_seconds=8.0)
    for _ in engine.run(feed):
        pass
    fleet = engine.analytics
    # all pending (per-flow) state dropped at close
    assert fleet.n_live_flows == 0
    assert fleet.n_reports == len(runtime_sessions)

    # per-key state is O(1) in session count: folding the corpus twice more
    # (same keys, 3x the sessions) must not grow the retained bytes
    before = fleet.nbytes()
    fold_corpus(fitted_pipeline, runtime_sessions, qoe_mode="approx",
                aggregator=fleet)
    fold_corpus(fitted_pipeline, runtime_sessions, qoe_mode="approx",
                aggregator=fleet)
    assert fleet.n_reports == 3 * len(runtime_sessions)
    assert fleet.nbytes() == before


def test_aggregator_snapshot_round_trip_mid_run(fitted_pipeline, runtime_sessions):
    engine = StreamingEngine(fitted_pipeline, session_mode="approx", analytics=True)
    batches = list(SessionFeed(runtime_sessions, batch_seconds=4.0))
    cut = len(batches) // 2
    for batch in batches[:cut]:
        engine.ingest(batch)
    # mid-run: live flows hold pending state; it must survive the engine
    # checkpoint exactly (this is what crosses the supervisor's pipe)
    fleet = engine.analytics
    assert fleet.n_live_flows > 0
    resumed = StreamingEngine(fitted_pipeline, session_mode="approx", analytics=True)
    resumed.restore(engine.snapshot())
    clone = resumed.analytics
    assert clone is not fleet
    assert clone.digest() == fleet.digest()


# ---------------------------------------------------------------------------
# candidate-gap ledger (approx tier, per sealed window)
# ---------------------------------------------------------------------------
def _absorb(reducer, timestamps, sequences, origin=0.0):
    timestamps = np.asarray(timestamps, dtype=float)
    sizes = np.full(timestamps.size, 1200.0)
    sequences = np.asarray(sequences, dtype=np.int64)
    rtp_times = np.arange(timestamps.size, dtype=np.int64) * 1500
    reducer.absorb_arrays(timestamps, sizes, sequences, rtp_times, origin)


def test_candidate_gap_ledger_localises_to_revealing_window():
    reducer = ApproxQoEIntervalReducer(10.0)
    # window 0: seq 0..9 contiguous; window 1: 10..12 then a 5-wide gap
    # revealed by seq 18 at t=15; window 2: contiguous again
    times = list(np.linspace(0.0, 9.0, 10)) + [11.0, 12.0, 13.0, 15.0] + [21.0, 22.0]
    seqs = list(range(10)) + [10, 11, 12, 18] + [19, 20]
    _absorb(reducer, times, seqs)
    sealed = reducer.advance(30.0, 0.0)
    by_index = {interval.index: interval for interval in sealed}
    assert by_index[0].candidate_gap_packets == 0
    assert by_index[1].candidate_gap_packets == 5  # seqs 13..17
    assert by_index[2].candidate_gap_packets == 0


def test_candidate_gap_ledger_is_chunking_invariant():
    rng = np.random.default_rng(8)
    times = np.sort(rng.uniform(0.0, 50.0, 400))
    seqs = np.arange(400, dtype=np.int64)
    # knock out a few runs to create gaps revealed mid-stream
    keep = np.ones(400, dtype=bool)
    keep[50:55] = False
    keep[200:203] = False
    keep[333] = False
    times, seqs = times[keep], seqs[keep]

    whole = ApproxQoEIntervalReducer(10.0)
    _absorb(whole, times, seqs)
    chunked = ApproxQoEIntervalReducer(10.0)
    for span in np.array_split(np.arange(times.size), 7):
        _absorb(chunked, times[span], seqs[span])
    sealed_whole = whole.advance(60.0, 0.0)
    sealed_chunked = chunked.advance(60.0, 0.0)
    ledger_whole = [i.candidate_gap_packets for i in sealed_whole]
    ledger_chunked = [i.candidate_gap_packets for i in sealed_chunked]
    assert ledger_whole == ledger_chunked
    assert sum(ledger_whole) == 5 + 3 + 1


def test_candidate_gap_ledger_survives_snapshot():
    reducer = ApproxQoEIntervalReducer(10.0)
    _absorb(reducer, [0.0, 1.0, 2.0], [0, 1, 5])
    restored = pickle.loads(pickle.dumps(reducer, protocol=pickle.HIGHEST_PROTOCOL))
    for target in (reducer, restored):
        _absorb(target, [11.0, 12.0], [6, 10], origin=0.0)
        sealed = target.advance(30.0, 0.0)
        assert [i.candidate_gap_packets for i in sealed] == [3, 3, 0]


def test_exact_tier_reports_zero_candidate_gaps(fitted_pipeline, runtime_sessions):
    fleet = fold_corpus(fitted_pipeline, runtime_sessions[:1], qoe_mode="exact")
    (key,) = fleet.keys()
    assert fleet.rollup(key).candidate_gap_packets == 0


# ---------------------------------------------------------------------------
# region threading
# ---------------------------------------------------------------------------
def test_session_feed_rejects_region_length_mismatch(runtime_sessions):
    with pytest.raises(ValueError, match="regions"):
        SessionFeed(runtime_sessions, regions=["eu-central"])


def test_isp_records_carry_regions_and_stay_deterministic():
    records = ISPDeploymentSimulator(random_state=5).generate_records(300)
    mix = {region for region, _weight in _REGION_MIX}
    assert {record.region for record in records} <= mix
    assert len({record.region for record in records}) > 1
    # same seed => identical records, region included
    again = ISPDeploymentSimulator(random_state=5).generate_records(300)
    assert [r.region for r in again] == [r.region for r in records]
    assert [r.avg_downstream_mbps for r in again] == [
        r.avg_downstream_mbps for r in records
    ]


# ---------------------------------------------------------------------------
# fault matrix: exactly-once rollups through SIGKILLed workers
# ---------------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("seed", [101, 303])
def test_rollups_exactly_once_through_worker_kills(fitted_pipeline, seed):
    from repro.simulation.session import SessionConfig, SessionGenerator

    generator = SessionGenerator(random_state=21)
    titles = ("Fortnite", "Hearthstone", "Cyberpunk 2077")
    sessions = [
        generator.generate(
            titles[index % len(titles)],
            SessionConfig(gameplay_duration_s=30.0 + 2.0 * (index % 5),
                          rate_scale=0.02),
        )
        for index in range(24)
    ]
    regions = [REGIONS[index % len(REGIONS)] for index in range(24)]

    def feed():
        return SessionFeed(sessions, batch_seconds=8.0, regions=regions)

    n_ticks = sum(1 for _ in feed())
    reference = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="serial",
        session_mode="approx", analytics=True,
    )
    for _ in reference.run_feed(feed()):
        pass

    plan = FaultPlan.random(
        seed, n_ticks=n_ticks, n_shards=2, n_kills=2, n_duplicates=1, n_delays=1
    )
    faulted = ShardedEngine(
        fitted_pipeline, n_workers=2, backend="fork",
        session_mode="approx", analytics=True,
        snapshot_every_ticks=3, recv_timeout_s=60.0,
    )
    for _ in faulted.run_feed(feed(), fault_plan=plan):
        pass
    assert faulted.last_feed_stats["n_restarts"] == sum(
        isinstance(action, KillWorker) for action in plan.actions
    )
    assert faulted.analytics.digest() == reference.analytics.digest()
