"""Benchmark: compiled forest kernel vs the legacy blocked tree-walk.

Replays the *real* forest workload of the shared >=100-session deployment
corpus (``benchmarks/conftest.py``): the three fitted forests' input
matrices are captured by spying on ``RandomForestClassifier.predict_proba``
during an actual ``pipeline.process_many`` run, then each component is
timed on both implementations:

* **batch** — every forest's full stacked corpus matrix in one call (the
  offline ``process_many`` shape);
* **stream** — the stage forest chunked into feed-tick-sized slices plus
  one close-time call (the :class:`~repro.runtime.engine.StreamingEngine`
  shape);
* **single-row** — per-session one-row calls against all three forests
  (the per-flow gate shape, where the legacy path falls back to Python
  tree walks).

Every component asserts **bit-identical** probabilities between the
kernel and ``predict_proba_legacy`` before any timing is recorded, plus a
randomized input sweep; the headline ``kernel_speedup`` (total legacy
time / total kernel time over all components) is regression-gated in
``BENCH_packet_stream.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_forest_kernel.py

``scripts/perf_smoke.py`` imports :func:`run_benchmark` to record the
results (full runs and the ``--quick`` tier-2 gate).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
BENCH_DIR = str(Path(__file__).resolve().parent)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from conftest import build_deployment_corpus, fit_deployment_pipeline  # noqa: E402
from repro.ml.forest import RandomForestClassifier  # noqa: E402
from repro.ml.kernel import ForestKernel  # noqa: E402

#: Rows per chunk of the streaming-shaped stage trace (the live feed ticks
#: classify the newly completed slots of ~24 concurrent sessions per batch).
STREAM_CHUNK_ROWS = 24
STREAM_N_CHUNKS = 195
#: Close-time calls classify a whole session backlog in one pass.
STREAM_CLOSE_ROWS = 4816
#: Single-row gate calls per forest (one per corpus session).
N_SINGLE_ROW_CALLS = 104


def _timeit(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _capture_forest_inputs(pipeline, corpus):
    """The stacked input matrix each forest saw during ``process_many``."""
    names = {
        id(pipeline.title_classifier.model): "title",
        id(pipeline.activity_classifier.model): "stage",
        id(pipeline.pattern_classifier.model): "pattern",
    }
    captured = {"title": [], "stage": [], "pattern": []}
    original = RandomForestClassifier.predict_proba

    def spy(self, X):
        name = names.get(id(self))
        if name is not None:
            captured[name].append(np.array(X, dtype=float))
        return original(self, X)

    RandomForestClassifier.predict_proba = spy
    try:
        pipeline.process_many(corpus)
    finally:
        RandomForestClassifier.predict_proba = original
    return {name: np.vstack(mats) for name, mats in captured.items()}


def _forests(pipeline):
    return {
        "title": pipeline.title_classifier.model,
        "stage": pipeline.activity_classifier.model,
        "pattern": pipeline.pattern_classifier.model,
    }


def _assert_randomized_equivalence(forest, kernel, seed=42):
    """Kernel == legacy on randomized matrices (beyond the corpus inputs)."""
    rng = np.random.default_rng(seed)
    for n_rows in (1, 7, 256):
        X = rng.normal(size=(n_rows, forest.n_features_)) * rng.uniform(0.1, 100)
        assert np.array_equal(
            forest.predict_proba_legacy(X), kernel.predict_proba(X)
        ), f"kernel/legacy mismatch on randomized {n_rows}-row input"


def _workload_times(forests, kernels, matrices):
    """(per_forest, totals) of the three-component workload, bit-checked."""
    per_forest = {}
    total_legacy = 0.0
    total_kernel = 0.0

    # batch: each forest's full corpus matrix in one call
    for name, forest in forests.items():
        X = matrices[name]
        kernel = kernels[name]
        assert np.array_equal(
            forest.predict_proba_legacy(X), kernel.predict_proba(X)
        ), f"kernel/legacy mismatch on the {name} corpus matrix"
        legacy_s = _timeit(lambda f=forest, X=X: f.predict_proba_legacy(X))
        kernel_s = _timeit(lambda k=kernel, X=X: k.predict_proba(X))
        total_legacy += legacy_s
        total_kernel += kernel_s
        per_forest[name] = {
            "n_rows": int(X.shape[0]),
            "n_features": int(forest.n_features_),
            "n_trees": int(forest.n_estimators),
            "batch_legacy_s": legacy_s,
            "batch_kernel_s": kernel_s,
            "batch_speedup": legacy_s / kernel_s,
        }

    # stream: the stage forest in feed-tick chunks + one close-time call
    stage_X = matrices["stage"]
    chunks = [
        stage_X[start : start + STREAM_CHUNK_ROWS]
        for start in range(0, STREAM_CHUNK_ROWS * STREAM_N_CHUNKS, STREAM_CHUNK_ROWS)
        if start < stage_X.shape[0]
    ]
    chunks.append(stage_X[:STREAM_CLOSE_ROWS])
    stage_forest, stage_kernel = forests["stage"], kernels["stage"]
    for chunk in chunks[:: max(1, len(chunks) // 8)]:  # spot-check equality
        assert np.array_equal(
            stage_forest.predict_proba_legacy(chunk),
            stage_kernel.predict_proba(chunk),
        )
    stream_legacy_s = _timeit(
        lambda: [stage_forest.predict_proba_legacy(c) for c in chunks], repeats=3
    )
    stream_kernel_s = _timeit(
        lambda: [stage_kernel.predict_proba(c) for c in chunks], repeats=3
    )
    total_legacy += stream_legacy_s
    total_kernel += stream_kernel_s

    # single-row: per-session gate calls against every forest
    single_legacy_s = 0.0
    single_kernel_s = 0.0
    for name, forest in forests.items():
        X = matrices[name]
        kernel = kernels[name]
        rows = [
            X[index % X.shape[0] : index % X.shape[0] + 1]
            for index in range(N_SINGLE_ROW_CALLS)
        ]
        for row in rows[:8]:
            assert np.array_equal(
                forest.predict_proba_legacy(row), kernel.predict_proba(row)
            )
        single_legacy_s += _timeit(
            lambda f=forest, rows=rows: [f.predict_proba_legacy(r) for r in rows],
            repeats=3,
        )
        single_kernel_s += _timeit(
            lambda k=kernel, rows=rows: [k.predict_proba(r) for r in rows],
            repeats=3,
        )
    total_legacy += single_legacy_s
    total_kernel += single_kernel_s

    totals = {
        "stream_legacy_s": stream_legacy_s,
        "stream_kernel_s": stream_kernel_s,
        "single_row_legacy_s": single_legacy_s,
        "single_row_kernel_s": single_kernel_s,
        "workload_legacy_s": total_legacy,
        "workload_kernel_s": total_kernel,
        "kernel_speedup": total_legacy / total_kernel,
    }
    return per_forest, totals


def run_benchmark(corpus=None, pipeline=None) -> dict:
    """Time the compiled kernel against the legacy traversal (bit-checked)."""
    if corpus is None:
        corpus = build_deployment_corpus()
    if pipeline is None:
        pipeline = fit_deployment_pipeline(corpus)
    matrices = _capture_forest_inputs(pipeline, corpus)
    forests = _forests(pipeline)

    kernels = {}
    compile_s = 0.0
    kernel_nbytes = 0
    for name, forest in forests.items():
        start = time.perf_counter()
        kernel = ForestKernel.from_forest(forest)
        compile_s += time.perf_counter() - start
        kernel_nbytes += kernel.nbytes()
        kernels[name] = kernel
        _assert_randomized_equivalence(forest, kernel)

    per_forest, totals = _workload_times(forests, kernels, matrices)

    results = {
        "n_sessions": len(corpus),
        "compile_s": compile_s,
        "kernel_state_bytes": int(kernel_nbytes),
        "per_forest": per_forest,
        "bit_identical": True,
        **totals,
    }
    return results


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
