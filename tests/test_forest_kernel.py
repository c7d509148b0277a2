"""Compiled forest kernel: bit-exact equivalence and persistence.

The load-bearing guarantee (ISSUE 9 acceptance): for every fitted
:class:`~repro.ml.RandomForestClassifier`, the compiled
:class:`~repro.ml.kernel.ForestKernel` returns probabilities
**bit-identical** (``np.array_equal``, not approx) to the legacy
per-tree traversal — on randomized matrices, on the real fitted
pipeline's three forests, on single rows and on degenerate inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import RandomForestClassifier
from repro.ml.kernel import ForestKernel
from repro.runtime.persistence import load_pipeline, save_pipeline


def make_blobs(n_per_class=60, n_features=5, n_classes=3, seed=0, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_classes, n_features))
    X = np.vstack([
        centers[c] + rng.normal(scale=spread, size=(n_per_class, n_features))
        for c in range(n_classes)
    ])
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


@pytest.fixture(scope="module")
def small_forest():
    X, y = make_blobs(spread=1.2, seed=3)
    return RandomForestClassifier(n_estimators=30, random_state=0).fit(X, y), X


# ---------------------------------------------------------------------------
# randomized equivalence sweep
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "n_features,n_classes,max_depth",
    [(3, 2, None), (8, 4, None), (5, 3, 4), (12, 5, 7)],
)
def test_kernel_matches_legacy_on_randomized_forests(
    seed, n_features, n_classes, max_depth
):
    """Random forests x random inputs: probabilities are bit-identical."""
    rng = np.random.default_rng(seed * 1000 + n_features)
    X, y = make_blobs(
        n_per_class=40,
        n_features=n_features,
        n_classes=n_classes,
        seed=seed,
        spread=1.0,
    )
    forest = RandomForestClassifier(
        n_estimators=25, max_depth=max_depth, random_state=seed
    ).fit(X, y)
    kernel = ForestKernel.from_forest(forest)
    for n_rows in (1, 2, 13, 200, 1000):
        Q = rng.normal(size=(n_rows, n_features)) * rng.uniform(0.01, 50.0)
        expected = forest.predict_proba_legacy(Q)
        got = kernel.predict_proba(Q)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    # inputs that sit exactly on training values hit the <=-boundary paths
    boundary = X[rng.integers(0, X.shape[0], size=64)]
    assert np.array_equal(
        kernel.predict_proba(boundary), forest.predict_proba_legacy(boundary)
    )


def test_kernel_handles_non_finite_free_extremes(small_forest):
    """Huge magnitudes and exact threshold ties stay bit-identical."""
    forest, X = small_forest
    kernel = forest.kernel
    extremes = np.vstack([
        np.full((1, X.shape[1]), 1e300),
        np.full((1, X.shape[1]), -1e300),
        np.zeros((1, X.shape[1])),
        X.min(axis=0, keepdims=True),
        X.max(axis=0, keepdims=True),
    ])
    assert np.array_equal(
        kernel.predict_proba(extremes), forest.predict_proba_legacy(extremes)
    )


def test_fitted_pipeline_forests_are_bit_identical(fitted_pipeline, rng):
    """All three deployment forests agree kernel-vs-legacy on random input."""
    classifiers = (
        fitted_pipeline.title_classifier,
        fitted_pipeline.activity_classifier,
        fitted_pipeline.pattern_classifier,
    )
    for classifier in classifiers:
        forest = classifier.model
        kernel = forest.kernel
        for n_rows in (1, 7, 300):
            Q = rng.normal(size=(n_rows, forest.n_features_)) * 40.0
            assert np.array_equal(
                kernel.predict_proba(Q), forest.predict_proba_legacy(Q)
            )


def test_forest_predict_proba_delegates_to_kernel(small_forest):
    """``predict_proba`` is now the kernel path (and equals legacy)."""
    forest, X = small_forest
    assert np.array_equal(forest.predict_proba(X), forest.predict_proba_legacy(X))
    assert forest._kernel is not None


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------
def test_kernel_single_row_fast_path(small_forest):
    """One row through the kernel equals the same row inside a batch."""
    forest, X = small_forest
    kernel = forest.kernel
    batch = kernel.predict_proba(X[:16])
    for index in range(16):
        single = kernel.predict_proba(X[index : index + 1])
        assert single.shape == (1, len(forest.classes_))
        assert np.array_equal(single[0], batch[index])


def test_kernel_rejects_empty_input(small_forest):
    forest, _ = small_forest
    with pytest.raises(ValueError, match="non-empty"):
        forest.kernel.predict_proba(np.empty((0, forest.n_features_)))


def test_kernel_rejects_feature_count_mismatch(small_forest):
    forest, _ = small_forest
    with pytest.raises(ValueError, match="features"):
        forest.kernel.predict_proba(np.zeros((4, forest.n_features_ + 1)))


# ---------------------------------------------------------------------------
# persistence: kernels compile straight from restored arrays
# ---------------------------------------------------------------------------
def test_loaded_pipeline_kernels_skip_tree_objects(
    fitted_pipeline, tmp_path, rng
):
    """Loading compiles kernels without materialising ``_Node`` trees."""
    path = tmp_path / "model"
    save_pipeline(fitted_pipeline, path)
    loaded = load_pipeline(path)
    for classifier_name in (
        "title_classifier", "activity_classifier", "pattern_classifier"
    ):
        restored = getattr(loaded, classifier_name).model
        original = getattr(fitted_pipeline, classifier_name).model
        # the kernel was compiled eagerly from the flat npz arrays ...
        assert restored._kernel is not None
        # ... and the per-tree object representation was never built
        assert restored._estimators is None
        Q = rng.normal(size=(11, original.n_features_)) * 25.0
        assert np.array_equal(
            restored.predict_proba(Q), original.predict_proba_legacy(Q)
        )


def test_kernel_nbytes_counts_tables(small_forest):
    forest, _ = small_forest
    assert forest.kernel.nbytes() > 0
