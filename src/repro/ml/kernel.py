"""Single-kernel compiled forest inference (bit-identical, ~3x faster).

A fitted :class:`~repro.ml.forest.RandomForestClassifier` predicts by
walking every tree level-synchronously over one concatenated node arena.
That traversal gathers from three parallel float64/int32 arrays per level
and re-derives the same comparisons on every call.  :class:`ForestKernel`
compiles the fitted ensemble **once** into a fused structure that answers
the same ``predict_proba`` contract with bit-identical probabilities:

* **rank quantization** — per feature ``j``, the sorted unique split
  thresholds ``S_j`` of the whole forest are extracted at compile time.
  For any sample value ``x`` and threshold ``t ∈ S_j``,
  ``x <= t  ⇔  searchsorted(S_j, x, 'left') <= searchsorted(S_j, t,
  'left')`` — an exact integer equivalence, so traversal never touches a
  float again.  Ranks and packed node words fit int16 for every realistic
  forest, quartering the memory traffic of the per-level gathers;
* **level-packed decision tables** — the arena is re-laid out
  breadth-first with *pass-through chains* padding shallow leaves, so
  depth ``d`` of every tree lives in one contiguous int16 table whose
  entries pack ``(threshold_rank << fbits) | feature``.  Children of slot
  ``i`` are adjacent (``lchild[i]`` and ``lchild[i] + 1``), collapsing the
  legacy ``where(go_left, cur + 1, right.take(cur))`` select into a single
  integer add.  A leaf/chain slot packs the sentinel ``kmax << fbits``
  (feature 0, rank bound ``kmax``): every rank is ``<= kmax``, so the
  test always routes left and the slot self-propagates to depth ``D``,
  where ``leafmap`` resolves the surviving slot to its probability row;
* **rank-space memoization** — rows with equal rank vectors traverse
  every tree identically, so low-dimensional batches (the stage/pattern
  forests see 4- and 9-feature matrices) deduplicate via ``np.unique``
  before traversal and scatter the unique results back;
* **adaptive accumulation** — the per-tree probability sum uses the fused
  3-D ``np.add.reduce(proba[leaves], axis=1)`` for small outputs and the
  full-width per-tree loop for large ones.  Both orders add the same
  floats in the same per-element sequence (the 3-D reduce over a strided
  axis is sequential, never pairwise), so the choice affects time only.

Every optimisation is exact, which the equivalence suite
(``tests/test_forest_kernel.py``) and the ``forest_kernel`` bench section
pin by asserting byte-equal outputs against the legacy traversal on
randomized and real fitted forests.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_Xy

__all__ = ["ForestKernel"]


class ForestKernel:
    """Fused inference structure compiled from one fitted forest.

    Construction takes the forest-flat arena (the
    :meth:`RandomForestClassifier._flatten_forest` layout: preorder nodes,
    left child at ``index + 1``, leaves self-routing through ``right``
    with ``-inf`` thresholds and forest-aligned probability rows) and
    compiles the rank tables and BFS level layout described in the module
    docstring.  :meth:`predict_proba` then serves the exact
    ``predict_proba`` contract of the source forest — same validation
    errors, bit-identical probabilities — at a fraction of the cost.

    Use :meth:`from_forest` for a fitted estimator or :meth:`from_arrays`
    to build straight from :meth:`RandomForestClassifier.export_state`
    arrays (the ``pipeline.npz`` layout) without materialising any tree
    objects — the model-loading cold path.
    """

    #: attempt rank-space dedup only inside this row range: below it the
    #: unique() overhead cannot pay, above it the lexsort dominates the
    #: traversal it would save (the big matrices are near-unique anyway)
    DEDUP_MIN_ROWS = 64
    DEDUP_MAX_ROWS = 4096
    #: ... and only for low-dimensional forests, where equal rank vectors
    #: are actually likely (the 255-feature title matrix never collides)
    DEDUP_MAX_FEATURES = 32
    #: output cells (rows x trees x classes) below which the fused 3-D
    #: reduce beats the full-width per-tree accumulation loop
    FUSED_ACCUM_MAX_CELLS = 262144
    #: traversal block target (rows x trees cells): keeps the per-level
    #: gather working set cache-resident on corpus-scale inputs
    BLOCK_CELLS = 65536
    #: rank-matrix cells (rows x features x kmax) below which one fused
    #: broadcast comparison beats per-feature searchsorted calls (the
    #: single-row real-time path: 255 tiny searchsorted calls otherwise)
    BCAST_RANK_MAX_CELLS = 65536

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        right: np.ndarray,
        proba: np.ndarray,
        roots: np.ndarray,
        classes: np.ndarray,
        n_features: int,
    ) -> None:
        self.classes_ = np.asarray(classes)
        self.n_features = int(n_features)
        self.n_trees = int(roots.size)
        self.n_classes = int(proba.shape[1])
        self.proba = np.ascontiguousarray(proba, dtype=float)
        # the preorder arena is only read while compiling, never retained
        self._compile(
            np.ascontiguousarray(feature, dtype=np.int32),
            np.ascontiguousarray(threshold, dtype=float),
            np.ascontiguousarray(right, dtype=np.int32),
            np.ascontiguousarray(roots, dtype=np.int32),
        )

    # ------------------------------------------------------------ compile
    def _compile(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        right: np.ndarray,
        roots: np.ndarray,
    ) -> None:
        internal = threshold != -np.inf
        n_features = self.n_features

        # per-feature sorted unique thresholds + per-node rank positions
        cuts = []
        tpos = np.zeros(feature.size, dtype=np.int64)
        for j in range(n_features):
            mask = internal & (feature == j)
            unique_cuts = np.unique(threshold[mask])
            cuts.append(unique_cuts)
            if mask.any():
                tpos[mask] = np.searchsorted(
                    unique_cuts, threshold[mask], side="left"
                )
        self._cuts = cuts
        kmax = max((c.size for c in cuts), default=0)
        self._kmax = kmax
        pad = np.full((n_features, max(1, kmax)), np.inf)
        for j, unique_cuts in enumerate(cuts):
            pad[j, : unique_cuts.size] = unique_cuts
        self._cuts_pad = pad

        fbits = max(1, int(np.ceil(np.log2(max(2, n_features)))))
        # leaf/chain sentinel: feature 0 with rank bound kmax — every rank
        # is <= kmax, so the slot always routes left (self-propagates)
        sentinel = kmax << fbits
        pdtype = (
            np.int16
            if (kmax << fbits) | (n_features - 1) < 2**15
            else np.int32
        )
        self._fbits, self._fmask, self._pdtype = fbits, (1 << fbits) - 1, pdtype

        # BFS re-layout with pass-through chains: iterate level frontiers
        # until every slot is a leaf; depth falls out of the loop count
        packed_levels, lchild_levels = [], []
        frontier = roots.astype(np.int64)
        while internal[frontier].any():
            is_internal = internal[frontier]
            n_children = np.where(is_internal, 2, 1)
            child_pos = np.concatenate(([0], np.cumsum(n_children)))[:-1]
            packed_levels.append(
                np.where(
                    is_internal,
                    (tpos[frontier] << fbits) | feature[frontier],
                    sentinel,
                ).astype(pdtype)
            )
            # children adjacent: gather stays intp end-to-end (np.take
            # converts any other index dtype on every call)
            lchild_levels.append(child_pos.astype(np.intp))
            nxt = np.empty(int(n_children.sum()), dtype=np.int64)
            nxt[child_pos[is_internal]] = frontier[is_internal] + 1
            nxt[child_pos[is_internal] + 1] = right[frontier[is_internal]]
            nxt[child_pos[~is_internal]] = frontier[~is_internal]
            frontier = nxt
        self._packed = packed_levels
        self._lchild = lchild_levels
        self._leafmap = frontier  # depth-D slot -> probability row
        self.depth = len(packed_levels)
        self._root_slots = np.arange(self.n_trees, dtype=np.intp)

    # ------------------------------------------------------- constructors
    @classmethod
    def from_forest(cls, forest) -> "ForestKernel":
        """Compile a fitted :class:`RandomForestClassifier`."""
        feature, threshold, right, proba, roots, _depth = forest._ensure_flat()
        return cls(
            feature,
            threshold,
            right,
            proba,
            roots,
            forest.classes_,
            forest.n_features_,
        )

    @classmethod
    def from_arrays(
        cls,
        arrays: dict,
        classes,
        n_features: int,
    ) -> "ForestKernel":
        """Compile straight from :meth:`RandomForestClassifier.export_state`.

        ``arrays`` uses the persistence layout: concatenated preorder node
        arrays with tree-local child indices, ``-1`` features on leaves and
        ``offsets`` delimiting trees.  The arena conversion is a handful of
        vectorised passes — no tree objects are materialised, which is what
        makes ``load_pipeline`` cold starts cheap.
        """
        feature = np.asarray(arrays["feature"], dtype=np.int64)
        threshold = np.asarray(arrays["threshold"], dtype=float)
        right = np.asarray(arrays["right"], dtype=np.int64)
        proba = np.asarray(arrays["proba"], dtype=float)
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        leaf = feature < 0
        shift = np.repeat(offsets[:-1], np.diff(offsets))
        return cls(
            np.where(leaf, 0, feature),
            np.where(leaf, -np.inf, threshold),
            right + shift,  # leaves self-index locally, so they stay self-routing
            proba,
            offsets[:-1],
            classes,
            n_features,
        )

    # ------------------------------------------------------------ ranking
    def _rank(self, X: np.ndarray) -> np.ndarray:
        n_rows, n_features = X.shape
        if n_rows * n_features * max(1, self._kmax) <= self.BCAST_RANK_MAX_CELLS:
            # rank = #{cut < x}; +inf padding never counts for finite x
            return np.add.reduce(
                self._cuts_pad[None, :, :] < X[:, :, None], axis=2
            ).astype(self._pdtype)
        ranks = np.empty(X.shape, dtype=self._pdtype)
        for j in range(n_features):
            ranks[:, j] = np.searchsorted(self._cuts[j], X[:, j], side="left")
        return ranks

    # ---------------------------------------------------------- traversal
    def _traverse(self, ranks: np.ndarray) -> np.ndarray:
        """Leaf probability-row ids, shape ``(n_rows, n_trees)``."""
        n_rows, n_features = ranks.shape
        n_trees = self.n_trees
        out = np.empty((n_rows, n_trees), dtype=np.intp)
        block = max(64, self.BLOCK_CELLS // max(1, n_trees))
        if self._pdtype == np.int16:
            # row_base = row * n_features must stay inside int16
            block = min(block, (2**15 - 1) // max(1, n_features))
        for start in range(0, n_rows, block):
            sub = ranks[start : start + block]
            m = sub.shape[0]
            rank_flat = sub.ravel()
            row_base = (np.arange(m, dtype=self._pdtype) * n_features)[:, None]
            cur = np.broadcast_to(self._root_slots, (m, n_trees)).astype(np.intp)
            for depth in range(self.depth):
                packed = self._packed[depth].take(cur)
                feat = packed & self._fmask
                np.add(feat, row_base, out=feat)
                rank_value = rank_flat.take(feat)
                go_right = rank_value > (packed >> self._fbits)
                cur = self._lchild[depth].take(cur)
                np.add(cur, go_right, out=cur, casting="unsafe")
            out[start : start + m] = (
                self._leafmap.take(cur)
                if self.depth
                else np.broadcast_to(self._leafmap, (m, n_trees))
            )
        return out

    # ------------------------------------------------------- accumulation
    def _accumulate(self, leaves: np.ndarray) -> np.ndarray:
        n_rows, n_trees = leaves.shape
        proba = self.proba
        if n_rows * n_trees * self.n_classes <= self.FUSED_ACCUM_MAX_CELLS:
            # 3-D reduce over a strided axis is a sequential per-element
            # sum — the same addition order as the loop below (a 2-D
            # reduce would be pairwise and would NOT be bit-identical)
            total = np.add.reduce(proba[leaves], axis=1)
        else:
            total = np.zeros((n_rows, self.n_classes))
            for tree in range(n_trees):
                total += proba[leaves[:, tree]]
        return total / n_trees

    # ----------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        """Mean class probabilities, bit-identical to the legacy traversal."""
        X, _ = check_Xy(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        ranks = self._rank(X)
        if (
            self.DEDUP_MIN_ROWS <= X.shape[0] <= self.DEDUP_MAX_ROWS
            and X.shape[1] <= self.DEDUP_MAX_FEATURES
        ):
            unique_ranks, inverse = np.unique(ranks, axis=0, return_inverse=True)
            if 2 * unique_ranks.shape[0] <= ranks.shape[0]:
                return self._accumulate(self._traverse(unique_ranks))[inverse]
        return self._accumulate(self._traverse(ranks))

    def predict(self, X) -> np.ndarray:
        """Most probable class per row (same tie-breaking as the forest)."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    # ------------------------------------------------------------- sizing
    def nbytes(self) -> int:
        """Approximate compiled-table footprint in bytes."""
        tables = sum(level.nbytes for level in self._packed)
        tables += sum(level.nbytes for level in self._lchild)
        return int(
            tables
            + self._leafmap.nbytes
            + self._cuts_pad.nbytes
            + sum(c.nbytes for c in self._cuts)
            + self.proba.nbytes
        )
