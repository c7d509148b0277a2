"""Numpy-only machine-learning substrate used by the classification pipeline.

The paper tunes three classical models (Random Forest, SVM and KNN) for its
two classification tasks (game title, gameplay activity pattern) plus a third
model for player activity stages.  scikit-learn is not available in this
environment, so this subpackage implements the required algorithms and
utilities from scratch on top of numpy:

* :mod:`repro.ml.tree` — CART decision tree classifier.
* :mod:`repro.ml.forest` — bootstrap-aggregated random forest.
* :mod:`repro.ml.kernel` — compiled single-pass forest inference kernel
  (bit-identical probabilities).
* :mod:`repro.ml.svm` — one-vs-rest kernel SVM trained with a simplified SMO.
* :mod:`repro.ml.knn` — k-nearest-neighbour classifier.
* :mod:`repro.ml.scaling` — standard/min-max feature scalers.
* :mod:`repro.ml.model_selection` — train/test split, stratified k-fold,
  cross-validation and grid search.
* :mod:`repro.ml.metrics` — accuracy, per-class accuracy/recall, precision,
  F1 and confusion matrices.
* :mod:`repro.ml.importance` — permutation feature importance (Fig. 9 and
  Table 5 of the paper).
"""

from repro.ml.base import BaseClassifier, check_Xy
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.kernel import ForestKernel
from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    per_class_accuracy,
    precision_score,
    recall_score,
)
from repro.ml.model_selection import (
    GridSearchResult,
    StratifiedKFold,
    cross_val_score,
    grid_search,
    train_test_split,
)
from repro.ml.scaling import MinMaxScaler, StandardScaler
from repro.ml.svm import SVMClassifier
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BaseClassifier",
    "check_Xy",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "ForestKernel",
    "SVMClassifier",
    "KNeighborsClassifier",
    "StandardScaler",
    "MinMaxScaler",
    "train_test_split",
    "StratifiedKFold",
    "cross_val_score",
    "grid_search",
    "GridSearchResult",
    "accuracy_score",
    "per_class_accuracy",
    "precision_score",
    "recall_score",
    "f1_score",
    "confusion_matrix",
    "classification_report",
    "permutation_importance",
]
