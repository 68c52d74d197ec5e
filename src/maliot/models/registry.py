"""Every model kind, listed once: its config class and its entry points."""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import forest, linear, mlp, naive_bayes, tree
from .base import ForestConfig, GnbConfig, LinearConfig, MlpConfig, TreeConfig


class Kind(NamedTuple):
    """A kind's config class and how to train, score and (de)serialize it."""

    config: type
    fit: Callable
    score: Callable
    to_doc: Callable
    from_doc: Callable


# Insertion order is MODEL_KINDS' order, and so the CLI's --model choices.
KINDS = {
    "random_forest": Kind(
        ForestConfig, forest.fit, forest.score, forest.to_doc, forest.from_doc),
    "decision_tree": Kind(TreeConfig, tree.fit, tree.score, tree.to_doc, tree.from_doc),
    "logistic_regression": Kind(
        LinearConfig, linear.fit_logistic, linear.score, linear.to_doc, linear.from_doc),
    "linear_svm": Kind(
        LinearConfig, linear.fit_svm, linear.score, linear.to_doc, linear.from_doc),
    "gaussian_nb": Kind(
        GnbConfig, naive_bayes.fit, naive_bayes.score, naive_bayes.to_doc,
        naive_bayes.from_doc),
    "ann": Kind(MlpConfig, mlp.fit, mlp.score, mlp.to_doc, mlp.from_doc),
}

MODEL_KINDS = tuple(KINDS)

# Kinds that model a decision boundary and therefore need both classes.
DISCRIMINATIVE_KINDS = frozenset(MODEL_KINDS) - {"gaussian_nb"}
