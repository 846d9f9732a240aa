"""Relevance scoring architectures and their shared building blocks."""

from .features import ExtraFeatureBuilder, ExtraFeatures
from .inputs import KeyCodes, PairBatch, PairInput, build_pair_input
from .scorers import BASELINE, Scorer, build_model, check_hyperparameters, model_names

__all__ = [
    "BASELINE", "ExtraFeatureBuilder", "ExtraFeatures", "KeyCodes", "PairBatch",
    "PairInput", "Scorer",
    "build_model", "build_pair_input", "check_hyperparameters", "model_names",
]
