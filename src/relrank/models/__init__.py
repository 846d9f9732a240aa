"""Relevance scoring architectures and their shared building blocks."""

from .features import ExtraFeatureBuilder, ExtraFeatures
from .inputs import PairBatch, PairInput, SideInput, build_pair_input, side_input
from .scorers import BASELINE, Scorer, build_model, check_hyperparameters, model_names

__all__ = [
    "BASELINE", "ExtraFeatureBuilder", "ExtraFeatures", "PairBatch", "PairInput",
    "Scorer", "SideInput",
    "build_model", "build_pair_input", "check_hyperparameters", "model_names",
    "side_input",
]
