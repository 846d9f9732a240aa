"""Relevance scoring architectures and their shared building blocks."""

from .features import ExtraFeatureBuilder, ExtraFeatures
from .inputs import PairInput, build_pair_input
from .scorers import BASELINE, Scorer, build_model, model_names

__all__ = [
    "BASELINE", "ExtraFeatureBuilder", "ExtraFeatures", "PairInput", "Scorer",
    "build_model", "build_pair_input", "model_names",
]
