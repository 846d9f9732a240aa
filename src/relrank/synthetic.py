"""Synthetic retrieval corpus generator for end-to-end exercises.

The vocabulary is organized around latent concepts.  Every concept owns a
few interchangeable surface tokens whose embedding vectors cluster around a
shared direction, so meaning is visible to embedding-based models but not
to exact matching.  A document is relevant to a query when their concept
overlap, weighted by the query's per-concept weights plus Gaussian noise,
clears a threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .embeddings import write_word2vec_text
from .errors import ConfigError
from .trec import Qrels, write_qrels


@dataclass
class SyntheticWorld:
    """Generated corpus plus the latent structure behind the judgments."""

    documents: list[dict]
    queries: list[dict]
    qrels: Qrels
    embeddings: dict[str, np.ndarray]
    dim: int
    doc_concepts: dict[str, list[int]]
    query_concepts: dict[str, list[int]]
    query_weights: dict[str, list[float]] = field(default_factory=dict)


def _concept_token(concept: int, variant: int) -> str:
    # Trailing digits keep these tokens inert under suffix stemming.
    return f"w{concept}v{variant}"


def generate_world(seed: int, n_docs: int = 2000, n_queries: int = 200,
                   n_concepts: int = 120, variants: int = 3, dim: int = 8,
                   n_filler: int = 60, doc_concepts_range=(3, 6),
                   doc_len: int = 22, noise: float = 0.15,
                   threshold_scale: float = 1.05) -> SyntheticWorld:
    """Build a corpus whose relevance is noisy weighted concept overlap.

    ``threshold_scale`` is applied to the query's maximum concept weight:
    documents hitting that concept usually qualify, and noise lets
    lower-weight overlaps qualify occasionally.
    """
    if n_concepts < 2 or variants < 1:
        raise ConfigError("need at least two concepts and one variant")
    rng = np.random.default_rng(seed)

    bases = rng.standard_normal((n_concepts, dim))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    embeddings: dict[str, np.ndarray] = {}
    for concept in range(n_concepts):
        for variant in range(variants):
            jitter = 0.08 * rng.standard_normal(dim)
            embeddings[_concept_token(concept, variant)] = bases[concept] + jitter
    filler_tokens = [f"f{i}" for i in range(n_filler)]
    for token in filler_tokens:
        embeddings[token] = rng.standard_normal(dim)

    documents = []
    doc_concepts: dict[str, list[int]] = {}
    for i in range(n_docs):
        doc_id = f"d{i:05d}"
        count = int(rng.integers(doc_concepts_range[0],
                                 doc_concepts_range[1] + 1))
        concepts = sorted(int(c) for c in
                          rng.choice(n_concepts, size=count, replace=False))
        words = []
        for concept in concepts:
            for _ in range(int(rng.integers(1, 3))):
                words.append(_concept_token(concept, int(rng.integers(variants))))
        while len(words) < doc_len:
            words.append(filler_tokens[int(rng.integers(n_filler))])
        order = rng.permutation(len(words))
        documents.append({"id": doc_id,
                          "text": " ".join(words[k] for k in order)})
        doc_concepts[doc_id] = concepts

    queries = []
    query_concepts: dict[str, list[int]] = {}
    query_weights: dict[str, list[float]] = {}
    qrels = Qrels()
    for qi in range(n_queries):
        query_id = f"q{qi:03d}"
        count = int(rng.integers(2, 4))
        concepts = [int(c) for c in
                    rng.choice(n_concepts, size=count, replace=False)]
        weights = [float(w) for w in rng.uniform(0.5, 1.5, count)]
        tokens = [_concept_token(c, int(rng.integers(variants)))
                  for c in concepts]
        queries.append({"id": query_id, "text": " ".join(tokens)})
        query_concepts[query_id] = concepts
        query_weights[query_id] = weights
        threshold = threshold_scale * max(weights)
        for doc_id, owned in doc_concepts.items():
            overlap = sum(w for c, w in zip(concepts, weights) if c in owned)
            if overlap == 0.0:
                continue
            score = overlap + noise * rng.standard_normal()
            if score >= threshold:
                qrels.add(query_id, doc_id, 1)

    return SyntheticWorld(documents, queries, qrels, embeddings, dim,
                          doc_concepts, query_concepts, query_weights)


def write_world(world: SyntheticWorld, directory) -> dict[str, str]:
    """Write corpus, queries, qrels, and embeddings under ``directory``."""
    paths = {
        "corpus": str(directory / "corpus.jsonl"),
        "queries": str(directory / "queries.jsonl"),
        "qrels": str(directory / "qrels.txt"),
        "embeddings": str(directory / "embeddings.txt"),
    }
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for doc in world.documents:
            fh.write(json.dumps(doc) + "\n")
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        for query in world.queries:
            fh.write(json.dumps(query) + "\n")
    write_qrels(paths["qrels"], world.qrels)
    tokens = sorted(world.embeddings)
    matrix = np.stack([world.embeddings[t] for t in tokens])
    write_word2vec_text(paths["embeddings"], tokens, matrix)
    return paths
