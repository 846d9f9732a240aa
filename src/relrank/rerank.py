"""Pair assembly and candidate re-scoring.

``PairBuilder`` turns (query_id, doc_id) into the model input bundle,
attaching the per-query extra features when asked, and gives all its
pairs one exact-match key table, so each distinct key is hashed once.
``rerank_candidates`` scores whole candidate lists with frozen
parameters, one ``Scorer.score_batch`` call per list (the path
training's minibatches take too): one padded pass, or one per bucket of
documents of similar length.  For
a model with the context encoder, each list's query and every document
not encoded earlier in the call go through the encoder together
(``Scorer.contexts``); a document shared by many queries is encoded once
per call, and each query once per list.  Both passes give every pair the
bits of scoring it alone, so each score equals ``model.score(pair)`` bit
for bit.
"""

from __future__ import annotations

from .autodiff import no_grad
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .models import (ExtraFeatureBuilder, KeyCodes, PairBatch, PairInput, Scorer,
                     build_pair_input)
from .models.interactions import cosine_attention, equality_matrix
from .text import IdfTable, ProcessedDocument, ProcessedQuery
from .trec import RankedList, ranked_list_from_scores


class PairBuilder:
    """Caches model inputs for query-candidate pairs.

    ``candidates`` maps query_id to that query's retrieved list; extra
    features, when enabled, are normalized within exactly those candidates.
    """

    def __init__(self, queries, documents, candidates: dict[str, RankedList],
                 emb: EmbeddingMatrix, idf: IdfTable,
                 with_extra: bool = False):
        self.queries = {q.query_id: q for q in queries}
        self.documents = {d.doc_id: d for d in documents}
        self.candidates = dict(candidates)
        self.emb = emb
        self.idf = idf
        self.with_extra = with_extra
        self._extra: dict[str, ExtraFeatureBuilder] = {}
        self._pairs: dict[tuple[str, str], PairInput] = {}
        self._key_codes = KeyCodes()

    def query(self, query_id: str) -> ProcessedQuery:
        try:
            return self.queries[query_id]
        except KeyError:
            raise DataError(f"unknown query {query_id!r}")

    def document(self, doc_id: str) -> ProcessedDocument:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise DataError(f"unknown document {doc_id!r}")

    def _extra_builder(self, query_id: str) -> ExtraFeatureBuilder:
        if query_id not in self._extra:
            if query_id not in self.candidates:
                raise DataError(f"no candidate list for query {query_id!r}")
            self._extra[query_id] = ExtraFeatureBuilder(
                self.candidates[query_id], self.idf)
        return self._extra[query_id]

    def pair(self, query_id: str, doc_id: str) -> PairInput:
        key = (query_id, doc_id)
        if key not in self._pairs:
            query = self.query(query_id)
            doc = self.document(doc_id)
            extra = None
            if self.with_extra:
                extra = self._extra_builder(query_id).feature_array(query, doc)
            self._pairs[key] = build_pair_input(query, doc, self.emb, self.idf,
                                                extra, self._key_codes)
        return self._pairs[key]


def rerank_candidates(model: Scorer, builder: PairBuilder,
                      candidates: dict[str, RankedList] | None = None,
                      ) -> list[RankedList]:
    """Score every candidate with frozen parameters; ties fall back to
    ascending doc_id, matching the retrieval convention."""
    if candidates is None:
        candidates = builder.candidates
    runs = []
    encoded = {}  # (side, id) -> context encoding, kept for the whole call
    with no_grad():
        for query_id in sorted(candidates):
            pairs = [builder.pair(query_id, doc_id)
                     for doc_id in candidates[query_id].doc_ids()]
            scores = model.score_batch(
                pairs, model.contexts(pairs, encoded=encoded)).data
            runs.append(ranked_list_from_scores(query_id, [
                (pair.doc_id, float(score)) for pair, score in zip(pairs, scores)]))
    return runs


def inspect_interactions(model: Scorer, builder: PairBuilder, query_id: str,
                         doc_id: str, doc_budget: int = 50) -> dict:
    """Export the three view-similarity matrices and per-q-term encodings.

    Only models built on the context encoder expose these views.  The
    document is truncated to ``doc_budget`` terms to keep the matrices
    readable.
    """
    if model.encoder is None:
        raise ConfigError(
            f"model {model.name!r} has no context encodings to inspect")
    if doc_budget < 1:
        raise ConfigError(f"document budget must be >= 1, got {doc_budget}")
    query = builder.query(query_id)
    doc = builder.document(doc_id)
    truncated = ProcessedDocument(doc.doc_id, doc.terms[:doc_budget], doc.date)
    pair = build_pair_input(query, truncated, builder.emb, builder.idf)
    batch = PairBatch([pair])
    with no_grad():
        contexts = model.contexts([pair])
        context_view = cosine_attention(*model.view("context", batch, contexts)).data[0]
        embedding_view = cosine_attention(
            *model.view("embedding", batch, contexts)).data[0]
        exact_view = equality_matrix(*model.view("exact", batch, contexts))[0]
        encodings = model.rows(pair, contexts[0]).data
    return {
        "query_id": query_id,
        "doc_id": doc_id,
        "query_terms": list(query.tokens),
        "doc_terms_shown": len(truncated.terms),
        "views": {
            "context": context_view.tolist(),
            "embedding": embedding_view.tolist(),
            "exact": exact_view.tolist(),
        },
        "encodings": encodings.tolist(),
    }
