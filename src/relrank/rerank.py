"""Pair assembly and candidate re-scoring.

``PairBuilder`` turns (query_id, doc_id) into the model input bundle,
attaching the per-query extra features when asked.  ``rerank_candidates``
scores whole candidate lists with frozen parameters, caching the recurrent
document encoding per document so a document shared by many queries is
encoded once per call.
"""

from __future__ import annotations

from .autodiff import no_grad
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError
from .models import ExtraFeatureBuilder, PairInput, Scorer, build_pair_input
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
        self.queries = self._by_id(queries, "query_id")
        self.documents = self._by_id(documents, "doc_id")
        self.candidates = dict(candidates)
        self.emb = emb
        self.idf = idf
        self.with_extra = with_extra
        self._extra: dict[str, ExtraFeatureBuilder] = {}
        self._pairs: dict[tuple[str, str], PairInput] = {}

    @staticmethod
    def _by_id(values, key):
        if isinstance(values, dict):
            return dict(values)
        return {getattr(v, key): v for v in values}

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
            self._pairs[key] = build_pair_input(query, doc, self.emb,
                                                self.idf, extra)
        return self._pairs[key]


def rerank_candidates(model: Scorer, builder: PairBuilder,
                      candidates: dict[str, RankedList] | None = None,
                      ) -> list[RankedList]:
    """Score every candidate with frozen parameters; ties fall back to
    ascending doc_id, matching the retrieval convention."""
    if candidates is None:
        candidates = builder.candidates
    runs = []
    doc_states: dict[str, object] = {}
    with no_grad():
        for query_id in sorted(candidates):
            scored = []
            for doc_id in candidates[query_id].doc_ids():
                pair = builder.pair(query_id, doc_id)
                if doc_id not in doc_states:
                    doc_states[doc_id] = model.doc_state(pair)
                score = model.score(pair, doc_state=doc_states[doc_id])
                scored.append((doc_id, float(score.data)))
            runs.append(ranked_list_from_scores(query_id, scored))
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
    with no_grad():
        context_view = cosine_attention(*model.view("context", pair)).data
        embedding_view = cosine_attention(*model.view("embedding", pair)).data
        exact_view = equality_matrix(*model.view("exact", pair))
        encodings = model.rows(pair).data
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
