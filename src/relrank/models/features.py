"""Hand-crafted per-pair features combined linearly with the model score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..text import OOV_ID, IdfTable, ProcessedDocument, ProcessedQuery
from ..trec import RankedList


@dataclass
class ExtraFeatures:
    """BM25 z-score plus three query-term overlap fractions."""

    bm25_z: float
    exact_overlap: float
    idf_weighted_overlap: float
    bigram_overlap: float

    def as_array(self) -> np.ndarray:
        return np.array([self.bm25_z, self.exact_overlap,
                         self.idf_weighted_overlap, self.bigram_overlap])


class ExtraFeatureBuilder:
    """Features for documents within one query's candidate list.

    The BM25 z-score is normalized over this query's candidates (population
    standard deviation; a constant list z-scores to 0), so the builder is
    constructed per query.
    """

    def __init__(self, candidates: RankedList, idf: IdfTable):
        if not candidates.entries:
            raise DataError(
                f"query {candidates.query_id}: empty candidate list")
        self.query_id = candidates.query_id
        self._scores = {c.doc_id: c.score for c in candidates.entries}
        values = np.array([c.score for c in candidates.entries])
        self._mean = float(values.mean())
        self._std = float(values.std())
        self._idf = idf

    def features(self, query: ProcessedQuery, doc: ProcessedDocument) -> ExtraFeatures:
        try:
            bm25 = self._scores[doc.doc_id]
        except KeyError:
            raise DataError(f"doc {doc.doc_id!r} is not a candidate for "
                            f"query {self.query_id!r}")
        bm25_z = 0.0 if self._std == 0.0 else (bm25 - self._mean) / self._std

        n = len(query.terms)
        doc_terms = set(doc.terms)
        matched = [t for t in query.terms if t != OOV_ID and t in doc_terms]
        exact = len(matched) / n

        idf_total = sum(self._idf.idf_of(t) for t in query.terms)
        idf_matched = sum(self._idf.idf_of(t) for t in matched)
        idf_weighted = idf_matched / idf_total if idf_total > 0 else 0.0

        if n > 1:
            doc_bigrams = set(zip(doc.terms, doc.terms[1:]))
            hits = sum(1 for pair in zip(query.terms, query.terms[1:])
                       if pair in doc_bigrams)
            bigram = hits / (n - 1)
        else:
            bigram = 0.0
        return ExtraFeatures(bm25_z, exact, idf_weighted, bigram)

    def feature_array(self, query, doc) -> np.ndarray:
        return self.features(query, doc).as_array()
