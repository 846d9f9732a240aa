"""Hand-crafted per-pair features combined linearly with the model score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..text import OOV_ID
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
    constructed per query.  The overlaps read the two sides' inputs
    (``models.inputs.SideInput``): the query's term ids and IDF values, and
    the document's term and bigram sets.
    """

    def __init__(self, candidates: RankedList):
        if not candidates.entries:
            raise DataError(
                f"query {candidates.query_id}: empty candidate list")
        self.query_id = candidates.query_id
        self._scores = {c.doc_id: c.score for c in candidates.entries}
        values = np.array([c.score for c in candidates.entries])
        self._mean = float(values.mean())
        self._std = float(values.std())

    def features(self, doc_id: str, q, d) -> ExtraFeatures:
        try:
            bm25 = self._scores[doc_id]
        except KeyError:
            raise DataError(f"doc {doc_id!r} is not a candidate for "
                            f"query {self.query_id!r}")
        bm25_z = 0.0 if self._std == 0.0 else (bm25 - self._mean) / self._std

        terms, idfs = q.ids.tolist(), q.idf.tolist()
        n = len(terms)
        matched = [w for t, w in zip(terms, idfs) if t != OOV_ID and t in d.terms]
        exact = len(matched) / n

        idf_total = sum(idfs)
        idf_weighted = sum(matched) / idf_total if idf_total > 0 else 0.0

        if n > 1:
            hits = sum(1 for pair in zip(terms, terms[1:]) if pair in d.bigrams)
            bigram = hits / (n - 1)
        else:
            bigram = 0.0
        return ExtraFeatures(bm25_z, exact, idf_weighted, bigram)

    def feature_array(self, doc_id: str, q, d) -> np.ndarray:
        return self.features(doc_id, q, d).as_array()
