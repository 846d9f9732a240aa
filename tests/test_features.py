"""Tests for the extra feature set and pair-input assembly."""

import zlib

import numpy as np
import pytest

from relrank.embeddings import EmbeddingMatrix, align_embeddings
from relrank.errors import DataError
from relrank.models import ExtraFeatureBuilder, build_pair_input, side_input
from relrank.text import (
    OOV_ID,
    IdfTable,
    ProcessedDocument,
    ProcessedQuery,
    Vocabulary,
)
from relrank.trec import Candidate, RankedList


def idf_table(values):
    return IdfTable(np.asarray(values, dtype=float), doc_count=10)


def candidates(scores):
    entries = [Candidate(f"d{i}", float(s), i + 1) for i, s in enumerate(scores)]
    return RankedList("q", entries)


EMB = EmbeddingMatrix(np.zeros((4, 2)), covered=3)


class Features:
    """The extra features within a candidate list of ``scores``, each side's
    input built as a PairBuilder builds it."""

    def __init__(self, scores, idf_values):
        self.builder = ExtraFeatureBuilder(candidates(scores))
        self.idf = idf_table(idf_values)

    def sides(self, q, d):
        return (d.doc_id, side_input(q.terms, EMB, {}, q.tokens, self.idf),
                side_input(d.terms, EMB, {}, None, None))

    def features(self, q, d):
        return self.builder.features(*self.sides(q, d))

    def feature_array(self, q, d):
        return self.builder.feature_array(*self.sides(q, d))


class TestExtraFeatures:
    def test_all_terms_present(self):
        builder = Features([3.0, 1.0], [1.0, 2.0])
        q = ProcessedQuery("q", [0, 1], ["a", "b"])
        d = ProcessedDocument("d0", [1, 0, 0])
        feats = builder.features(q, d)
        assert feats.exact_overlap == 1.0
        assert feats.idf_weighted_overlap == 1.0

    def test_single_candidate_zero_z(self):
        builder = Features([2.5], [1.0])
        q = ProcessedQuery("q", [0], ["a"])
        feats = builder.features(q, ProcessedDocument("d0", [0]))
        assert feats.bm25_z == 0.0

    def test_z_score_hand_computed(self):
        builder = Features([1.0, 2.0, 3.0], [1.0])
        q = ProcessedQuery("q", [0], ["a"])
        feats = builder.features(q, ProcessedDocument("d2", [0]))
        # mean 2, population std sqrt(2/3).
        np.testing.assert_allclose(feats.bm25_z, (3.0 - 2.0) / np.sqrt(2.0 / 3.0))

    def test_partial_overlap_with_idf_weighting(self):
        builder = Features([1.0, 1.0], [1.0, 3.0])
        q = ProcessedQuery("q", [0, 1], ["a", "b"])
        d = ProcessedDocument("d0", [1])  # only the high-idf term matches
        feats = builder.features(q, d)
        assert feats.exact_overlap == 0.5
        np.testing.assert_allclose(feats.idf_weighted_overlap, 3.0 / 4.0)

    def test_bigram_overlap(self):
        # Query [a, b, c]; doc has "a b" adjacent but never "b c".
        builder = Features([1.0, 1.0], [1.0] * 3)
        q = ProcessedQuery("q", [0, 1, 2], ["a", "b", "c"])
        d = ProcessedDocument("d0", [0, 1, 0, 2])
        feats = builder.features(q, d)
        np.testing.assert_allclose(feats.bigram_overlap, 0.5)

    def test_single_term_query_bigram_zero(self):
        builder = Features([1.0], [1.0])
        q = ProcessedQuery("q", [0], ["a"])
        feats = builder.features(q, ProcessedDocument("d0", [0]))
        assert feats.bigram_overlap == 0.0

    def test_oov_terms_lower_overlap_but_count_in_denominator(self):
        builder = Features([1.0, 2.0], [1.0])
        q = ProcessedQuery("q", [0, OOV_ID], ["a", "zzz"])
        d = ProcessedDocument("d0", [0])
        feats = builder.features(q, d)
        assert feats.exact_overlap == 0.5
        assert 0.0 < feats.idf_weighted_overlap < 1.0

    def test_unknown_doc_rejected(self):
        builder = Features([1.0], [1.0])
        q = ProcessedQuery("q", [0], ["a"])
        with pytest.raises(DataError, match="not a candidate"):
            builder.features(q, ProcessedDocument("d9", [0]))

    def test_empty_candidates_rejected(self):
        with pytest.raises(DataError, match="empty"):
            ExtraFeatureBuilder(RankedList("q", []))

    def test_array_layout(self):
        builder = Features([1.0, 3.0], [1.0])
        q = ProcessedQuery("q", [0], ["a"])
        arr = builder.feature_array(q, ProcessedDocument("d0", [0]))
        assert arr.shape == (4,)
        feats = builder.features(q, ProcessedDocument("d0", [0]))
        np.testing.assert_array_equal(
            arr, [feats.bm25_z, feats.exact_overlap,
                  feats.idf_weighted_overlap, feats.bigram_overlap])


def crcs(keys):
    return [zlib.crc32(repr(key).encode("utf-8")) for key in keys]


class TestPairInput:
    def test_assembly_from_processed_pair(self):
        rng = np.random.default_rng(1)
        tokens = ["alpha", "beta", "gamma"]
        matrix = rng.standard_normal((3, 4))
        vocab = Vocabulary(tokens)
        emb = align_embeddings(tokens, matrix, vocab)
        idf = idf_table([0.5, 1.0, 1.5])
        q = ProcessedQuery("q1", [0, OOV_ID], ["alpha", "novel"])
        d = ProcessedDocument("d1", [1, 2, 1])
        table = {}
        pair = build_pair_input("q1", "d1", side_input(q.terms, emb, table, q.tokens, idf),
                                side_input(d.terms, emb, table, None, None), None)
        assert pair.query_id == "q1" and pair.doc_id == "d1"
        np.testing.assert_allclose(pair.q.emb[0], matrix[0])
        np.testing.assert_allclose(pair.q.emb[1], matrix.mean(axis=0))
        np.testing.assert_allclose(pair.d.emb[0], matrix[1])
        assert pair.q.idf[0] == 0.5
        assert pair.q.idf[1] == idf.idf_of(OOV_ID)
        assert pair.q.ids.tolist() == [0, OOV_ID]
        assert pair.d.ids.tolist() == [1, 2, 1]
        assert pair.q.crcs.tolist() == crcs([("id", 0), ("oov", "novel")])
        assert pair.d.crcs.tolist() == crcs([("id", 1), ("id", 2), ("id", 1)])
        assert sorted(table) == [0, 1, 2]  # the ids, each hashed once
        assert pair.d.idf is None and pair.extra is None

    def test_embedding_rows_resolve_oov(self):
        emb = EmbeddingMatrix(np.arange(8.0).reshape(4, 2), covered=3)
        idf = idf_table([1.0] * 3)
        q = side_input([2, OOV_ID], emb, {}, ["c", "x"], idf)
        d = side_input([0], emb, {}, None, None)
        np.testing.assert_array_equal(q.rows, [2, 3])
        np.testing.assert_array_equal(d.rows, [0])

    def test_features_read_both_sides(self):
        builder = ExtraFeatureBuilder(candidates([1.0, 3.0]))
        idf = idf_table([1.0, 2.0])
        q = side_input([0, 1], EMB, {}, ["a", "b"], idf)
        d = side_input([1, 0], EMB, {}, None, None)
        pair = build_pair_input("q", "d1", q, d, builder)
        np.testing.assert_array_equal(pair.extra,
                                      builder.feature_array("d1", q, d))
        assert pair.extra[1] == 1.0 and pair.extra[3] == 0.0
        assert d.terms == {0, 1} and d.bigrams == {(1, 0)}
