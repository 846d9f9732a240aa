"""Tests for index construction, BM25 scoring, retrieval, and persistence."""

import math

import numpy as np
import pytest

from relrank.errors import ConfigError, DataError
from relrank.index import (
    IndexFormatError,
    bm25_score,
    build_index,
    load_index,
    oracle_rerank,
    retrieve_topn,
    save_index,
)
from relrank.text import (
    ProcessedDocument,
    ProcessedQuery,
    Vocabulary,
    compute_idf,
)
from relrank.trec import Qrels


def corpus_from_token_docs(token_docs, dates=None):
    """Build (documents, vocabulary, idf) from lists of token strings."""
    vocab = Vocabulary(t for tokens in token_docs.values() for t in tokens)
    dates = dates or {}
    docs = [ProcessedDocument(doc_id, [vocab.id_of(t) for t in tokens],
                              dates.get(doc_id))
            for doc_id, tokens in token_docs.items()]
    return docs, vocab, compute_idf(docs, len(vocab))


def random_corpus(rng, n_docs, vocab_size=40, min_len=3, max_len=25):
    token_docs = {}
    for i in range(n_docs):
        length = int(rng.integers(min_len, max_len + 1))
        token_docs[f"d{i:04d}"] = [f"t{k}" for k in rng.integers(0, vocab_size, length)]
    return corpus_from_token_docs(token_docs)


def query_of(vocab, tokens, query_id="q", cutoff=None):
    return ProcessedQuery(query_id, [vocab.id_of(t) for t in tokens],
                          list(tokens), cutoff)


class TestBuild:
    def test_single_doc_postings(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a", "a", "b"]})
        index = build_index(docs, vocab, idf)
        a, b = vocab.id_of("a"), vocab.id_of("b")
        assert index.postings[a].tolist() == [[0, 2]]
        assert index.postings[b].tolist() == [[0, 1]]
        assert index.doc_lengths.tolist() == [3]

    def test_average_length(self):
        docs, vocab, idf = corpus_from_token_docs(
            {"d1": ["a", "b"], "d2": ["a", "b", "c", "d"]})
        index = build_index(docs, vocab, idf)
        assert index.avg_doc_length == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_index([], Vocabulary(), compute_idf(
                [ProcessedDocument("x", [0])], 1))

    def test_postings_sorted_by_doc_id(self):
        # Input arrives out of doc_id order; postings must not care.
        docs, vocab, idf = corpus_from_token_docs(
            {"z9": ["a"], "a1": ["a"], "m5": ["a"]})
        index = build_index(docs, vocab, idf)
        assert index.doc_ids == ["a1", "m5", "z9"]
        positions = index.postings[vocab.id_of("a")][:, 0].tolist()
        assert positions == sorted(positions)

    def test_tf_sums_to_doc_length(self):
        rng = np.random.default_rng(5)
        docs, vocab, idf = random_corpus(rng, 30)
        index = build_index(docs, vocab, idf)
        totals = np.zeros(len(index), dtype=np.int64)
        for plist in index.postings:
            for pos, tf in plist:
                totals[pos] += tf
        assert totals.tolist() == index.doc_lengths.tolist()


class TestBm25:
    def test_hand_worked_single_doc(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a", "b"]})
        index = build_index(docs, vocab, idf)
        got = bm25_score(query_of(vocab, ["a"]), "d1", index, k1=1.2, b=0.75)
        # tf=1, dl=avgdl collapses the length factor to idf itself.
        assert got == pytest.approx(math.log(1 + 0.5 / 1.5), abs=1e-12)

    def test_no_overlap_scores_zero(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"], "d2": ["b"]})
        index = build_index(docs, vocab, idf)
        assert bm25_score(query_of(vocab, ["b"]), "d1", index) == 0.0

    def test_oov_terms_contribute_nothing(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"]})
        index = build_index(docs, vocab, idf)
        base = bm25_score(query_of(vocab, ["a"]), "d1", index)
        with_oov = bm25_score(query_of(vocab, ["a", "zzz"]), "d1", index)
        assert with_oov == base

    def test_b_zero_ignores_length(self):
        docs, vocab, idf = corpus_from_token_docs(
            {"short": ["a", "b"], "long": ["a"] + ["c"] * 20})
        index = build_index(docs, vocab, idf)
        q = query_of(vocab, ["a"])
        assert bm25_score(q, "short", index, b=0.0) == pytest.approx(
            bm25_score(q, "long", index, b=0.0))

    def test_additive_over_query_terms(self):
        rng = np.random.default_rng(9)
        docs, vocab, idf = random_corpus(rng, 20)
        index = build_index(docs, vocab, idf)
        for _ in range(20):
            doc = docs[rng.integers(len(docs))]
            t1 = [f"t{k}" for k in rng.integers(0, 40, 3)]
            t2 = [f"t{k}" for k in rng.integers(0, 40, 2)]
            s1 = bm25_score(query_of(vocab, t1), doc.doc_id, index)
            s2 = bm25_score(query_of(vocab, t2), doc.doc_id, index)
            s12 = bm25_score(query_of(vocab, t1 + t2), doc.doc_id, index)
            np.testing.assert_allclose(s12, s1 + s2, rtol=1e-12)

    def test_unknown_doc_rejected(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"]})
        index = build_index(docs, vocab, idf)
        with pytest.raises(DataError, match="d9"):
            bm25_score(query_of(vocab, ["a"]), "d9", index)


class TestRetrieve:
    def test_saturation(self):
        docs, vocab, idf = corpus_from_token_docs(
            {"d1": ["a"], "d2": ["b"], "d3": ["c"]})
        index = build_index(docs, vocab, idf)
        rl = retrieve_topn(query_of(vocab, ["a"]), index, n=10)
        assert len(rl.entries) == 3
        assert [c.rank for c in rl.entries] == [1, 2, 3]
        rl.validate()

    def test_tie_break_ascending_doc_id(self):
        docs, vocab, idf = corpus_from_token_docs(
            {"d2": ["a", "b"], "d1": ["a", "b"]})
        index = build_index(docs, vocab, idf)
        rl = retrieve_topn(query_of(vocab, ["a"]), index, n=2)
        assert rl.doc_ids() == ["d1", "d2"]

    def test_invalid_n(self):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"]})
        index = build_index(docs, vocab, idf)
        with pytest.raises(ConfigError):
            retrieve_topn(query_of(vocab, ["a"]), index, n=0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        docs, vocab, idf = random_corpus(rng, 200)
        index = build_index(docs, vocab, idf)
        for qi in range(10):
            tokens = [f"t{k}" for k in rng.integers(0, 40, 4)]
            q = query_of(vocab, tokens, query_id=f"q{qi}")
            rl = retrieve_topn(q, index, n=20)
            exhaustive = sorted(
                ((bm25_score(q, d.doc_id, index), d.doc_id) for d in docs),
                key=lambda p: (-p[0], p[1]))
            assert rl.doc_ids() == [did for _, did in exhaustive[:20]]
            for cand, (score, _) in zip(rl.entries, exhaustive):
                np.testing.assert_allclose(cand.score, score, rtol=1e-12)

    def test_date_cutoff_fills_from_below(self):
        token_docs = {"d1": ["a", "a"], "d2": ["a"], "d3": ["a", "b"], "d4": ["b"]}
        dates = {"d1": "2017-03", "d2": "2014-01", "d3": "2015-12"}
        docs, vocab, idf = corpus_from_token_docs(token_docs, dates)
        index = build_index(docs, vocab, idf)
        q = query_of(vocab, ["a"], cutoff="2015-12")
        rl = retrieve_topn(q, index, n=3)
        # d1 is past the cutoff; d4 (undated) stays eligible and fills slot 3.
        assert "d1" not in rl.doc_ids()
        assert set(rl.doc_ids()) == {"d2", "d3", "d4"}
        assert [c.rank for c in rl.entries] == [1, 2, 3]

    def test_no_cutoff_keeps_everything(self):
        token_docs = {"d1": ["a"], "d2": ["a"]}
        docs, vocab, idf = corpus_from_token_docs(token_docs, {"d1": "2030-01"})
        index = build_index(docs, vocab, idf)
        rl = retrieve_topn(query_of(vocab, ["a"]), index, n=2)
        assert set(rl.doc_ids()) == {"d1", "d2"}


def brute_force_ap(ranked, relevant, total_relevant):
    if total_relevant == 0:
        return 0.0
    hits, total = 0, 0.0
    for rank, doc_id in enumerate(ranked.doc_ids(), 1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / total_relevant


class TestOracleRerank:
    def test_relevant_moved_first(self):
        from relrank.trec import Candidate, RankedList
        rl = RankedList("q", [Candidate("d1", 3.0, 1), Candidate("d2", 2.0, 2),
                              Candidate("d3", 1.0, 3)])
        qrels = Qrels()
        qrels.add("q", "d2", 1)
        qrels.add("q", "d3", 1)
        out = oracle_rerank(rl, qrels)
        assert out.doc_ids() == ["d2", "d3", "d1"]
        out.validate()

    def test_no_relevant_is_identity_order(self):
        from relrank.trec import Candidate, RankedList
        rl = RankedList("q", [Candidate("d1", 2.0, 1), Candidate("d2", 1.0, 2)])
        out = oracle_rerank(rl, Qrels())
        assert out.doc_ids() == rl.doc_ids()

    def test_map_dominance(self):
        rng = np.random.default_rng(23)
        docs, vocab, idf = random_corpus(rng, 60)
        index = build_index(docs, vocab, idf)
        qrels = Qrels()
        for d in docs:
            if rng.random() < 0.15:
                qrels.add("q", d.doc_id, 1)
        q = query_of(vocab, [f"t{k}" for k in rng.integers(0, 40, 3)])
        rl = retrieve_topn(q, index, n=30)
        rel = qrels.relevant_docs("q")
        total = len(rel)
        before = brute_force_ap(rl, rel, total)
        after = brute_force_ap(oracle_rerank(rl, qrels), rel, total)
        assert after >= before

    def test_relative_order_preserved_within_groups(self):
        rng = np.random.default_rng(31)
        docs, vocab, idf = random_corpus(rng, 40)
        index = build_index(docs, vocab, idf)
        qrels = Qrels()
        for d in docs[::3]:
            qrels.add("q", d.doc_id, 1)
        q = query_of(vocab, [f"t{k}" for k in rng.integers(0, 40, 3)])
        rl = retrieve_topn(q, index, n=25)
        out = oracle_rerank(rl, qrels)
        rel = qrels.relevant_docs("q")
        in_rel = [d for d in rl.doc_ids() if d in rel]
        in_non = [d for d in rl.doc_ids() if d not in rel]
        assert out.doc_ids() == in_rel + in_non


class TestPersistence:
    def test_round_trip_structural_equality(self, tmp_path):
        rng = np.random.default_rng(41)
        docs, vocab, idf = random_corpus(rng, 50)
        # Give some docs dates to exercise the optional field.
        for d in docs[:10]:
            d.date = f"20{int(rng.integers(0, 30)):02d}-0{int(rng.integers(1, 9))}"
        index = build_index(docs, vocab, idf, stemmer="porter",
                            stopword_hash="ab" * 32, corpus_digest="cd" * 32)
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        back = load_index(path)
        assert back.doc_ids == index.doc_ids
        assert back.doc_lengths.tolist() == index.doc_lengths.tolist()
        assert back.dates == index.dates
        assert back.vocabulary.tokens() == index.vocabulary.tokens()
        np.testing.assert_array_equal(back.idf.values, index.idf.values)
        assert back.idf.doc_count == index.idf.doc_count
        assert back.avg_doc_length == index.avg_doc_length
        assert back.stemmer == "porter"
        assert back.stopword_hash == "ab" * 32
        assert back.corpus_digest == "cd" * 32
        assert len(back.postings) == len(index.postings)
        for a, b in zip(back.postings, index.postings):
            np.testing.assert_array_equal(a, b)

    def test_retrieval_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(43)
        docs, vocab, idf = random_corpus(rng, 30)
        index = build_index(docs, vocab, idf)
        path = tmp_path / "c.idx"
        save_index(index, path)
        back = load_index(path)
        q = query_of(vocab, ["t1", "t5", "t9"])
        a = retrieve_topn(q, index, n=10)
        b = retrieve_topn(q, back, n=10)
        assert a.doc_ids() == b.doc_ids()
        assert [c.score for c in a.entries] == [c.score for c in b.entries]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path)

    def test_unsupported_version(self, tmp_path):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"]})
        index = build_index(docs, vocab, idf)
        path = tmp_path / "v.idx"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="version 99"):
            load_index(path)

    def test_truncation_reports_offset(self, tmp_path):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a", "b"]})
        index = build_index(docs, vocab, idf)
        path = tmp_path / "t.idx"
        save_index(index, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(IndexFormatError, match="offset"):
            load_index(path)

    @pytest.mark.parametrize("meta", [
        b"{}", b"[]", b"null", b"7",
        b'{"stemmer": "", "stopword_hash": "", "corpus_digest": "", '
        b'"doc_count": 1, "idf_doc_count": 1}',
        b'{"stemmer": "", "stopword_hash": "", "corpus_digest": "", '
        b'"doc_count": 1, "vocab_size": "1", "idf_doc_count": 1}',
    ])
    def test_metadata_must_be_an_object_with_typed_keys(self, tmp_path, meta):
        path = tmp_path / "m.idx"
        path.write_bytes(b"RRIX" + (1).to_bytes(4, "little")
                         + len(meta).to_bytes(4, "little") + meta)
        with pytest.raises(IndexFormatError, match="corrupt metadata block"):
            load_index(path)

    def test_invalid_utf8_token_reports_offset(self, tmp_path):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["abc"]})
        path = tmp_path / "u.idx"
        save_index(build_index(docs, vocab, idf), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"abc") + 1
        raw[at] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match=f"invalid UTF-8 at offset {at}"):
            load_index(path)

    def test_repeated_vocabulary_token_reports_offset(self, tmp_path):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["aa", "bb"], "d2": ["cc"]})
        path = tmp_path / "r.idx"
        save_index(build_index(docs, vocab, idf), path)
        raw = path.read_bytes()
        at = raw.index(b"\x02\x00cc")
        path.write_bytes(raw.replace(b"\x02\x00cc", b"\x02\x00aa", 1))
        with pytest.raises(IndexFormatError,
                           match=f"repeated vocabulary token 'aa' at offset {at}"):
            load_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        docs, vocab, idf = corpus_from_token_docs({"d1": ["a"]})
        index = build_index(docs, vocab, idf)
        path = tmp_path / "x.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(IndexFormatError, match="trailing"):
            load_index(path)
