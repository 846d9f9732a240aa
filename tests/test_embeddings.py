"""Tests for word2vec IO, vocabulary alignment, and the exact-match view."""

import logging

import numpy as np
import pytest

from relrank.embeddings import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    align_embeddings,
    load_embeddings,
    read_word2vec,
    read_word2vec_binary,
    read_word2vec_text,
    write_word2vec_binary,
    write_word2vec_text,
)
from relrank.errors import ConfigError, DataError
from relrank.models import side_input
from relrank.models.interactions import equality_matrix, hashed_match_vectors
from relrank.text import OOV_ID, ProcessedDocument, ProcessedQuery, Vocabulary


class TestTextFormat:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        tokens, matrix = read_word2vec_text(path)
        assert tokens == ["a", "b"]
        np.testing.assert_array_equal(matrix, [[1, 0, 0], [0, 1, 0]])
        assert matrix.dtype == np.float64

    def test_full_precision(self, tmp_path):
        path = tmp_path / "emb.txt"
        value = 0.12345678901234567
        path.write_text(f"1 1\nx {value!r}\n")
        _, matrix = read_word2vec_text(path)
        assert matrix[0, 0] == value

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3\n")
        with pytest.raises(EmbeddingFormatError, match="header"):
            read_word2vec_text(path)
        path.write_text("x y\n")
        with pytest.raises(EmbeddingFormatError, match="non-integer"):
            read_word2vec_text(path)
        path.write_text("100000000000 100000\n")
        with pytest.raises(EmbeddingFormatError, match="more values than the file"):
            read_word2vec_text(path)

    def test_truncation_and_extra(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 2\n")
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            read_word2vec_text(path)
        path.write_text("1 2\na 1 2\nb 3 4\n")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            read_word2vec_text(path)

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 1 2\n")
        with pytest.raises(EmbeddingFormatError, match="expected 3 values"):
            read_word2vec_text(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1 two\n")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            read_word2vec_text(path)


class TestBinaryFormat:
    def test_round_trip_from_text(self, tmp_path):
        # float32-representable values survive text -> binary -> load exactly.
        rng = np.random.default_rng(13)
        tokens = [f"w{i}" for i in range(20)]
        matrix = rng.standard_normal((20, 8)).astype(np.float32).astype(np.float64)
        text_path = tmp_path / "emb.txt"
        write_word2vec_text(text_path, tokens, matrix)
        t_tokens, t_matrix = read_word2vec_text(text_path)
        bin_path = tmp_path / "emb.bin"
        write_word2vec_binary(bin_path, t_tokens, t_matrix)
        b_tokens, b_matrix = read_word2vec_binary(bin_path)
        assert b_tokens == tokens
        np.testing.assert_array_equal(b_matrix, t_matrix)

    def test_truncated_vector_reports_offset(self, tmp_path):
        path = tmp_path / "emb.bin"
        payload = b"1 4\n" + b"tok " + b"\x00" * 7  # needs 16 bytes
        path.write_bytes(payload)
        with pytest.raises(EmbeddingFormatError, match="byte"):
            read_word2vec_binary(path)

    def test_truncated_token(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"1 2\nnospace")
        with pytest.raises(EmbeddingFormatError, match="token"):
            read_word2vec_binary(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_word2vec_binary(path, ["a"], np.ones((1, 2)))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            read_word2vec_binary(path)

    @pytest.mark.parametrize("fmt, payload, message", [
        ("text", b"2 1\nok 1.0\nb\xffd 2.0\n", "entry 1 at byte 12"),
        ("text", b"1 1\nok 1.0 \xe9\n", "entry 0 at byte 11"),
        ("binary", b"2 1\nok " + b"\x00" * 4 + b"b\xffd " + b"\x00" * 4,
         "entry 1 at byte 12"),
    ])
    def test_invalid_utf8_reports_offset(self, tmp_path, fmt, payload, message):
        path = tmp_path / "emb"
        path.write_bytes(payload)
        with pytest.raises(EmbeddingFormatError, match=f"{message}: invalid UTF-8"):
            read_word2vec(path, fmt)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            read_word2vec(tmp_path / "emb", fmt="w2v")


class TestAlignment:
    def test_missing_tokens_share_mean_vector(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nalpha 1 2\nbeta 3 4\n")
        vocab = Vocabulary(["alpha", "gamma", "beta"])
        emb = load_embeddings(path, vocab)
        ids = [vocab.id_of(t) for t in ("alpha", "beta", "gamma")]
        np.testing.assert_array_equal(emb.rows[emb.resolve(ids)],
                                      [[1, 2], [3, 4], [2, 3]])
        assert emb.covered == 2
        assert emb.rows.shape == (4, 2)

    def test_coverage_is_logged(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nalpha 1 2\nbeta 3 4\n")
        with caplog.at_level(logging.INFO, logger="relrank.embeddings"):
            load_embeddings(path, Vocabulary(["alpha", "gamma", "beta"]))
        assert f"{path}: 2 of 3 vocabulary terms have a vector" in caplog.text

    def test_no_vocabulary_term_covered_is_data_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nXalpha 1 2\nXbeta 3 4\n")
        with pytest.raises(DataError) as info:
            load_embeddings(path, Vocabulary(["alpha", "beta"]))
        assert str(info.value) == f"{path}: no token is a corpus vocabulary term"

    def test_oov_sentinel_resolves_to_shared_row(self):
        emb = align_embeddings(["a"], np.array([[1.0, 1.0]]), Vocabulary(["a"]))
        np.testing.assert_array_equal(emb.resolve([0, OOV_ID, 99]), [0, 1, 1])

    def test_lookup_matches_rows(self):
        rng = np.random.default_rng(29)
        tokens = [f"w{i}" for i in range(10)]
        matrix = rng.standard_normal((10, 4))
        vocab = Vocabulary(tokens)
        emb = align_embeddings(tokens, matrix, vocab)
        ids = [3, 0, OOV_ID, 7]
        got = emb.rows[emb.resolve(ids)]
        np.testing.assert_allclose(got[0], matrix[3])
        np.testing.assert_allclose(got[1], matrix[0])
        np.testing.assert_allclose(got[2], matrix.mean(axis=0))
        np.testing.assert_allclose(got[3], matrix[7])


def sides(query, doc):
    """The query's and the document's inputs, as a PairBuilder builds them."""
    emb, table = EmbeddingMatrix(np.zeros((8, 2)), covered=7), {}
    return (side_input(query.terms, emb, table, query.tokens, None),
            side_input(doc.terms, emb, table, None, None))


def exact_view(query, doc):
    """The exact-match view the models read: term-id equality, as a 0/1
    matrix."""
    q, d = sides(query, doc)
    return equality_matrix(q.ids, d.ids)


class TestExactMatchView:
    def test_basic_orthogonality(self):
        q = ProcessedQuery("q", [0], ["a"])
        d = ProcessedDocument("d", [0, 1])
        np.testing.assert_array_equal(exact_view(q, d), [[1.0, 0.0]])

    def test_repeated_terms_identical(self):
        q = ProcessedQuery("q", [0, 0], ["a", "a"])
        d = ProcessedDocument("d", [1, 0])
        q_side, _ = sides(q, d)
        assert q_side.crcs[0] == q_side.crcs[1]
        sim = exact_view(q, d)
        np.testing.assert_array_equal(sim[0], sim[1])

    def test_similarity_equals_string_equality(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            q_terms = rng.integers(0, 6, rng.integers(1, 5)).tolist()
            d_terms = rng.integers(0, 6, rng.integers(2, 12)).tolist()
            q = ProcessedQuery("q", q_terms, [f"t{t}" for t in q_terms])
            d = ProcessedDocument("d", d_terms)
            want = np.array([[1.0 if qt == dt else 0.0 for dt in d_terms]
                             for qt in q_terms])
            np.testing.assert_array_equal(exact_view(q, d), want)

    def test_unseen_query_terms_never_match(self):
        q = ProcessedQuery("q", [OOV_ID, OOV_ID, 0], ["new", "new", "a"])
        d = ProcessedDocument("d", [0, 1])
        sim = exact_view(q, d)
        np.testing.assert_array_equal(sim[0], [0.0, 0.0])
        # Same unseen token twice -> same key, so the same one-hot slot.
        q_side, _ = sides(q, d)
        assert q_side.crcs[0] == q_side.crcs[1]
        np.testing.assert_array_equal(sim[2], [1.0, 0.0])

    def test_one_hot_shape_and_norm(self):
        # The attention models fold the keys into hashed one-hots.
        q = ProcessedQuery("q", [0, 1], ["a", "b"])
        d = ProcessedDocument("d", [1, 2, 2])
        q_side, d_side = sides(q, d)
        qv, dv = hashed_match_vectors(q_side.crcs, d_side.crcs, 6)
        assert qv.shape == (2, 6) and dv.shape == (3, 6)
        np.testing.assert_array_equal(np.linalg.norm(qv, axis=1), 1.0)
        np.testing.assert_array_equal(np.linalg.norm(dv, axis=1), 1.0)
        np.testing.assert_array_equal(qv[1], dv[0])
