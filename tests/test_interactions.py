"""Tests for the interaction signals feeding the scorers."""

import zlib

import numpy as np
import pytest
from support import side

from relrank.autodiff import Tensor, grad_check, stack
from relrank.errors import ConfigError
from relrank.models import PairBatch, PairInput, build_model
from relrank.models.interactions import (
    attended_match_vectors,
    cosine_attention,
    cosine_rows,
    drmm_histogram,
    equality_matrix,
    hashed_match_vectors,
    histogram_edges,
    max_kmax_pool,
    sim_matrix,
    softmax_idf,
    term_gate,
)
from relrank.text import OOV_ID


def unit_vec(cos):
    """2-D unit vector with the given cosine against [1, 0]."""
    return np.array([cos, np.sqrt(1.0 - cos * cos)])


class TestCosineRows:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((7, 6))
        got = cosine_rows(a, b)
        for i in range(4):
            for j in range(7):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                np.testing.assert_allclose(got[i, j], want, rtol=1e-12)

    def test_zero_rows_score_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 2.0]])
        got = cosine_rows(a, b)
        np.testing.assert_array_equal(got[0], [0.0, 0.0])
        np.testing.assert_array_equal(got[:, 0], [0.0, 0.0])


class TestHistogram:
    def test_two_bucket_reference_counts(self):
        # Cosines 0.5, 0.1, -0.3 against buckets [-1,0) and [0,1].
        q = np.array([1.0, 0.0])
        d = np.stack([unit_vec(0.5), unit_vec(0.1), unit_vec(-0.3)])
        counts = drmm_histogram(q, d, histogram_edges(2))
        np.testing.assert_array_equal(counts, [1.0, 2.0])

    def test_boundary_goes_to_upper_bucket(self):
        q = np.array([1.0, 0.0])
        d = np.array([[0.0, 1.0]])  # cosine exactly 0
        np.testing.assert_array_equal(drmm_histogram(q, d, histogram_edges(2)),
                                      [0.0, 1.0])

    def test_top_bucket_closed(self):
        q = np.array([1.0, 0.0])
        d = np.array([[2.0, 0.0]])  # cosine exactly 1
        counts = drmm_histogram(q, d, histogram_edges(5))
        np.testing.assert_array_equal(counts, [0, 0, 0, 0, 1])

    def test_zero_norm_treated_as_cosine_zero(self):
        q = np.array([1.0, 0.0])
        d = np.array([[0.0, 0.0]])
        counts = drmm_histogram(q, d, histogram_edges(2))
        np.testing.assert_array_equal(counts, [0.0, 1.0])

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(3)
        edges = histogram_edges(5)
        for _ in range(30):
            q = rng.standard_normal(4)
            d = rng.standard_normal((20, 4))
            got = drmm_histogram(q, d, edges)
            want = np.zeros(5)
            for row in d:
                c = q @ row / (np.linalg.norm(q) * np.linalg.norm(row))
                for b in range(5):
                    top_closed = b == 4 and c <= edges[b + 1]
                    if edges[b] <= c < edges[b + 1] or top_closed:
                        want[b] += 1
                        break
            np.testing.assert_array_equal(got, want)
            assert got.sum() == 20

    def test_bad_bucket_count(self):
        with pytest.raises(ConfigError, match="hyperparameters.buckets of drmm"):
            build_model("drmm", 3, np.random.default_rng(0), buckets=0)


class TestTermGate:
    def test_zero_weights_uniform(self):
        feats = Tensor(np.random.default_rng(4).standard_normal((5, 3)))
        gates = term_gate(feats, Tensor(np.zeros(3)))
        np.testing.assert_allclose(gates.data, np.full(5, 0.2))

    def test_single_term(self):
        gates = term_gate(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([3.0, -1.0])))
        np.testing.assert_allclose(gates.data, [1.0])

    def test_constant_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((4, 3))
        w = rng.standard_normal(3)
        base = term_gate(Tensor(feats), Tensor(w)).data
        # Adding the same row to all feature rows shifts every logit equally.
        delta = rng.standard_normal(3)
        shifted = feats + delta[None, :]
        got = term_gate(Tensor(shifted), Tensor(w)).data
        np.testing.assert_allclose(got, base, rtol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for n in [1, 2, 7]:
            gates = term_gate(Tensor(rng.standard_normal((n, 4))),
                              Tensor(rng.standard_normal(4)))
            np.testing.assert_allclose(gates.data.sum(), 1.0, rtol=1e-12)

    def test_gate_feature_modes(self):
        emb = np.arange(6.0).reshape(2, 3)
        idf = np.array([0.5, 1.5])
        pair = PairInput("q", "d", side([0, 1], emb, idf), side([0, 1], emb))

        def gate_inputs(mode):
            model = build_model("drmm", 3, np.random.default_rng(0),
                                gate_mode=mode)
            return model.gate_inputs(PairBatch([pair])).data[0]

        np.testing.assert_array_equal(gate_inputs("emb+idf"),
                                      [[0, 1, 2, 0.5], [3, 4, 5, 1.5]])
        np.testing.assert_array_equal(gate_inputs("emb"), emb)
        np.testing.assert_array_equal(gate_inputs("idf"), [[0.5], [1.5]])
        with pytest.raises(ConfigError, match="hyperparameters.gate_mode of drmm"):
            build_model("drmm", 3, np.random.default_rng(0), gate_mode="tf")


class TestSimMatrix:
    def test_identical_terms_cell_one(self):
        v = np.array([[1.0, 2.0]])
        sim = sim_matrix(v, v, 3, 4)
        np.testing.assert_allclose(sim[0, 0], 1.0)

    def test_padding_zero(self):
        q = np.array([[1.0, 0.0]])
        d = np.array([[1.0, 0.0], [0.0, 1.0]])
        sim = sim_matrix(q, d, 3, 4)
        np.testing.assert_array_equal(sim[1:], 0.0)
        np.testing.assert_array_equal(sim[:, 2:], 0.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, 5))
        d = rng.standard_normal((6, 5))
        sim = sim_matrix(q, d, 4, 8)
        for i in range(3):
            for j in range(6):
                want = q[i] @ d[j] / (np.linalg.norm(q[i]) * np.linalg.norm(d[j]))
                np.testing.assert_allclose(sim[i, j], want, rtol=1e-12)

    def test_truncates_long_sides(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((5, 3))
        d = rng.standard_normal((9, 3))
        sim = sim_matrix(q, d, 2, 4)
        assert sim.shape == (2, 4)
        np.testing.assert_allclose(sim, cosine_rows(q[:2], d[:4]))


class TestSoftmaxIdf:
    def test_normalizes_over_real_terms(self):
        out = softmax_idf(np.array([1.0, 2.0]), 5)
        np.testing.assert_allclose(out[:2].sum(), 1.0)
        np.testing.assert_array_equal(out[2:], 0.0)
        assert out[1] > out[0]

    def test_single_term(self):
        np.testing.assert_allclose(softmax_idf(np.array([3.0]), 4)[0], 1.0)

    def test_truncation(self):
        out = softmax_idf(np.ones(6), 3)
        np.testing.assert_allclose(out, np.full(3, 1 / 3))


class TestAttendedVectors:
    def test_identical_doc_terms_uniform_attention(self):
        rng = np.random.default_rng(9)
        q = Tensor(rng.standard_normal((2, 4)))
        row = rng.standard_normal(4)
        d = Tensor(np.tile(row, (5, 1)))
        phi = attended_match_vectors(q, d)
        # Attended vector is exactly the repeated row; phi is its unit form
        # times the unit q rows.
        want = (row / np.linalg.norm(row)) * (
            q.data / np.linalg.norm(q.data, axis=1, keepdims=True))
        np.testing.assert_allclose(phi.data, want, rtol=1e-10)

    def test_components_sum_to_cosine(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            q = rng.standard_normal((3, 6))
            d = rng.standard_normal((7, 6))
            phi = attended_match_vectors(Tensor(q), Tensor(d))
            # Independent recomputation of the attended vectors.
            logits = q @ d.T
            att = np.exp(logits - logits.max(axis=1, keepdims=True))
            att /= att.sum(axis=1, keepdims=True)
            attended = att @ d
            for i in range(3):
                cos = attended[i] @ q[i] / (
                    np.linalg.norm(attended[i]) * np.linalg.norm(q[i]))
                np.testing.assert_allclose(phi.data[i].sum(), cos, rtol=1e-10)

    def test_parallel_vectors_sum_to_one(self):
        q = Tensor(np.array([[2.0, 0.0]]))
        d = Tensor(np.array([[3.0, 0.0]]))
        phi = attended_match_vectors(q, d)
        np.testing.assert_allclose(phi.data.sum(), 1.0, rtol=1e-12)

    def test_disjoint_support_gives_zero_vector(self):
        q = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
        d = Tensor(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
        phi = attended_match_vectors(q, d)
        np.testing.assert_array_equal(phi.data, 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        rep = grad_check(
            lambda q, d: attended_match_vectors(q, d).sum(),
            [rng.standard_normal((2, 3)), rng.standard_normal((4, 3))])
        assert rep.passed, rep


class TestCosineAttention:
    def test_exact_and_orthogonal(self):
        q = Tensor(np.array([[1.0, 0.0]]))
        d = Tensor(np.array([[2.0, 0.0], [0.0, 5.0]]))
        got = cosine_attention(q, d).data
        np.testing.assert_allclose(got, [[1.0, 0.0]], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        q = rng.standard_normal((3, 5))
        d = rng.standard_normal((6, 5))
        got = cosine_attention(Tensor(q), Tensor(d)).data
        np.testing.assert_allclose(got, cosine_rows(q, d), rtol=1e-12)

    def test_zero_norm_rows(self):
        q = Tensor(np.zeros((1, 3)))
        d = Tensor(np.ones((2, 3)))
        np.testing.assert_array_equal(cosine_attention(q, d).data, 0.0)

    def test_bounded(self):
        rng = np.random.default_rng(13)
        got = cosine_attention(Tensor(rng.standard_normal((5, 4))),
                               Tensor(rng.standard_normal((9, 4)))).data
        assert np.all(got <= 1.0 + 1e-12) and np.all(got >= -1.0 - 1e-12)


def pool_row(values, k):
    """max_kmax_pool of a single score row, as a 2-vector."""
    row = np.asarray(values, dtype=float)
    return max_kmax_pool(Tensor(row.reshape(1, -1)), k).data[0]


class TestPooling:
    def test_reference_example(self):
        np.testing.assert_allclose(pool_row([0.9, 0.5, 0.1], 2), [0.9, 0.7])

    def test_k_one_degeneracy(self):
        np.testing.assert_allclose(pool_row([0.3, 0.8, -0.2], 1), [0.8, 0.8])

    def test_k_equals_m_gives_mean(self):
        vals = np.array([0.4, -0.1, 0.6])
        np.testing.assert_allclose(pool_row(vals, 3), [0.6, vals.mean()])

    def test_k_larger_than_m_uses_all(self):
        vals = np.array([0.2, 0.9])
        np.testing.assert_allclose(pool_row(vals, 10), [0.9, vals.mean()])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_kmax_pool(Tensor(np.zeros((1, 0))), 2)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(14)
        mat = rng.standard_normal((5, 7))
        batch = max_kmax_pool(Tensor(mat), 3).data
        for i in range(5):
            np.testing.assert_allclose(batch[i], pool_row(mat[i], 3))

    def test_gradient(self):
        rng = np.random.default_rng(15)
        rep = grad_check(lambda m: max_kmax_pool(m, 2).sum(),
                         [rng.standard_normal((3, 6))])
        assert rep.passed

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    def test_max_from_kmax_is_bitwise_the_max_op(self, k):
        # The max read from the k-max's first column must give the values
        # and input gradients of a separate ``max`` beside the ``kmax``.
        # Few distinct values force ties; k = 5 and 9 reach or pass the
        # 5-column rows.
        rng = np.random.default_rng(16 + k)
        for trial in range(40):
            rows = rng.choice([-0.5, 0.0, 0.25, 1.0], size=(4, 5))
            if trial % 2:
                rows = rows + rng.standard_normal((4, 5)) * 1e-3
            upstream = rng.standard_normal((4, 2))
            got_in, want_in = Tensor(rows.copy()), Tensor(rows.copy())
            got = max_kmax_pool(got_in, k)
            top = want_in.kmax(min(k, 5))
            want = stack([want_in.max(axis=1), top.sum(axis=1) * (1.0 / min(k, 5))],
                         axis=1)
            np.testing.assert_array_equal(got.data, want.data)
            (got * Tensor(upstream)).sum().backward()
            (want * Tensor(upstream)).sum().backward()
            np.testing.assert_array_equal(got_in.grad, want_in.grad)


def crc(key):
    return zlib.crc32(repr(key).encode("utf-8"))


class TestExactMatchSignals:
    def test_equality_matrix(self):
        q = np.array([1, 2, OOV_ID])
        d = np.array([2, 3, 2])
        got = equality_matrix(q, d)
        np.testing.assert_array_equal(got, [[0, 0, 0], [1, 0, 1], [0, 0, 0]])

    def test_hashed_vectors_preserve_equality(self):
        q = [crc(("id", 5)), crc(("oov", "zz"))]
        d = [crc(("id", 5)), crc(("id", 6)), crc(("id", 5))]
        qv, dv = hashed_match_vectors(np.array(q), np.array(d), 16)
        assert qv.shape == (2, 16) and dv.shape == (3, 16)
        np.testing.assert_array_equal(qv.sum(axis=1), 1.0)
        np.testing.assert_array_equal(dv.sum(axis=1), 1.0)
        np.testing.assert_array_equal(dv[0], dv[2])
        assert qv[0] @ dv[0] == 1.0

    def test_hashed_vectors_deterministic(self):
        crcs = np.array([crc(("id", k)) for k in range(40)])
        a, _ = hashed_match_vectors(crcs, np.array([], dtype=np.int64), 8)
        b, _ = hashed_match_vectors(crcs, np.array([], dtype=np.int64), 8)
        np.testing.assert_array_equal(a, b)
