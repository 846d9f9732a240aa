"""Tests for the scoring architectures against plain-numpy references."""

import math

import numpy as np
import pytest

from relrank.autodiff import Tensor, load_params, save_params
from relrank.embeddings import EmbeddingMatrix
from relrank.errors import ConfigError
from relrank.models import BASELINE, PairInput, Scorer, build_model, model_names
from relrank.models.interactions import (
    attended_match_vectors,
    hashed_match_vectors,
    histogram_edges,
)
from support import jitter_zero_params, make_pair, model_grad_check, zero_encoder


def softmax_np(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def l2n_np(rows):
    out = np.zeros_like(rows)
    for i, r in enumerate(rows):
        norm = np.linalg.norm(r)
        if norm > 0:
            out[i] = r / norm
    return out


def mlp_rows_np(x, weights, biases):
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.data + b.data
        if i < last:
            h = np.maximum(h, 0.0)
    return h[:, 0]


def unit_from_cosine(c, dim=3):
    """Unit vector at exactly cosine c to the first axis."""
    v = np.zeros(dim)
    v[0] = c
    v[1] = math.sqrt(1.0 - c * c)
    return v


def cosine_np(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


def sim_np(q_emb, d_emb, l_q, l_d):
    out = np.zeros((l_q, l_d))
    for i, qv in enumerate(q_emb[:l_q]):
        for j, dv in enumerate(d_emb[:l_d]):
            out[i, j] = cosine_np(qv, dv)
    return out


def kmax_np(mat, k):
    return np.sort(mat, axis=1)[:, ::-1][:, :k]


def softidf_np(q_idf, l_q):
    out = np.zeros(l_q)
    out[:len(q_idf)] = softmax_np(np.asarray(q_idf, dtype=float))
    return out


def hist_np(q_vec, d_vecs, edges):
    """Brute-force bucket counts, half-open with a closed top bucket."""
    counts = np.zeros(len(edges) - 1)
    for dv in d_vecs:
        c = cosine_np(q_vec, dv)
        for b in range(len(edges) - 1):
            if edges[b] <= c < edges[b + 1] or (b == len(edges) - 2
                                                and c == edges[b + 1]):
                counts[b] += 1
                break
    return counts


class TestHistogramDrmm:
    def drmm_np(self, model, pair, buckets):
        edges = histogram_edges(buckets)
        hists = np.log1p(np.stack([hist_np(q, pair.d_emb, edges)
                                   for q in pair.q_emb]))
        rows = mlp_rows_np(hists, model.head.weights, model.head.biases)
        feats = np.concatenate([pair.q_emb, pair.q_idf[:, None]], axis=1)
        gates = softmax_np(feats @ model.params["gate.w"].data)
        return float(gates @ rows)

    def test_hand_trace_two_buckets(self):
        rng = np.random.default_rng(0)
        model = build_model("drmm", 2, rng, buckets=2, hidden=(), gate_mode="idf")
        model.params["mlp.w0"].data[:] = [[0.5], [-0.25]]
        model.params["mlp.b0"].data[:] = [0.1]
        model.params["gate.w"].data[:] = [2.0]
        e1, e2 = np.eye(2)
        pair = PairInput("q", "d", np.stack([e1, e2]), np.stack([e1, -e2]),
                         np.array([0.3, 0.9]), np.arange(2), np.arange(2),
                         [("id", 0), ("id", 1)], [("id", 0), ("id", 2)])
        # Counts: q1 sees cosines (1, 0) -> [0, 2]; q2 sees (0, -1) -> [1, 1].
        s1 = math.log1p(2) * -0.25 + 0.1
        s2 = math.log1p(1) * 0.5 + math.log1p(1) * -0.25 + 0.1
        g = softmax_np(np.array([0.6, 1.8]))
        expect = g[0] * s1 + g[1] * s2
        np.testing.assert_allclose(model.score(pair).data, expect, atol=1e-12)

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 12))
            buckets = int(rng.integers(2, 9))
            model = build_model("drmm", 3, rng, buckets=buckets, hidden=(4,))
            pair = make_pair(rng, n, m, 3)
            np.testing.assert_allclose(model.score(pair).data,
                                       self.drmm_np(model, pair, buckets),
                                       atol=1e-10)

    def test_doc_order_irrelevant(self):
        rng = np.random.default_rng(3)
        model = build_model("drmm", 3, rng, buckets=5, hidden=(6,))
        pair = make_pair(rng, 3, 9, 3)
        shuffled = PairInput(pair.query_id, pair.doc_id, pair.q_emb,
                             pair.d_emb[::-1].copy(), pair.q_idf, pair.q_rows,
                             pair.d_rows, pair.q_keys, list(reversed(pair.d_keys)))
        assert model.score(pair).data == model.score(shuffled).data

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        model = build_model("drmm", 3, rng, buckets=4, hidden=(4,))
        pair = make_pair(rng, 2, 6, 3)
        assert model.score(pair).data == model.score(pair).data

    def test_histograms_carry_no_gradient(self):
        # Counting is a step function: only the dense stack and gate train.
        rng = np.random.default_rng(5)
        model = build_model("drmm", 3, rng, buckets=4, hidden=(4,))
        pair = make_pair(rng, 2, 6, 3)
        score = model.score(pair)
        score.backward()
        for _, tensor in model.params.items():
            assert np.all(np.isfinite(tensor.grad))

    def test_grad_check(self):
        rng = np.random.default_rng(6)
        model = build_model("drmm", 3, rng, buckets=4, hidden=(4,))
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 6, 3)
        report = model_grad_check(model, pair)
        assert report.passed, report


L_Q, L_D, K = 4, 6, 2  # the conv models' fixed sizes and k-max depth


class TestConvRowModels:
    def fixed(self, rng, name, **kw):
        opts = dict(max_query_terms=L_Q, max_doc_terms=L_D, max_kernel=3,
                    filters=2, k=K)
        opts.update(kw)
        return build_model(name, 3, rng, **opts)

    def conv_rows_np(self, model, pair):
        sim = sim_np(pair.q_emb, pair.d_emb, L_Q, L_D)
        blocks = [kmax_np(sim, K)]
        for n in range(2, 4):
            w, b = model.params[f"conv{n}.w"], model.params[f"conv{n}.b"]
            top = (n - 1) // 2
            pad = np.zeros((L_Q + n - 1, L_D + n - 1))
            pad[top:top + L_Q, top:top + L_D] = sim
            out = np.zeros((w.data.shape[0], L_Q, L_D))
            for f in range(w.data.shape[0]):
                for i in range(L_Q):
                    for j in range(L_D):
                        out[f, i, j] = (np.sum(pad[i:i + n, j:j + n] * w.data[f])
                                        + b.data[f])
            blocks.append(kmax_np(np.maximum(out, 0.0).max(axis=0), K))
        blocks.append(softidf_np(pair.q_idf, L_Q)[:, None])
        return np.concatenate(blocks, axis=1)

    def test_flat_scorer_matches_numpy(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = self.fixed(rng, "pacrr")
            pair = make_pair(rng, int(rng.integers(1, 5)),
                             int(rng.integers(1, 7)), 3)
            rows = self.conv_rows_np(model, pair)
            flat = rows.reshape(1, -1)
            expect = mlp_rows_np(flat, model.head.weights, model.head.biases)[0]
            np.testing.assert_allclose(model.score(pair).data, expect, atol=1e-10)

    def test_per_row_scorer_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = self.fixed(rng, "pacrr-drmm")
            pair = make_pair(rng, int(rng.integers(1, 5)),
                             int(rng.integers(1, 7)), 3)
            rows = self.conv_rows_np(model, pair)
            per_row = mlp_rows_np(rows, model.head.weights, model.head.biases)
            agg_w, agg_b = model.params["agg.w"], model.params["agg.b"]
            expect = float(agg_w.data @ per_row + agg_b.data)
            np.testing.assert_allclose(model.score(pair).data, expect, atol=1e-10)

    def test_zero_vectors_leave_only_idf_mass(self):
        # All-zero embeddings zero every signal block; with unit dense
        # weights the score is the idf probability mass, exactly one.
        rng = np.random.default_rng(12)
        model = self.fixed(rng, "pacrr")
        model.params["dense.w0"].data[:] = 1.0
        model.params["dense.b0"].data[:] = 0.0
        pair = PairInput("q", "d", np.zeros((2, 3)), np.zeros((4, 3)),
                         np.array([0.5, 1.5]), np.arange(2), np.arange(4),
                         [("id", 0), ("id", 1)], [("id", 9)] * 4)
        np.testing.assert_allclose(model.score(pair).data, 1.0, atol=1e-12)

    def test_raw_block_ignores_doc_order(self):
        rng = np.random.default_rng(13)
        model = self.fixed(rng, "pacrr")
        pair = make_pair(rng, 3, 6, 3)
        flipped = PairInput("q", "d", pair.q_emb, pair.d_emb[::-1].copy(),
                            pair.q_idf, pair.q_rows, pair.d_rows,
                            pair.q_keys, list(reversed(pair.d_keys)))
        a = model.rows(pair).data[:, :K]
        b = model.rows(flipped).data[:, :K]
        np.testing.assert_array_equal(a, b)

    def test_k1_raw_block_is_row_max(self):
        rng = np.random.default_rng(14)
        model = self.fixed(rng, "pacrr", k=1)
        pair = make_pair(rng, 3, 5, 3)
        rows = model.rows(pair).data
        sim = sim_np(pair.q_emb, pair.d_emb, L_Q, L_D)
        np.testing.assert_allclose(rows[:, 0], sim.max(axis=1), atol=1e-12)

    def test_query_order_symmetry_with_uniform_aggregation(self):
        # Conv windows couple adjacent query rows, so zero the filters to
        # make each row depend on its own term; the shared scorer plus
        # uniform aggregation is then order-neutral.
        rng = np.random.default_rng(15)
        model = self.fixed(rng, "pacrr-drmm", max_kernel=2)
        for name in ("conv2.w", "conv2.b"):
            model.params[name].data[:] = 0.0
        model.params["agg.w"].data[:] = 1.0 / L_Q
        model.params["agg.b"].data[()] = 0.0
        pair = make_pair(rng, 3, 5, 3)
        perm = np.array([2, 0, 1])
        permuted = PairInput("q", "d", pair.q_emb[perm], pair.d_emb,
                             pair.q_idf[perm], pair.q_rows, pair.d_rows,
                             [pair.q_keys[i] for i in perm], pair.d_keys)
        np.testing.assert_allclose(model.score(pair).data,
                                   model.score(permuted).data, atol=1e-12)

    def test_reduces_to_linear_row_mix(self):
        # With no hidden layers the per-row scorer is literally
        # w_agg . (rows @ w + b) + b_agg.
        rng = np.random.default_rng(16)
        model = self.fixed(rng, "pacrr-drmm", max_query_terms=2, max_kernel=2)
        pair = make_pair(rng, 2, 4, 3)
        rows = model.rows(pair).data
        p = model.params
        inner = rows @ p["row_mlp.w0"].data[:, 0] + p["row_mlp.b0"].data[0]
        expect = float(p["agg.w"].data @ inner + p["agg.b"].data)
        np.testing.assert_allclose(model.score(pair).data, expect, atol=1e-12)

    def test_config_validation(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ConfigError, match="max_kernel"):
            self.fixed(rng, "pacrr", max_kernel=1)
        with pytest.raises(ConfigError, match="max_kernel"):
            self.fixed(rng, "pacrr", max_kernel=5, max_query_terms=4)
        with pytest.raises(ConfigError, match="k-max"):
            self.fixed(rng, "pacrr", k=0)
        with pytest.raises(ConfigError, match="k-max"):
            self.fixed(rng, "pacrr-drmm", k=7, max_doc_terms=6)
        with pytest.raises(ConfigError, match="filter"):
            self.fixed(rng, "pacrr-drmm", filters=0)

    def test_grad_check_both_variants(self):
        rng = np.random.default_rng(18)
        for name in ("pacrr", "pacrr-drmm"):
            model = self.fixed(rng, name)
            jitter_zero_params(model, rng)
            pair = make_pair(rng, 3, 5, 3)
            report = model_grad_check(model, pair)
            assert report.passed, (name, report)


class TestAttentionDrmm:
    def test_collapsed_encoder_matches_numpy(self):
        # With the recurrent cells zeroed, c(t) = [e(t); e(t)] exactly, so
        # the whole signature matrix is computable by hand.
        rng = np.random.default_rng(20)
        model = build_model("attn-drmm", 3, rng, hidden=(4,))
        zero_encoder(model)
        pair = make_pair(rng, 2, 4, 3)
        q_ctx = np.concatenate([pair.q_emb, pair.q_emb], axis=1)
        d_ctx = np.concatenate([pair.d_emb, pair.d_emb], axis=1)
        attn = np.stack([softmax_np(q_ctx[i] @ d_ctx.T)
                         for i in range(len(q_ctx))])
        phi = l2n_np(attn @ d_ctx) * l2n_np(q_ctx)
        got = model.rows(pair).data
        np.testing.assert_allclose(got, phi, atol=1e-12)

    def test_duplicated_doc_is_score_neutral(self):
        rng = np.random.default_rng(21)
        model = build_model("attn-drmm", 3, rng, hidden=(4,))
        zero_encoder(model)
        pair = make_pair(rng, 2, 4, 3)
        doubled = PairInput("q", "d", pair.q_emb,
                            np.concatenate([pair.d_emb, pair.d_emb]),
                            pair.q_idf, pair.q_rows,
                            np.concatenate([pair.d_rows, pair.d_rows]),
                            pair.q_keys, pair.d_keys * 2)
        np.testing.assert_allclose(model.score(pair).data,
                                   model.score(doubled).data, atol=1e-12)

    def test_single_doc_term_attends_fully(self):
        rng = np.random.default_rng(22)
        model = build_model("attn-drmm", 2, rng)
        pair = make_pair(rng, 3, 1, 2)
        d_ctx = model.doc_state(pair)
        q_ctx = model.encoder.encode(Tensor(pair.q_emb)).data
        expect = l2n_np(np.repeat(d_ctx, 3, axis=0)) * l2n_np(q_ctx)
        got = model.rows(pair).data
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_doc_state_cache_matches_fresh_encode(self):
        rng = np.random.default_rng(23)
        model = build_model("attn-drmm", 3, rng)
        pair = make_pair(rng, 2, 5, 3)
        cached = model.score(pair, doc_state=model.doc_state(pair)).data
        assert model.score(pair).data == cached

    def test_multiview_sums_three_views(self):
        rng = np.random.default_rng(24)
        model = build_model("attn-drmm-mv", 3, rng)
        pair = make_pair(rng, 3, 5, 3)
        q_ctx = model.encoder.encode(Tensor(pair.q_emb)).data
        d_ctx = model.encoder.encode(Tensor(pair.d_emb)).data
        view_c = attended_match_vectors(Tensor(q_ctx), Tensor(d_ctx)).data
        view_e = attended_match_vectors(
            Tensor(np.concatenate([pair.q_emb, pair.q_emb], axis=1)),
            Tensor(np.concatenate([pair.d_emb, pair.d_emb], axis=1))).data
        q_h, d_h = hashed_match_vectors(pair.q_keys, pair.d_keys, 6)
        view_h = attended_match_vectors(Tensor(q_h), Tensor(d_h)).data
        got = model.rows(pair).data
        np.testing.assert_allclose(got, view_c + view_e + view_h, atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(25)
        model = build_model("attn-drmm", 2, rng, hidden=(4,))
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 3, 2)
        report = model_grad_check(model, pair)
        assert report.passed, report

    def test_grad_check_multiview(self):
        rng = np.random.default_rng(26)
        model = build_model("attn-drmm-mv", 2, rng, hidden=(4,))
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 3, 2)
        report = model_grad_check(model, pair)
        assert report.passed, report


class TestPooledCosineDrmm:
    def test_hand_trace_exact_cosines(self):
        rng = np.random.default_rng(30)
        model = build_model("pooled-drmm", 3, rng, k=2, gate_mode="idf")
        zero_encoder(model)
        model.params["dense.w0"].data[:] = [[2.0], [4.0]]
        model.params["dense.b0"].data[:] = [1.0]
        d_emb = np.stack([unit_from_cosine(c) for c in (1.0, 0.5, -0.5)])
        pair = PairInput("q", "d", unit_from_cosine(1.0)[None, :], d_emb,
                         np.array([1.0]), np.arange(1), np.arange(3),
                         [("id", 0)], [("id", 0), ("id", 1), ("id", 2)])
        # Cosine row (1, 0.5, -0.5): max 1, top-2 mean 0.75; single-term
        # gate is 1, so the score is 2*1 + 4*0.75 + 1.
        np.testing.assert_allclose(model.score(pair).data, 6.0, atol=1e-12)

    def test_pool_depth_exceeding_doc_len(self):
        rng = np.random.default_rng(31)
        model = build_model("pooled-drmm", 3, rng, k=5)
        zero_encoder(model)
        pair = make_pair(rng, 2, 2, 3)
        feats = model.rows(pair).data
        sim = sim_np(pair.q_emb, pair.d_emb, 2, 2)
        np.testing.assert_allclose(feats[:, 0], sim.max(axis=1), atol=1e-12)
        np.testing.assert_allclose(feats[:, 1], sim.mean(axis=1), atol=1e-12)

    def test_doc_order_irrelevant_when_context_free(self):
        rng = np.random.default_rng(32)
        model = build_model("pooled-drmm", 3, rng, k=2)
        zero_encoder(model)
        pair = make_pair(rng, 3, 6, 3)
        flipped = PairInput("q", "d", pair.q_emb, pair.d_emb[::-1].copy(),
                            pair.q_idf, pair.q_rows, pair.d_rows,
                            pair.q_keys, list(reversed(pair.d_keys)))
        np.testing.assert_allclose(model.score(pair).data,
                                   model.score(flipped).data, atol=1e-12)

    def test_stronger_match_raises_max_component(self):
        rng = np.random.default_rng(33)
        model = build_model("pooled-drmm", 3, rng, k=2)
        zero_encoder(model)
        base = make_pair(rng, 1, 3, 3)
        before = model.rows(base).data[0, 0]
        better = base.q_emb[0] * 2.0  # cosine exactly 1 to the query term
        extended = PairInput("q", "d", base.q_emb,
                             np.concatenate([base.d_emb, better[None, :]]),
                             base.q_idf, base.q_rows, np.arange(4),
                             base.q_keys, base.d_keys + [("id", 0)])
        after = model.rows(extended).data[0, 0]
        assert before < 1.0 - 1e-9
        np.testing.assert_allclose(after, 1.0, atol=1e-12)

    def test_signature_width_fixed_across_doc_lengths(self):
        rng = np.random.default_rng(34)
        plain = build_model("pooled-drmm", 3, rng, k=5)
        multi = build_model("pooled-drmm-mv", 3, rng, k=5)
        for m in (1, 5, 50):
            pair = make_pair(rng, 3, m, 3)
            assert plain.rows(pair).shape == (3, 2)
            assert multi.rows(pair).shape == (3, 6)

    def test_multiview_exact_columns(self):
        rng = np.random.default_rng(35)
        model = build_model("pooled-drmm-mv", 3, rng, k=2)
        pair = make_pair(rng, 2, 4, 3)
        pair.q_keys[:] = [("id", 100), ("id", 200)]
        pair.d_keys[:] = [("id", 100), ("id", 7), ("id", 8), ("id", 9)]
        exact = model.rows(pair).data[:, 4:6]
        np.testing.assert_allclose(exact[0], [1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(exact[1], [0.0, 0.0], atol=1e-12)

    def test_dense_head_is_single_layer(self):
        rng = np.random.default_rng(36)
        assert build_model("pooled-drmm", 3, rng).head.sizes == [2, 1]
        assert build_model("pooled-drmm-mv", 3, rng).head.sizes == [6, 1]

    def test_pool_depth_validation(self):
        with pytest.raises(ConfigError, match="pool depth"):
            build_model("pooled-drmm", 3, np.random.default_rng(0), k=0)

    def test_grad_check(self):
        rng = np.random.default_rng(37)
        model = build_model("pooled-drmm", 2, rng, k=2)
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 4, 2)
        report = model_grad_check(model, pair)
        assert report.passed, report

    def test_grad_check_multiview(self):
        rng = np.random.default_rng(38)
        model = build_model("pooled-drmm-mv", 2, rng, k=2)
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 4, 2)
        report = model_grad_check(model, pair)
        assert report.passed, report


class TestTrainableEmbeddings:
    def matrix(self, rng, rows, dim):
        return EmbeddingMatrix(rng.standard_normal((rows, dim)), covered=rows - 1)

    def test_gradient_reaches_used_rows_only(self):
        rng = np.random.default_rng(40)
        emb = self.matrix(rng, 8, 2)
        model = build_model("pooled-drmm", 2, rng, k=2, trainable_embeddings=True,
                            emb_matrix=emb)
        pair = make_pair(rng, 2, 3, 2)
        model.score(pair).backward()
        grad = model.params["embeddings"].grad
        used = set(pair.q_rows) | set(pair.d_rows)
        for row in range(8):
            if row in used:
                assert np.any(grad[row] != 0.0)
            else:
                assert np.all(grad[row] == 0.0)

    def test_gate_reads_live_embedding_rows(self):
        rng = np.random.default_rng(41)
        emb = self.matrix(rng, 8, 2)
        model = build_model("pooled-drmm", 2, rng, k=2, trainable_embeddings=True,
                            emb_matrix=emb)
        pair = make_pair(rng, 2, 3, 2)
        before = model.score(pair).data
        model.params["embeddings"].data[pair.q_rows[0]] += 0.5
        assert model.score(pair).data != before

    def test_requires_matrix(self):
        with pytest.raises(ConfigError, match="embedding matrix"):
            build_model("pooled-drmm", 2, np.random.default_rng(0),
                        trainable_embeddings=True)

    def test_grad_check_including_embeddings(self):
        rng = np.random.default_rng(42)
        emb = self.matrix(rng, 6, 2)
        model = build_model("attn-drmm", 2, rng, hidden=(), trainable_embeddings=True,
                            emb_matrix=emb)
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 3, 2)
        report = model_grad_check(model, pair)
        assert report.passed, report


class TestCombinedScorer:
    def test_baseline_is_pure_linear(self):
        model = build_model(BASELINE, 3, np.random.default_rng(0))
        model.params["combine.b"].data[()] = 0.7
        w_extra = model.params["combine.w_extra"]
        w_extra.data[:] = [1.0, -2.0, 0.5, 0.0]
        pair = make_pair(np.random.default_rng(50), 2, 3, 3, extra=True)
        expect = float(w_extra.data @ pair.extra) + 0.7
        np.testing.assert_allclose(model.score(pair).data, expect, atol=1e-12)
        assert model.name == "bm25-extra"

    def test_fresh_combiner_passes_base_score_through(self):
        # Initial weights: model weight 1, extra weights 0, bias 0.
        hyper = dict(buckets=4, hidden=(4,))
        base = build_model("drmm", 3, np.random.default_rng(51), **hyper)
        model = build_model("drmm", 3, np.random.default_rng(51),
                            extra_features=True, **hyper)
        pair = make_pair(np.random.default_rng(51), 2, 5, 3, extra=True)
        np.testing.assert_allclose(model.score(pair).data,
                                   base.score(pair).data, atol=1e-12)
        assert model.name == "drmm+extra"

    def test_combiner_gradients_closed_form(self):
        base = build_model("pooled-drmm", 2, np.random.default_rng(52), k=2)
        model = build_model("pooled-drmm", 2, np.random.default_rng(52), k=2,
                            extra_features=True)
        pair = make_pair(np.random.default_rng(52), 2, 4, 2, extra=True)
        model.score(pair).backward()
        p = model.params
        np.testing.assert_array_equal(p["combine.w_extra"].grad, pair.extra)
        assert p["combine.b"].grad == 1.0
        np.testing.assert_allclose(p["combine.w_model"].grad,
                                   base.score(pair).data, atol=1e-12)

    def test_base_parameters_receive_gradient(self):
        rng = np.random.default_rng(53)
        model = build_model("pooled-drmm", 2, rng, k=2, extra_features=True)
        pair = make_pair(rng, 2, 4, 2, extra=True)
        model.score(pair).backward()
        assert model.params.grad_norm() > 0.0
        assert np.any(model.params["dense.w0"].grad != 0.0)

    def test_shared_parameter_objects(self):
        # One ParameterSet holds every stage's tensors, the combiner's too;
        # the stages read those very tensors.
        rng = np.random.default_rng(54)
        model = build_model("drmm", 3, rng, buckets=4, extra_features=True)
        assert model.params["mlp.w0"] is model.head.weights[0]
        names = model.params.names()
        assert names[-3:] == ["combine.w_model", "combine.w_extra", "combine.b"]
        assert len(set(map(id, model.params.tensors()))) == len(names)

    def test_missing_extra_features_rejected(self):
        model = build_model(BASELINE, 3, np.random.default_rng(0))
        pair = make_pair(np.random.default_rng(55), 2, 3, 3, extra=False)
        with pytest.raises(ConfigError, match="extra features"):
            model.score(pair)

    def test_grad_check(self):
        rng = np.random.default_rng(56)
        model = build_model("pooled-drmm", 2, rng, k=2, extra_features=True)
        jitter_zero_params(model, rng)
        pair = make_pair(rng, 2, 4, 2, extra=True)
        report = model_grad_check(model, pair)
        assert report.passed, report


class TestRegistry:
    def test_names_cover_all_architectures(self):
        assert model_names() == sorted([
            "attn-drmm", "attn-drmm-mv", "bm25-extra", "drmm", "pacrr",
            "pacrr-drmm", "pooled-drmm", "pooled-drmm-mv"])

    def test_builds_every_architecture(self):
        rng = np.random.default_rng(60)
        for name in model_names():
            model = build_model(name, 3, rng)
            assert model.name == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            build_model("bert", 3, np.random.default_rng(0))

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ConfigError, match="hyperparameters"):
            build_model("drmm", 3, np.random.default_rng(0), bogus=1)

    def test_baseline_takes_no_hyperparameters(self):
        with pytest.raises(ConfigError, match="no hyperparameters"):
            build_model(BASELINE, 3, np.random.default_rng(0), k=2)

    def test_histogram_model_rejects_trainable_embeddings(self):
        with pytest.raises(ConfigError, match="hyperparameters"):
            build_model("drmm", 3, np.random.default_rng(0),
                        trainable_embeddings=True)

    def test_extra_feature_wrapper(self):
        rng = np.random.default_rng(61)
        model = build_model("pooled-drmm", 3, rng, extra_features=True, k=2)
        assert isinstance(model, Scorer)
        assert model.name == "pooled-drmm+extra"
        assert "combine.w_model" in model.params

    def test_trainable_embeddings_threaded_through(self):
        rng = np.random.default_rng(62)
        emb = EmbeddingMatrix(rng.standard_normal((5, 3)), covered=4)
        model = build_model("attn-drmm", 3, rng, emb_matrix=emb,
                            trainable_embeddings=True)
        assert "embeddings" in model.params


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("name,hyper", [
        ("drmm", {"buckets": 4, "hidden": (4,)}),
        ("pacrr", {"max_query_terms": 4, "max_doc_terms": 6, "filters": 2}),
        ("attn-drmm", {"hidden": (4,)}),
        ("pooled-drmm-mv", {"k": 2}),
    ])
    def test_scores_survive_save_and_load(self, tmp_path, name, hyper):
        pair = make_pair(np.random.default_rng(70), 3, 5, 3)
        original = build_model(name, 3, np.random.default_rng(71), **hyper)
        jitter_zero_params(original, np.random.default_rng(72))
        want = original.score(pair).data
        path = tmp_path / "model.ckpt"
        save_params(path, original.params)
        fresh = build_model(name, 3, np.random.default_rng(99), **hyper)
        assert fresh.score(pair).data != want
        fresh.params.load_from(load_params(path))
        assert fresh.score(pair).data == want


def _encoder(dim):
    return [(f"encoder.{side}.{name}", shape) for side in ("fwd", "bwd")
            for name, shape in (("w_in", (dim, 4 * dim)),
                                ("w_rec", (4 * dim, dim)), ("bias", (4 * dim,)))]


def _mlp(prefix, sizes):
    return [(f"{prefix}.{kind}{i}", shape)
            for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:]))
            for kind, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,)))]


_CONV = [("conv2.w", (16, 2, 2)), ("conv2.b", (16,)),
         ("conv3.w", (16, 3, 3)), ("conv3.b", (16,))]
_GATE = [("gate.w", (5,))]
# Checkpoint layouts at dim 4 with default hyperparameters: rows, head,
# aggregation, in registration order.
LAYOUTS = {
    "drmm": _mlp("mlp", [30, 30, 30, 1]) + _GATE,
    "pacrr": _CONV + _mlp("dense", [210, 1]),
    "pacrr-drmm": _CONV + _mlp("row_mlp", [7, 1]) + [("agg.w", (30,)),
                                                     ("agg.b", ())],
    "attn-drmm": _encoder(4) + _mlp("mlp", [8, 8, 8, 1]) + _GATE,
    "attn-drmm-mv": _encoder(4) + _mlp("mlp", [8, 8, 8, 1]) + _GATE,
    "pooled-drmm": _encoder(4) + _mlp("dense", [2, 1]) + _GATE,
    "pooled-drmm-mv": _encoder(4) + _mlp("dense", [6, 1]) + _GATE,
}
COMBINE = [("combine.w_model", ()), ("combine.w_extra", (4,)), ("combine.b", ())]


def layout(model):
    return [(name, tensor.data.shape) for name, tensor in model.params.items()]


class TestCheckpointLayout:
    """Parameter names, order and shapes are the checkpoint format."""

    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_architecture_layout(self, name, extra):
        model = build_model(name, 4, np.random.default_rng(0),
                            extra_features=extra)
        assert layout(model) == LAYOUTS[name] + (COMBINE if extra else [])

    def test_baseline_layout(self):
        model = build_model(BASELINE, 4, np.random.default_rng(0))
        assert layout(model) == COMBINE[1:]

    def test_trainable_embeddings_follow_the_encoder(self):
        emb = EmbeddingMatrix(np.zeros((5, 4)), covered=4)
        model = build_model("attn-drmm", 4, np.random.default_rng(0),
                            emb_matrix=emb, trainable_embeddings=True)
        want = LAYOUTS["attn-drmm"]
        assert layout(model) == want[:6] + [("embeddings", (5, 4))] + want[6:]
