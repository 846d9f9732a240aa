"""Tests for pair assembly, candidate re-scoring, and interaction export."""

import numpy as np
import pytest

from relrank.autodiff import Tensor, no_grad
from relrank.errors import ConfigError, DataError
from relrank.models import build_model, build_pair_input
from relrank.models.interactions import cosine_attention
from relrank.rerank import inspect_interactions, rerank_candidates
from relrank.trec import ranked_list_from_scores
from support import toy_world


def world(seed=0, **kw):
    return toy_world(np.random.default_rng(seed), **kw)


class TestPairBuilder:
    def test_pairs_are_cached(self):
        data = world()
        builder = data.builder
        qid = next(iter(builder.candidates))
        did = builder.candidates[qid].doc_ids()[0]
        assert builder.pair(qid, did) is builder.pair(qid, did)

    def test_extra_features_attached_on_request(self):
        data = world(with_extra=True)
        builder = data.builder
        qid = next(iter(builder.candidates))
        did = builder.candidates[qid].doc_ids()[0]
        pair = builder.pair(qid, did)
        assert pair.extra is not None and pair.extra.shape == (4,)

    def test_extra_features_off_by_default(self):
        data = world()
        qid = next(iter(data.builder.candidates))
        did = data.builder.candidates[qid].doc_ids()[0]
        assert data.builder.pair(qid, did).extra is None

    def test_unknown_ids_rejected(self):
        builder = world().builder
        qid = next(iter(builder.candidates))
        with pytest.raises(DataError, match="unknown query"):
            builder.pair("nope", "rel0-0")
        with pytest.raises(DataError, match="unknown document"):
            builder.pair(qid, "nope")

    def test_extra_needs_candidate_list(self):
        data = world(with_extra=True)
        builder = data.builder
        builder.queries["stray"] = builder.queries["q0"]
        with pytest.raises(DataError, match="candidate list"):
            builder.pair("stray", "neg0")


class TestRerankCandidates:
    def test_constant_scores_fall_back_to_doc_id_order(self):
        data = world(with_extra=True)
        model = build_model("bm25-extra", 4, np.random.default_rng(0))
        runs = rerank_candidates(model, data.builder)
        for ranked in runs:
            assert ranked.doc_ids() == sorted(ranked.doc_ids())
            assert all(c.score == 0.0 for c in ranked.entries)

    def test_matches_manual_scoring(self):
        data = world(seed=1)
        model = build_model("pooled-drmm", 4, np.random.default_rng(2), k=2)
        runs = rerank_candidates(model, data.builder)
        by_query = {r.query_id: r for r in runs}
        with no_grad():
            for qid, ranked in data.builder.candidates.items():
                scored = [(did, float(model.score(data.builder.pair(qid, did)).data))
                          for did in ranked.doc_ids()]
                want = ranked_list_from_scores(qid, scored)
                got = by_query[qid]
                assert got.doc_ids() == want.doc_ids()
                assert [c.score for c in got.entries] == \
                    [c.score for c in want.entries]

    def test_doc_state_cache_changes_nothing(self):
        # The cached path must agree bitwise with re-encoding per pair.
        data = world(seed=2)
        model = build_model("pooled-drmm-mv", 4, np.random.default_rng(3), k=2)
        runs = rerank_candidates(model, data.builder)
        with no_grad():
            for ranked in runs:
                for cand in ranked.entries:
                    fresh = model.score(data.builder.pair(ranked.query_id,
                                                          cand.doc_id))
                    assert float(fresh.data) == cand.score

    def test_query_subset_selection(self):
        data = world(seed=3)
        model = build_model("pooled-drmm", 4, np.random.default_rng(4), k=2)
        subset = {"q1": data.builder.candidates["q1"]}
        runs = rerank_candidates(model, data.builder, subset)
        assert [r.query_id for r in runs] == ["q1"]

    def test_output_lists_validate(self):
        data = world(seed=4)
        model = build_model("pooled-drmm", 4, np.random.default_rng(5), k=2)
        for ranked in rerank_candidates(model, data.builder):
            ranked.validate()


class TestInspectInteractions:
    def test_views_match_module_oracles(self):
        data = world(seed=5)
        model = build_model("pooled-drmm", 4, np.random.default_rng(6), k=2)
        qid = "q0"
        did = data.builder.candidates[qid].doc_ids()[0]
        dump = inspect_interactions(model, data.builder, qid, did)
        pair = build_pair_input(data.builder.query(qid),
                                data.builder.document(did),
                                data.builder.emb, data.builder.idf)
        with no_grad():
            q_ctx = model.encoder.encode(Tensor(pair.q_emb))
            d_ctx = model.encoder.encode(Tensor(pair.d_emb))
            want_ctx = cosine_attention(q_ctx, d_ctx).data
            want_emb = cosine_attention(Tensor(pair.q_emb),
                                        Tensor(pair.d_emb)).data
        np.testing.assert_allclose(dump["views"]["context"], want_ctx,
                                   atol=1e-12)
        np.testing.assert_allclose(dump["views"]["embedding"], want_emb,
                                   atol=1e-12)

    def test_exact_view_is_binary_and_zero_without_overlap(self):
        data = world(seed=6)
        model = build_model("pooled-drmm", 4, np.random.default_rng(7), k=2)
        rel = inspect_interactions(model, data.builder, "q0", "rel0-0")
        flat = [v for row in rel["views"]["exact"] for v in row]
        assert set(flat) <= {0.0, 1.0}
        assert 1.0 in flat  # the relevant doc repeats both query terms
        neg = inspect_interactions(model, data.builder, "q0", "neg0")
        assert all(v == 0.0 for row in neg["views"]["exact"] for v in row)

    def test_encoding_widths(self):
        data = world(seed=7)
        qid, did = "q1", "rel1-0"
        plain = build_model("pooled-drmm", 4, np.random.default_rng(8), k=2)
        multi = build_model("pooled-drmm-mv", 4, np.random.default_rng(8), k=2)
        assert np.asarray(inspect_interactions(
            plain, data.builder, qid, did)["encodings"]).shape[1] == 2
        assert np.asarray(inspect_interactions(
            multi, data.builder, qid, did)["encodings"]).shape[1] == 6

    def test_document_budget_truncates_columns(self):
        data = world(seed=8)
        model = build_model("pooled-drmm", 4, np.random.default_rng(9), k=2)
        dump = inspect_interactions(model, data.builder, "q0", "rel0-0",
                                    doc_budget=2)
        assert dump["doc_terms_shown"] == 2
        assert len(dump["views"]["context"][0]) == 2
        assert len(dump["views"]["exact"][0]) == 2

    def test_wrapped_combiner_unwraps_to_base(self):
        data = world(seed=9, with_extra=True)
        model = build_model("pooled-drmm", 4, np.random.default_rng(10),
                            extra_features=True, k=2)
        dump = inspect_interactions(model, data.builder, "q0", "rel0-0")
        assert set(dump["views"]) == {"context", "embedding", "exact"}

    def test_histogram_model_has_no_views(self):
        data = world(seed=10)
        model = build_model("drmm", 4, np.random.default_rng(11), buckets=4)
        with pytest.raises(ConfigError, match="inspect"):
            inspect_interactions(model, data.builder, "q0", "rel0-0")

    def test_budget_validation(self):
        data = world(seed=11)
        model = build_model("pooled-drmm", 4, np.random.default_rng(12), k=2)
        with pytest.raises(ConfigError, match="budget"):
            inspect_interactions(model, data.builder, "q0", "rel0-0",
                                 doc_budget=0)
