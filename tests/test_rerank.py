"""Tests for pair assembly, candidate re-scoring, and interaction export."""

import zlib

import numpy as np
import pytest

from relrank.autodiff import Tensor, no_grad
from relrank.encoder import BiRnnEncoder, LstmCell
from relrank.errors import ConfigError, DataError
from relrank.embeddings import OOV_ID
from relrank.models import (BASELINE, KeyCodes, build_model, build_pair_input,
                            inputs)
from relrank.models.interactions import (cosine_attention, equality_matrix,
                                         hashed_match_vectors)
from relrank.rerank import PairBuilder, inspect_interactions, rerank_candidates
from relrank.text import ProcessedDocument, ProcessedQuery
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


class TestKeyCodes:
    """A builder codes each exact-match key once; the hashed one-hots fold
    a key into slot crc32(repr(key)) % width."""

    def test_slots_are_the_keys_crc_modulo_the_width(self):
        q = ProcessedQuery("q", [3, OOV_ID, 5], ["c", "zzz", "e"])
        d = ProcessedDocument("d", [5, 3, 9])
        data = world()
        builder = PairBuilder([q], [d], {}, data.builder.emb, data.builder.idf)
        pair = builder.pair("q", "d")
        assert pair.q_keys == [("id", 3), ("oov", "zzz"), ("id", 5)]
        for width in (6, 16, 97):
            qv, dv = hashed_match_vectors(*pair.codes, width)
            for keys, hot in ((pair.q_keys, qv), (pair.d_keys, dv)):
                want = [zlib.crc32(repr(key).encode("utf-8")) % width
                        for key in keys]
                assert hot.argmax(axis=1).tolist() == want
                np.testing.assert_array_equal(hot.sum(axis=1), 1.0)
        np.testing.assert_array_equal(
            equality_matrix(*pair.codes),
            [[0, 1, 0], [0, 0, 0], [1, 0, 0]])

    def test_each_distinct_key_is_hashed_once_per_builder(self, monkeypatch):
        hashed = []
        original = zlib.crc32

        def counted(data, *args):
            hashed.append(data)
            return original(data, *args)

        monkeypatch.setattr(inputs.zlib, "crc32", counted)
        data = world()
        builder = data.builder
        pairs = [builder.pair(qid, did)
                 for qid, ranked in sorted(builder.candidates.items())
                 for did in ranked.doc_ids()]
        assert not hashed  # keys are coded when the exact view reads them
        distinct = set()
        for pair in pairs:
            pair.codes
            distinct |= set(pair.q_keys) | set(pair.d_keys)
        assert len(hashed) == len(distinct)
        assert sorted(hashed) == sorted(repr(k).encode("utf-8") for k in distinct)
        fresh = PairBuilder(builder.queries.values(), builder.documents.values(),
                            builder.candidates, builder.emb, builder.idf)
        qid = sorted(builder.candidates)[0]
        fresh.pair(qid, builder.candidates[qid].doc_ids()[0]).codes
        assert len(hashed) > len(distinct)  # its own table, hashed again

    def test_colliding_keys_keep_distinct_codes(self):
        # Two unseen tokens whose keys share a CRC-32: they still never
        # match, and they fold into the same one-hot slot.
        a, b = ("oov", "olbfmjqn"), ("oov", "fomlonrv")
        crc = zlib.crc32(repr(a).encode("utf-8"))
        assert zlib.crc32(repr(b).encode("utf-8")) == crc
        table = KeyCodes()
        codes = table.codes([a, b, a])
        assert codes.tolist() == [crc << 16, crc << 16 | 1, crc << 16]
        np.testing.assert_array_equal(equality_matrix(codes, codes),
                                      [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        qv, _ = hashed_match_vectors(codes, codes, 50)
        assert (qv.argmax(axis=1) == crc % 50).all()


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

    @pytest.mark.parametrize("name", ["drmm", "attn-drmm-mv", BASELINE])
    def test_an_empty_candidate_list_stays_empty(self, name):
        # A date cutoff can leave a query with no candidate.
        data = world(with_extra=True)
        model = build_model(name, 4, np.random.default_rng(0),
                            extra_features=True)
        qid = sorted(data.dev_candidates)[0]
        candidates = {qid: ranked_list_from_scores(qid, []),
                      **{q: r for q, r in data.dev_candidates.items() if q != qid}}
        runs = {r.query_id: r for r in rerank_candidates(model, data.builder,
                                                         candidates)}
        assert runs[qid].entries == []
        assert all(runs[q].entries for q in candidates if q != qid)

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


def varied_builder(seed):
    """The toy world with queries of 1-4 terms and documents of 1-12, so a
    candidate list's sequences differ in length; shared documents stay."""
    b = world(seed=seed, with_extra=True).builder
    rng = np.random.default_rng(seed)
    vocab = len(b.emb.rows)  # OOV row included
    def terms(most):
        return [int(t) for t in rng.integers(0, vocab, int(rng.integers(1, most + 1)))]
    queries = [ProcessedQuery(q.query_id, ts, [f"t{t}" for t in ts])
               for q in b.queries.values() for ts in [terms(4)]]
    documents = [ProcessedDocument(d.doc_id, terms(12)) for d in b.documents.values()]
    return PairBuilder(queries, documents, b.candidates, b.emb, b.idf,
                       with_extra=True)


def scores_alone(model, builder, ranked):
    with no_grad():
        return {c.doc_id: float(model.score(builder.pair(ranked.query_id,
                                                         c.doc_id)).data)
                for c in ranked.entries}


class TestBatchedRerank:
    """Each list's query and uncached documents are encoded in one pass."""

    @pytest.mark.parametrize("name,hyper", [
        ("pooled-drmm-mv", {"k": 2}),
        ("pooled-drmm", {"k": 3, "trainable_embeddings": True}),
        ("attn-drmm", {}),
        ("attn-drmm-mv", {"trainable_embeddings": True}),
    ])
    def test_every_score_is_bitwise_the_pair_alone(self, name, hyper):
        builder = varied_builder(7)
        model = build_model(name, 4, np.random.default_rng(8),
                            extra_features=True, emb_matrix=builder.emb, **hyper)
        for ranked in rerank_candidates(model, builder):
            alone = scores_alone(model, builder, ranked)
            assert {c.doc_id: c.score for c in ranked.entries} == alone

    def test_shuffled_list_gives_the_same_score_bits(self):
        builder = varied_builder(9)
        model = build_model("attn-drmm-mv", 4, np.random.default_rng(10),
                            extra_features=True)
        rng = np.random.default_rng(11)
        shuffled = {
            qid: ranked_list_from_scores(qid, [(d, float(s)) for d, s in zip(
                ranked.doc_ids(), rng.permutation(len(ranked.entries)))])
            for qid, ranked in builder.candidates.items()}
        assert any(shuffled[q].doc_ids() != r.doc_ids()
                   for q, r in builder.candidates.items())
        runs = {r.query_id: r for r in rerank_candidates(model, builder)}
        for ranked in rerank_candidates(model, builder, shuffled):
            assert ranked == runs[ranked.query_id]

    def test_query_once_per_list_and_documents_once_per_call(self, monkeypatch):
        batches = []
        original = BiRnnEncoder.encode_batch

        def recorded(self, xs, dropout_rng=None):
            batches.append([x.data.copy() for x in xs])
            return original(self, xs, dropout_rng)

        def refused(self, *args, **kwargs):
            raise AssertionError("a reranked pair ran the encoder on its own")

        monkeypatch.setattr(BiRnnEncoder, "encode_batch", recorded)
        monkeypatch.setattr(BiRnnEncoder, "encode", refused)
        builder = varied_builder(12)
        model = build_model("pooled-drmm-mv", 4, np.random.default_rng(13),
                            extra_features=True)
        lists = builder.candidates
        rerank_candidates(model, builder)
        assert len(batches) == len(lists)
        seen = set()
        for batch, qid in zip(batches, sorted(lists)):
            np.testing.assert_array_equal(
                batch[0], builder.emb.rows[builder.emb.resolve(
                    builder.queries[qid].terms)])
            new = [d for d in lists[qid].doc_ids() if d not in seen]
            seen.update(new)
            assert len(batch) == 1 + len(new)
            for x, doc_id in zip(batch[1:], new):
                np.testing.assert_array_equal(x, builder.pair(qid, doc_id).d_emb)
        assert len(seen) < sum(len(r.entries) for r in lists.values())

    def test_one_list_costs_its_longest_sequence_in_steps(self, monkeypatch):
        calls = []
        original = LstmCell.step

        def counted(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(LstmCell, "step", counted)
        builder = varied_builder(14)
        model = build_model("attn-drmm", 4, np.random.default_rng(15))
        qid = sorted(builder.candidates)[0]
        ranked = builder.candidates[qid]
        rerank_candidates(model, builder, {qid: ranked})
        lengths = [len(builder.queries[qid].terms)] + [
            len(builder.documents[d].terms) for d in ranked.doc_ids()]
        assert sum(lengths) > max(lengths)
        for cell in (model.encoder.forward_cell, model.encoder.backward_cell):
            assert calls.count(cell) == max(lengths)


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
