"""Oracles for ``Scorer.score_batch``, the one scoring path: a pair scores
the same bits alone as inside any batch, padding never wins a max or takes
attention or gate mass, and a batch's gradients are the sum of its pairs'."""

from dataclasses import replace

import numpy as np
import pytest

from relrank.autodiff import Tensor
from relrank.embeddings import EmbeddingMatrix
from relrank.models import BASELINE, PairBatch, PairInput, build_model, model_names, scorers
from relrank.models.scorers import length_buckets
from relrank.models.interactions import attended_match_vectors, max_kmax_pool
from support import jitter_zero_params

DIM = 3
ENCODER_MODELS = ("attn-drmm", "attn-drmm-mv", "pooled-drmm", "pooled-drmm-mv")
# Query and document lengths in one batch: 1-term sides, documents on both
# sides of numpy's 128-term pairwise-sum block, and a query and a document
# past the convolutional models' cuts (SMALL_CONV).
Q_LENGTHS = (1, 3, 5, 8)
D_LENGTHS = (1, 2, 16, 127, 129, 200)
SMALL_CONV = dict(max_query_terms=6, max_doc_terms=140, filters=3)


def variants():
    """(model name, extra features, trainable embeddings) for every model."""
    out = [(BASELINE, True, False)]
    for name in model_names():
        if name == BASELINE:
            continue
        for extra in (False, True):
            out.append((name, extra, False))
            if name in ENCODER_MODELS:
                out.append((name, extra, True))
    return out


def build(name, extra, trainable, matrix, seed=0):
    rng = np.random.default_rng(seed)
    hyper = SMALL_CONV if name.startswith("pacrr") else {}
    if trainable:
        hyper = dict(hyper, trainable_embeddings=True)
    model = build_model(name, DIM, rng, extra_features=extra,
                        emb_matrix=matrix, **hyper)
    jitter_zero_params(model, rng, scale=0.5)
    return model


def vocab_pair(rng, matrix, query_id, doc_id, q_rows, d_rows):
    """A pair whose vectors are the matrix rows it names, keyed by row."""
    return PairInput(query_id, doc_id, matrix.rows[q_rows], matrix.rows[d_rows],
                     rng.uniform(0.2, 3.0, len(q_rows)), q_rows, d_rows,
                     [("id", int(r)) for r in q_rows],
                     [("id", int(r)) for r in d_rows],
                     extra=rng.standard_normal(4))


def world(seed=1, vocab=40):
    """An embedding matrix and one pair per (query, document) length, plus
    a pair whose every raw cosine is negative."""
    rng = np.random.default_rng(seed)
    matrix = EmbeddingMatrix(rng.standard_normal((vocab + 2, DIM)), covered=vocab)
    queries = [(f"q{n}", rng.integers(0, vocab, n)) for n in Q_LENGTHS]
    docs = [(f"d{m}", rng.integers(0, vocab, m)) for m in D_LENGTHS]
    pairs = [vocab_pair(rng, matrix, qid, did, q, d)
             for qid, q in queries for did, d in docs]
    # Rows vocab and vocab + 1 point in opposite directions.
    matrix.rows[vocab + 1] = -0.5 * matrix.rows[vocab]
    pairs.append(vocab_pair(rng, matrix, "q-neg", "d-neg",
                            np.array([vocab]), np.full(3, vocab + 1)))
    return matrix, pairs


@pytest.mark.parametrize("name,extra,trainable", variants())
def test_a_pair_scores_the_same_bits_alone_and_in_any_batch(name, extra,
                                                           trainable):
    matrix, pairs = world()
    model = build(name, extra, trainable, matrix)
    alone = [float(model.score(pair).data) for pair in pairs]
    assert len(set(alone)) > 1
    rng = np.random.default_rng(2)
    for _ in range(2):
        order = rng.permutation(len(pairs))
        batch = model.score_batch([pairs[i] for i in order]).data
        assert batch.shape == (len(pairs),)
        for got, i in zip(batch, order):
            assert got == alone[i], (pairs[i].query_id, pairs[i].doc_id)
    # A rerank list: one query with every document, longest first.
    same_query = [p for p in pairs if p.query_id == "q3"][::-1]
    batch = model.score_batch(same_query).data
    for got, pair in zip(batch, same_query):
        assert got == alone[pairs.index(pair)]


@pytest.mark.parametrize("name,extra,trainable", variants())
def test_batch_gradients_are_the_sum_of_per_pair_gradients(name, extra,
                                                           trainable):
    matrix, pairs = world(seed=3)
    pairs = [p for p in pairs if len(p.d_emb) <= 16]
    model = build(name, extra, trainable, matrix, seed=4)
    weights = np.random.default_rng(5).standard_normal(len(pairs))
    model.params.zero_grad()
    (model.score_batch(pairs) * weights).sum().backward()
    batched = {n: t.grad.copy() for n, t in model.params.items()}
    model.params.zero_grad()
    for pair, w in zip(pairs, weights):
        (model.score(pair) * w).backward()  # leaf gradients add up
    assert any(np.abs(g).max() > 0.0 for g in batched.values())
    for n, t in model.params.items():
        np.testing.assert_allclose(batched[n], t.grad, rtol=0, atol=1e-12,
                                   err_msg=n)


@pytest.mark.parametrize("name", ["pooled-drmm-mv", "pacrr", "pacrr-drmm"])
def test_one_padded_pass_makes_a_fixed_number_of_tensors(monkeypatch, name):
    # Per-pair scoring made dozens of tensors per pair; the padded pass
    # makes as many for one pair as for a batch whose documents share one
    # length bucket.
    counts = []
    original = Tensor.__init__

    def counted(self, *args, **kwargs):
        counts[-1] += 1
        original(self, *args, **kwargs)

    matrix, pairs = world(seed=6)
    pairs = [p for p in pairs if len(p.d_emb) >= 127]
    model = build(name, True, False, matrix)
    contexts = model.contexts(pairs)
    monkeypatch.setattr(Tensor, "__init__", counted)
    for size in (1, 4, len(pairs)):
        counts.append(0)
        model.score_batch(pairs[:size], contexts[:size])
    assert counts[0] == counts[1] == counts[2]


def test_length_buckets_keep_each_within_a_factor_two():
    got = length_buckets([200, 1, 129, 2, 3, 16, 127, 5])
    assert [b.tolist() for b in got] == [[1, 3], [4, 7], [5], [6, 2, 0]]
    assert length_buckets([]) == []


def test_a_batch_makes_one_padded_pass_per_length_bucket(monkeypatch):
    # The views pad every document to the pass's longest.
    passes = []

    class Recorded(PairBatch):
        def __init__(self, pairs):
            super().__init__(pairs)
            passes.append(sorted(self.d_mask.sum(axis=1)))

    matrix, pairs = world(seed=11)
    model = build("pooled-drmm-mv", False, False, matrix)
    monkeypatch.setattr(scorers, "PairBatch", Recorded)
    model.score_batch(pairs)
    lengths = sorted(len(p.d_emb) for p in pairs)
    assert sorted(set(lengths)) == [1, 2, 3, 16, 127, 129, 200]
    assert passes == [lengths[:8], lengths[8:9], lengths[9:13], lengths[13:]]


class TestPaddingTakesNothing:
    def test_padding_never_wins_a_max_or_kmax(self):
        # Every real cosine negative, the padding 0: masked, it is never
        # picked, and a row with fewer real cells than k averages them.
        rng = np.random.default_rng(7)
        real = -rng.uniform(0.1, 1.0, (2, 3, 4))
        padded = np.zeros((2, 3, 9))
        padded[..., :4] = real
        padded[1, :, 2:4] = 0.0  # the second pair has 2 terms
        real_terms = np.array([4, 2])
        mask = (np.arange(9) < real_terms[:, None])[:, None, :]
        got = max_kmax_pool(Tensor(padded), 3, mask).data
        for b, n in enumerate(real_terms):
            want = max_kmax_pool(Tensor(padded[b, :, :n]), 3).data
            np.testing.assert_array_equal(got[b], want)
        assert np.all(got < 0.0)

    def test_padding_takes_no_attention_mass(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((2, 4))
        d = rng.standard_normal((5, 4))
        d_pad = np.zeros((1, 12, 4))
        d_pad[0, :5] = d
        d_pad[0, 5:] = 100.0 * q[0]  # padding that would win every logit
        mask = np.arange(12)[None, :] < 5
        got = attended_match_vectors(Tensor(q[None]), Tensor(d_pad), mask).data[0]
        want = attended_match_vectors(Tensor(q), Tensor(d)).data
        np.testing.assert_array_equal(got, want)

    def test_one_wide_attention_rows_are_refused(self):
        # numpy adds 1-wide rows in blocks that trailing padding regroups.
        with pytest.raises(ValueError, match="at least 2 wide"):
            attended_match_vectors(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))

    def test_padded_query_terms_take_no_gate_mass(self):
        matrix, pairs = world(seed=9)
        model = build("drmm", False, False, matrix)
        short = next(p for p in pairs if len(p.q_emb) == 1)
        long_ = next(p for p in pairs if len(p.q_emb) == 5)
        # The short query's gate inputs, padded to 5 terms, would give the
        # padding most of the mass if it were not masked.
        model.params["gate.w"].data[:] = -10.0
        scores = model.score_batch([short, long_]).data
        assert scores[0] == model.score(short).data


def test_score_of_one_pair_is_its_batch_of_one():
    matrix, pairs = world(seed=10)
    model = build("attn-drmm-mv", True, False, matrix)
    pair = pairs[4]
    score = model.score(pair)
    assert score.shape == ()
    assert score.data == model.score_batch([pair]).data[0]
    moved = replace(pair, d_keys=pair.d_keys[::-1])
    np.testing.assert_array_equal(moved.codes[1], pair.codes[1][::-1])
