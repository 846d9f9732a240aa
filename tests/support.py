"""Shared plumbing for the model-level test suites."""

import numpy as np

from relrank.autodiff import grad_check
from relrank.embeddings import align_embeddings
from relrank.models import PairInput
from relrank.rerank import PairBuilder
from relrank.text import ProcessedDocument, ProcessedQuery, Vocabulary, compute_idf
from relrank.training import TrainData
from relrank.trec import Qrels, ranked_list_from_scores


def make_pair(rng, n, m, dim, extra=False):
    """Random frozen-embedding pair with n query and m document terms."""
    q_emb = rng.standard_normal((n, dim))
    d_emb = rng.standard_normal((m, dim))
    q_idf = rng.uniform(0.2, 3.0, n)
    q_keys = [("id", i) for i in range(n)]
    d_keys = [("id", int(t)) for t in rng.integers(0, n + 2, m)]
    return PairInput("q", "d", q_emb, d_emb, q_idf,
                     np.arange(n), np.arange(m), q_keys, d_keys,
                     extra=rng.standard_normal(4) if extra else None)


def jitter_zero_params(model, rng, scale=0.1):
    """Move all-zero parameters off relu/max boundaries before FD checks."""
    for _, tensor in model.params.items():
        if np.all(tensor.data == 0.0):
            tensor.data = rng.normal(0.0, scale, tensor.data.shape)


def model_grad_check(model, pair, names=None, h=1e-4, tol=1e-4):
    """Finite-difference check of d(score)/d(param) for the named parameters,
    perturbing the model's own parameter tensors in place."""
    chosen = list(names if names is not None else model.params.names())
    return grad_check(lambda *_: model.score(pair),
                      [model.params[name] for name in chosen], h=h, tol=tol)


def zero_encoder(model):
    """Freeze the recurrent cells at zero so c(t) collapses to [e(t); e(t)]."""
    for cell in (model.encoder.forward_cell, model.encoder.backward_cell):
        cell.w_in.data[:] = 0.0
        cell.w_rec.data[:] = 0.0
        cell.bias.data[:] = 0.0


def toy_world(rng, n_train=4, n_dev=2, dim=4, with_extra=False):
    """A separable mini-task: each query has two private terms, its relevant
    candidates contain both, and the non-relevant candidates contain only
    background terms."""
    n_queries = n_train + n_dev
    background = 8
    tokens = [f"t{i}" for i in range(2 * n_queries + background)]
    vocab = Vocabulary(tokens)
    matrix = rng.standard_normal((len(tokens), dim))
    emb = align_embeddings(tokens, matrix, vocab)

    def bg():
        return int(2 * n_queries + rng.integers(background))

    documents = {}
    queries = {}
    qrels = Qrels()
    candidates = {}
    shared_neg = []
    for i in range(6):
        doc_id = f"neg{i}"
        documents[doc_id] = ProcessedDocument(doc_id, [bg() for _ in range(4)])
        shared_neg.append(doc_id)
    for qi in range(n_queries):
        qid = f"q{qi}"
        terms = [2 * qi, 2 * qi + 1]
        queries[qid] = ProcessedQuery(qid, terms, [tokens[t] for t in terms])
        rel_ids = []
        for j in range(2):
            doc_id = f"rel{qi}-{j}"
            documents[doc_id] = ProcessedDocument(
                doc_id, [terms[0], bg(), terms[1], bg()])
            rel_ids.append(doc_id)
        pool = rel_ids + list(rng.choice(shared_neg, 4, replace=False))
        ranked = ranked_list_from_scores(
            qid, [(d, float(len(pool) - k)) for k, d in enumerate(pool)])
        candidates[qid] = ranked
        for doc_id in pool:
            qrels.add(qid, doc_id, 1 if doc_id in rel_ids else 0)
    idf = compute_idf(documents.values(), len(tokens))
    builder = PairBuilder(list(queries.values()), list(documents.values()),
                          candidates, emb, idf, with_extra=with_extra)
    train_ids = [f"q{i}" for i in range(n_train)]
    dev_ids = [f"q{i}" for i in range(n_train, n_queries)]
    data = TrainData(
        builder=builder,
        train_qrels=qrels,
        train_candidates={q: candidates[q] for q in train_ids},
        dev_qrels=qrels,
        dev_candidates={q: candidates[q] for q in dev_ids},
    )
    return data
