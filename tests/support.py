"""Shared plumbing for the test suites."""

import json
from pathlib import Path

import numpy as np

from relrank.autodiff import grad_check
from relrank.embeddings import align_embeddings, read_word2vec, write_word2vec_binary
from relrank.models import PairInput, SideInput
from relrank.rerank import PairBuilder
from relrank.synthetic import generate_world, write_world
from relrank.text import ProcessedDocument, ProcessedQuery, Vocabulary, compute_idf
from relrank.training import TrainData
from relrank.trec import Qrels, ranked_list_from_scores


def side(ids, emb, idf=None, rows=None):
    """A side input built by hand: term ``ids`` (CRCs of their keys
    ``("id", t)`` from a table of its own) and the vectors ``emb``
    (embedding rows ``rows``, by default 0 to n - 1)."""
    ids = np.asarray(ids, dtype=np.int64)
    return SideInput(ids, np.arange(len(ids)) if rows is None else rows,
                     np.asarray(emb, dtype=np.float64), idf, None, {})


def reorder(side, order):
    """A side input with its terms taken in ``order``."""
    tokens = None if side.tokens is None else [side.tokens[i] for i in order]
    return SideInput(side.ids[order], side.rows[order], side.emb[order],
                     None if side.idf is None else side.idf[order], tokens,
                     side.id_crcs)


def make_pair(rng, n, m, dim, extra=False):
    """Random frozen-embedding pair with n query and m document terms."""
    q_emb = rng.standard_normal((n, dim))
    d_emb = rng.standard_normal((m, dim))
    q_idf = rng.uniform(0.2, 3.0, n)
    d_ids = rng.integers(0, n + 2, m)
    return PairInput("q", "d", side(np.arange(n), q_emb, q_idf), side(d_ids, d_emb),
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


def make_workspace(root: Path, *, n_docs=120, n_queries=20, n_candidates=10,
                   epochs=2, binary_embeddings=False):
    """Generate a corpus plus a ready-to-run pipeline config under root."""
    world = generate_world(seed=3, n_docs=n_docs, n_queries=n_queries,
                           n_concepts=30, dim=6, n_filler=15, doc_len=12,
                           threshold_scale=1.15)
    paths = write_world(world, root)
    if binary_embeddings:
        tokens, matrix = read_word2vec(paths["embeddings"])
        write_word2vec_binary(root / "embeddings.bin", tokens, matrix)
    qids = sorted(q["id"] for q in world.queries)
    n_train = int(n_queries * 0.6)
    n_dev = int(n_queries * 0.2)
    splits = (("train", qids[:n_train]),
              ("dev", qids[n_train:n_train + n_dev]),
              ("test", qids[n_train + n_dev:]))
    for name, ids in splits:
        (root / f"{name}.split").write_text("".join(i + "\n" for i in ids))
    config = {
        "corpus": "corpus.jsonl",
        "embeddings": "embeddings.bin" if binary_embeddings else "embeddings.txt",
        "embedding_format": "binary" if binary_embeddings else "text",
        "queries": "queries.jsonl", "qrels": "qrels.txt",
        "index": "work/index.rrix", "checkpoints": "work/ckpt",
        "outputs": "work/out",
        "model": "pooled-drmm-mv", "extra_features": True,
        "n_candidates": n_candidates, "seed": 0,
        "train_split": "train.split", "dev_split": "dev.split",
        "eval_split": "test.split",
        "training": {"epochs": epochs, "patience": 2, "learning_rate": 0.01},
    }
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config, indent=2))
    return cfg
