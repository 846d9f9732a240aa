"""Output checks that do not rest on the program's own code path.

Each check recomputes a result from the inputs with the benchmark's own
code (BM25, average precision, the oracle ordering, the run-file format) or
tests a property any correct output has.  Every check counts as one
operation; a failed one is counted and reported, never raised.
"""

from __future__ import annotations

import math
import sys

import numpy as np

K1 = 1.2
B = 0.75


class Tally:
    """Operations attempted and failed, with the first few failures shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)
        return ok


def bm25_scores(documents, queries, k1: float = K1, b: float = B):
    """Brute-force BM25 of every query against every document.

    Statistics come from the processed documents' term ids alone:
    df counts documents containing a term, idf = ln(1 + (N - df + 0.5) /
    (df + 0.5)), and the length norm uses the mean document length.
    Returns (doc_ids, {query_id: scores in doc_ids order}).
    """
    doc_ids = [doc.doc_id for doc in documents]
    vocab = 1 + max(max(doc.terms) for doc in documents)
    tf = np.zeros((len(documents), vocab))
    for row, doc in enumerate(documents):
        np.add.at(tf[row], doc.terms, 1.0)
    n = len(documents)
    df = (tf > 0).sum(axis=0)
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
    dl = tf.sum(axis=1)
    norm = k1 * (1.0 - b + b * dl / dl.mean())
    scores = {}
    for query in queries:
        s = np.zeros(n)
        for t in query.terms:
            if 0 <= t < vocab:
                s += idf[t] * tf[:, t] * (k1 + 1.0) / (tf[:, t] + norm)
        scores[query.query_id] = s
    return doc_ids, scores


def check_bm25(tally: Tally, documents, queries, candidates, n: int,
               tol: float = 1e-9) -> None:
    """Every query's top-n must match brute force: same doc ids in the same
    order (descending score, ties by ascending doc_id), scores within tol."""
    doc_ids, scores = bm25_scores(documents, queries)
    ids = np.array(doc_ids)
    for query in queries:
        s = scores[query.query_id]
        order = np.lexsort((ids, -s))[:n]
        got = candidates[query.query_id].entries
        ok = ([c.doc_id for c in got] == [doc_ids[i] for i in order]
              and all(abs(c.score - s[i]) <= tol for c, i in zip(got, order)))
        tally.record(ok, f"BM25 top-{n} of {query.query_id} differs from "
                         f"brute force")


def read_run_file(path) -> dict[str, list[tuple[str, int, float]]]:
    """TREC run lines ``qid Q0 doc_id rank score tag``, in file order."""
    lists: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, q0, doc_id, rank, score, _tag = line.split()
            if q0 != "Q0":
                raise ValueError(f"{path}: bad run line {line!r}")
            lists.setdefault(qid, []).append((doc_id, int(rank), float(score)))
    return lists


def check_run_lists(tally: Tally, run_lists, pool) -> None:
    """Each query's list is exactly its candidate pool, ranked 1..n by
    descending score with ties by ascending doc_id."""
    tally.record(sorted(run_lists) == sorted(pool),
                 "run file queries differ from the reranked pool")
    for qid in sorted(pool):
        rows = run_lists.get(qid, [])
        docs = [d for d, _, _ in rows]
        ok = (sorted(docs) == sorted(pool[qid].doc_ids())
              and [r for _, r, _ in rows] == list(range(1, len(rows) + 1))
              and all((-a[2], a[0]) < (-b[2], b[0])
                      for a, b in zip(rows, rows[1:])))
        tally.record(ok, f"reranked list of {qid} is not its pool in "
                         f"(score desc, doc_id asc) order")


def average_precision(doc_ids, relevant: set, total_relevant: int) -> float:
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(doc_ids, 1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / total_relevant


def run_aps(run_lists, relevant: dict[str, set]) -> dict[str, float]:
    """AP of every query with at least one judged-relevant document."""
    return {qid: average_precision([d for d, _, _ in rows], relevant[qid],
                                   len(relevant[qid]))
            for qid, rows in run_lists.items() if relevant.get(qid)}


def check_map(tally: Tally, run_lists, relevant, reported_map: float,
              tol: float = 1e-12) -> None:
    aps = run_aps(run_lists, relevant)
    ours = sum(aps.values()) / len(aps) if aps else math.nan
    tally.record(abs(ours - reported_map) <= tol,
                 f"MAP {reported_map!r} from evaluate_run, {ours!r} recomputed")


def check_oracle(tally: Tally, run_lists, relevant) -> None:
    """Relevant candidates first is the best order: its AP bounds the model's."""
    for qid, ap in sorted(run_aps(run_lists, relevant).items()):
        docs = [d for d, _, _ in run_lists[qid]]
        oracle = ([d for d in docs if d in relevant[qid]]
                  + [d for d in docs if d not in relevant[qid]])
        oracle_ap = average_precision(oracle, relevant[qid], len(relevant[qid]))
        tally.record(oracle_ap >= ap - 1e-12,
                     f"{qid}: oracle AP {oracle_ap} below model AP {ap}")


def check_rescored(tally: Tally, model, builder, run_lists, rng,
                   samples: int, tol: float = 1e-12) -> None:
    """Scoring a pair alone, with no cached doc state, gives its run score."""
    from relrank.autodiff import no_grad

    pairs = [(qid, doc_id, score) for qid, rows in sorted(run_lists.items())
             for doc_id, _, score in rows]
    picks = rng.choice(len(pairs), size=min(samples, len(pairs)), replace=False)
    with no_grad():
        for i in sorted(picks):
            qid, doc_id, score = pairs[i]
            alone = float(model.score(builder.pair(qid, doc_id)).data)
            tally.record(abs(alone - score) <= tol * max(1.0, abs(score)),
                         f"({qid}, {doc_id}) scores {alone!r} alone, "
                         f"{score!r} in the run")


def check_training(tally: Tally, result, initial, final) -> None:
    """Losses finite, no divergence, and the parameters moved (Adam stepped)."""
    finite = (not result.diverged and bool(result.log)
              and all(math.isfinite(r.train_loss) for r in result.log))
    tally.record(finite, "training losses not finite or training diverged")
    moved = any(not np.array_equal(initial[name].data, tensor.data)
                for name, tensor in final.items())
    tally.record(moved, "no parameter changed: Adam never stepped")
