"""Acceptance checks for the whole toolkit.

Each test prints one ``acceptance N: PASS/FAIL`` verdict line directly to
the terminal (bypassing capture) so a full run leaves an auditable summary.
The checks cover gradient correctness, oracle agreement, anchored unit
values, invariants, the synthetic end-to-end experiment, the significance
machinery, pipeline determinism, and real-data-format readiness.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from support import jitter_zero_params, make_pair, model_grad_check, zero_encoder

from relrank.autodiff import Tensor
from relrank.cli import main as cli_main
from relrank.embeddings import load_embeddings, read_word2vec, write_word2vec_binary
from relrank.evaluation import (average_precision, evaluate_run, ndcg_at_k,
                                precision_at_k, stratified_shuffle_test)
from relrank.index import (B_DEFAULT, K1_DEFAULT, build_index, oracle_rerank,
                           retrieve_topn)
from relrank.models import build_model
from relrank.models.features import ExtraFeatureBuilder
from relrank.models.interactions import (attended_match_vectors,
                                         cosine_attention, drmm_histogram,
                                         equality_matrix, histogram_edges,
                                         max_kmax_pool, term_gate)
from relrank.rerank import PairBuilder, rerank_candidates
from relrank.synthetic import generate_world, write_world
from relrank.text import (ProcessedDocument, ProcessedQuery, TextPipeline,
                          build_vocabulary, compute_idf, process_corpus,
                          process_queries)
from relrank.training import TrainConfig, TrainData, train
from relrank.trec import Qrels, ranked_list_from_scores, read_qrels, read_run

# The last entry exercises the extra-feature combiner both alone (the
# linear baseline) and wrapped around a neural base.
GRAD_FAMILIES = ("pacrr", "pacrr-drmm", "attn-drmm", "attn-drmm-mv",
                 "pooled-drmm", "pooled-drmm-mv", "bm25-extra",
                 "pooled-drmm+extra")

SMALL_CONV = dict(max_query_terms=4, max_doc_terms=8, max_kernel=3,
                  filters=2, k=2)


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {number}: {detail}"


def build_family(name: str, dim: int, rng):
    base, _, suffix = name.partition("+")
    hyper = SMALL_CONV if base.startswith("pacrr") else {}
    return build_model(base, dim, rng, extra_features=bool(suffix), **hyper)


def subset_qrels(qrels: Qrels, query_ids) -> Qrels:
    keep = set(query_ids)
    out = Qrels()
    for qid, did, rel in qrels.items():
        if qid in keep:
            out.add(qid, did, rel)
    return out


def fd_oracle_stable(model, pair, flagged, h=1e-4) -> bool:
    """Whether halving the step leaves every flagged FD estimate in place.

    Central differences are only a trustworthy oracle where the score is
    smooth across the whole probe window.  A relu kink inside the window
    leaves an O(1) gap between the h and h/2 estimates that no gradient,
    right or wrong, could match; such instances must be redrawn.  A wrong
    analytic gradient still fails against the stable instances.  Each probe
    perturbs the model's own parameter tensor, which is restored exactly.
    """
    for name in flagged:
        tensor = model.params[name]
        base = tensor.data
        tensor.data = base.copy()
        probe, start = tensor.data.reshape(-1), base.reshape(-1)
        try:
            for j in range(base.size):
                estimates = []
                for step in (h, h / 2.0):
                    vals = []
                    for sign in (1.0, -1.0):
                        probe[j] = start[j] + sign * step
                        vals.append(float(model.score(pair).data))
                    estimates.append((vals[0] - vals[1]) / (2.0 * step))
                probe[j] = start[j]
                a, b = estimates
                if abs(a - b) / max(1.0, abs(a), abs(b)) > 1e-6:
                    return False
        finally:
            tensor.data = base
    return True


class TestGradientSuite:
    def test_every_model_family_matches_finite_differences(self, capsys):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        worst = 0.0
        total_redraws = 0
        for name in GRAD_FAMILIES:
            checked = 0
            redraws = 0
            while checked < 20:
                n = int(rng.integers(1, 4))
                m = int(rng.integers(2, 7))
                pair = make_pair(rng, n, m, dim=3, extra=True)
                model = build_family(name, 3, rng)
                jitter_zero_params(model, rng)
                report = model_grad_check(model, pair)
                if report.max_rel_error >= 1e-4 and redraws < 3:
                    flagged = [p for p, err in zip(model.params.names(),
                                                   report.per_input)
                               if err >= 1e-4]
                    if not fd_oracle_stable(model, pair, flagged):
                        redraws += 1
                        continue
                checked += 1
                worst = max(worst, report.max_rel_error)
            total_redraws += redraws
        elapsed = time.monotonic() - start
        ok = worst < 1e-4 and elapsed < 300.0
        verdict(capsys, 1, ok,
                f"gradients of {len(GRAD_FAMILIES)} model families x 20 "
                f"instances, max rel err {worst:.2e} (< 1e-4), "
                f"{total_redraws} kink-straddling instances redrawn, "
                f"{elapsed:.0f}s (< 300s)")


class TestOracleEquivalences:
    """Independent brute-force recomputations on >= 100 random instances."""

    def test_core_computations_match_brute_force(self, capsys):
        rng = np.random.default_rng(77)
        failures = []

        # Histogram counting: exact agreement.
        for _ in range(120):
            dim = int(rng.integers(2, 6))
            buckets = int(rng.integers(2, 9))
            q = rng.standard_normal(dim)
            d = rng.standard_normal((int(rng.integers(1, 9)), dim))
            edges = histogram_edges(buckets)
            got = drmm_histogram(q, d, edges)
            expected = np.zeros(buckets)
            for row in d:
                denom = np.linalg.norm(q) * np.linalg.norm(row)
                c = float(q @ row / denom) if denom else 0.0
                # Largest bucket whose lower edge is reached; boundary values
                # land in the upper bucket, out-of-range values are clamped.
                slot = 0
                for i in range(buckets):
                    if c >= edges[i]:
                        slot = i
                expected[slot] += 1.0
            if not np.array_equal(got, expected):
                failures.append("histogram")

        # Cosine matrix and attention weights: <= 1e-10 absolute.
        for _ in range(120):
            n, m, dim = (int(rng.integers(1, 5)), int(rng.integers(1, 7)),
                         int(rng.integers(2, 5)))
            q = rng.standard_normal((n, dim))
            d = rng.standard_normal((m, dim))
            got = cosine_attention(Tensor(q), Tensor(d)).data
            logits = q @ d.T
            attn = Tensor(logits).softmax(axis=1).data
            for i in range(n):
                denom_row = sum(np.exp(logits[i, jj]) for jj in range(m))
                for j in range(m):
                    denom = np.linalg.norm(q[i]) * np.linalg.norm(d[j])
                    cexp = float(q[i] @ d[j] / denom) if denom else 0.0
                    if abs(got[i, j] - cexp) > 1e-10:
                        failures.append("cosine")
                    if abs(attn[i, j] - np.exp(logits[i, j]) / denom_row) > 1e-10:
                        failures.append("attention")

        # Max/k-max pooling: <= 1e-10.
        for _ in range(150):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            k = int(rng.integers(1, 6))
            rows = rng.standard_normal((n, m))
            got = max_kmax_pool(Tensor(rows), k).data
            kk = min(k, m)
            for i in range(n):
                top = sorted(rows[i], reverse=True)
                if (abs(got[i, 0] - max(rows[i])) > 1e-10
                        or abs(got[i, 1] - sum(top[:kk]) / kk) > 1e-10):
                    failures.append("pooling")

        # BM25 top-N against a from-scratch scoring loop: order exact,
        # scores <= 1e-10.
        for _ in range(110):
            n_docs = int(rng.integers(4, 12))
            vocab_size = int(rng.integers(4, 9))
            tokens = [f"t{i}" for i in range(vocab_size)]
            token_docs = [
                [tokens[int(t)] for t in
                 rng.integers(0, vocab_size, int(rng.integers(2, 10)))]
                for _ in range(n_docs)]
            vocab = build_vocabulary(token_docs)
            docs = [ProcessedDocument(f"d{i:02d}",
                                      [vocab.id_of(t) for t in doc])
                    for i, doc in enumerate(token_docs)]
            idf = compute_idf(docs, len(vocab))
            index = build_index(docs, vocab, idf)
            q_tokens = list(rng.choice(tokens, size=int(rng.integers(1, 4)),
                                       replace=False))
            query = ProcessedQuery("q", [vocab.id_of(t) for t in q_tokens],
                                   q_tokens)
            avg = sum(len(d) for d in token_docs) / n_docs
            scores = {}
            for i, doc in enumerate(token_docs):
                s = 0.0
                for t in q_tokens:
                    tf = doc.count(t)
                    if tf == 0:
                        continue
                    df = sum(1 for other in token_docs if t in other)
                    idf_t = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
                    s += idf_t * tf * (K1_DEFAULT + 1) / (
                        tf + K1_DEFAULT * (1 - B_DEFAULT
                                           + B_DEFAULT * len(doc) / avg))
                scores[f"d{i:02d}"] = s
            expected = sorted(scores, key=lambda d: (-scores[d], d))[:5]
            got_list = retrieve_topn(query, index, 5)
            if [c.doc_id for c in got_list.entries] != expected:
                failures.append("bm25-order")
            for cand in got_list.entries:
                if abs(cand.score - scores[cand.doc_id]) > 1e-10:
                    failures.append("bm25-score")

        # Ranking metrics: <= 1e-10 against reference formulas.
        for _ in range(150):
            n = int(rng.integers(1, 40))
            doc_ids = [f"d{i}" for i in range(n)]
            rel = {d for d in doc_ids if rng.random() < 0.3}
            extra_rel = int(rng.integers(0, 3))
            total = max(len(rel) + extra_rel, 1)
            hits, ap_sum = 0, 0.0
            for r, d in enumerate(doc_ids, 1):
                if d in rel:
                    hits += 1
                    ap_sum += hits / r
            if abs(average_precision(doc_ids, rel, total) - ap_sum / total) > 1e-10:
                failures.append("ap")
            p_exp = sum(1 for d in doc_ids[:20] if d in rel) / 20.0
            if abs(precision_at_k(doc_ids, rel, 20) - p_exp) > 1e-10:
                failures.append("p20")
            dcg = sum(1.0 / np.log2(r + 1)
                      for r, d in enumerate(doc_ids[:20], 1) if d in rel)
            ideal = sum(1.0 / np.log2(r + 1)
                        for r in range(1, min(len(rel), 20) + 1))
            n_exp = dcg / ideal if ideal else 0.0
            if abs(ndcg_at_k(doc_ids, rel, 20) - n_exp) > 1e-10:
                failures.append("ndcg")

        # Bigram overlap: exact agreement with a direct count.
        for _ in range(120):
            nq = int(rng.integers(1, 6))
            q_terms = [int(t) for t in rng.integers(0, 6, nq)]
            d_terms = [int(t) for t in rng.integers(0, 6, int(rng.integers(1, 12)))]
            docs = [ProcessedDocument("d0", d_terms)]
            idf = compute_idf(docs, 6)
            builder = ExtraFeatureBuilder(
                ranked_list_from_scores("q", [("d0", 1.0)]), idf)
            query = ProcessedQuery("q", q_terms, [str(t) for t in q_terms])
            feats = builder.features(query, docs[0])
            doc_bigrams = set(zip(d_terms, d_terms[1:]))
            hits = sum(1 for pair in zip(q_terms, q_terms[1:])
                       if pair in doc_bigrams)
            expected = hits / (nq - 1) if nq > 1 else 0.0
            if feats.bigram_overlap != expected:
                failures.append("bigram")

        bad = sorted(set(failures))
        verdict(capsys, 2, not bad,
                "six computations vs brute-force oracles on >= 100 instances "
                + ("each, all agree" if not bad else f"each; failures: {bad}"))


class TestAnchoredValues:
    def test_documented_unit_values_hold_exactly(self, capsys):
        problems = []

        # Two buckets over [-1, 1] and cosines {0.5, 0.1, -0.3} -> <1, 2>.
        q = np.array([1.0, 0.0])
        d = np.array([[c, np.sqrt(1.0 - c * c)] for c in (0.5, 0.1, -0.3)])
        counts = drmm_histogram(q, d, histogram_edges(2))
        if not np.array_equal(counts, np.array([1.0, 2.0])):
            problems.append(f"histogram counts {counts.tolist()} != [1, 2]")

        # Components of the normalized Hadamard product sum to the cosine:
        # bitwise against the normalize-then-sum form, 1e-12 against the
        # textbook dot/norms form (associativity costs a few ulps there).
        rng = np.random.default_rng(5)
        worst_canonical = 0.0
        for _ in range(200):
            n, m, dim = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                         int(rng.integers(2, 6)))
            qc = rng.standard_normal((n, dim))
            dc = rng.standard_normal((m, dim))
            phi = attended_match_vectors(Tensor(qc), Tensor(dc)).data
            # Contiguous transpose: a transposed view takes a different BLAS
            # path and costs the low bit, which a bitwise check would see.
            logits = qc @ dc.T.copy()
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            att = w @ dc
            att_n = att / np.linalg.norm(att, axis=1, keepdims=True)
            q_n = qc / np.linalg.norm(qc, axis=1, keepdims=True)
            for i in range(n):
                if float(np.sum(phi[i])) != float(np.sum(att_n[i] * q_n[i])):
                    problems.append("hadamard sum != normalized-product cosine")
                canon = float(att[i] @ qc[i] /
                              (np.linalg.norm(att[i]) * np.linalg.norm(qc[i])))
                worst_canonical = max(worst_canonical,
                                      abs(float(np.sum(phi[i])) - canon))
        if worst_canonical > 1e-12:
            problems.append(f"canonical cosine deviates {worst_canonical:.1e}")

        # Pooled q-term encodings are exactly 2 wide, 6 with multi-view.
        for name, width in (("pooled-drmm", 2), ("pooled-drmm-mv", 6)):
            model = build_model(name, 4, np.random.default_rng(0))
            pair = make_pair(np.random.default_rng(1), 3, 5, 4)
            sig = model.rows(pair)
            if sig.data.shape != (3, width):
                problems.append(f"{name} signature shape {sig.data.shape}")

        verdict(capsys, 3, not problems,
                "histogram <1,2>, Hadamard-sum = cosine, encoding widths 2/6"
                + ("" if not problems else f"; problems: {problems}"))


class TestInvarianceSuite:
    def test_structural_properties_over_randomized_cases(self, capsys):
        rng = np.random.default_rng(99)
        violations = {"permutation": 0, "width": 0, "softmax": 0, "binary": 0}

        # Scores ignore document term order.  The recurrent cells are frozen
        # at zero for the pooled model so every term keeps a position-free
        # encoding; the histogram model needs no such restriction.  Counting
        # makes the histogram score exactly order-free; the pooled path runs
        # permuted rows through BLAS, whose reordered accumulation can move
        # the last bits, so equality there allows a few ulps.
        for case in range(1000):
            name = "drmm" if case % 2 == 0 else "pooled-drmm"
            n, m, dim = int(rng.integers(1, 4)), int(rng.integers(2, 7)), 3
            model = build_model(name, dim, rng)
            jitter_zero_params(model, rng)
            if name == "pooled-drmm":
                zero_encoder(model)
            pair = make_pair(rng, n, m, dim)
            perm = rng.permutation(m)
            shuffled = replace(pair, d_emb=pair.d_emb[perm],
                               d_rows=pair.d_rows[perm],
                               d_keys=[pair.d_keys[p] for p in perm])
            a = float(model.score(pair).data)
            b = float(model.score(shuffled).data)
            slack = 0.0 if name == "drmm" else 1e-12 * max(1.0, abs(a), abs(b))
            if abs(a - b) > slack:
                violations["permutation"] += 1

        # Encoding width depends only on the architecture, never on the
        # document length.
        widths = {"pooled-drmm": 2, "pooled-drmm-mv": 6}
        for case in range(1000):
            name = "pooled-drmm" if case % 2 == 0 else "pooled-drmm-mv"
            n = int(rng.integers(1, 4))
            model = build_model(name, 3, rng)
            seen = set()
            for m in (1, 5, 50):
                pair = make_pair(rng, n, m, 3)
                seen.add(model.rows(pair).data.shape)
            if seen != {(n, widths[name])}:
                violations["width"] += 1

        # Gate weights and attention rows are probability distributions.
        for _ in range(1000):
            n, m, width = (int(rng.integers(1, 6)), int(rng.integers(1, 7)),
                           int(rng.integers(2, 6)))
            gates = term_gate(Tensor(rng.standard_normal((n, width))),
                              Tensor(rng.standard_normal(width))).data
            rows = Tensor(rng.standard_normal((n, m))).softmax(axis=1).data
            if abs(gates.sum() - 1.0) > 1e-9:
                violations["softmax"] += 1
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                violations["softmax"] += 1

        # The exact-match view is strictly binary.
        for _ in range(1000):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            q_keys = [("id", int(t)) for t in rng.integers(0, 4, n)]
            d_keys = [("id", int(t)) for t in rng.integers(0, 4, m)]
            matrix = equality_matrix(q_keys, d_keys)
            if not set(np.unique(matrix)) <= {0.0, 1.0}:
                violations["binary"] += 1

        total = sum(violations.values())
        verdict(capsys, 4, total == 0,
                "permutation/width/softmax/binarity over >= 1000 cases each, "
                f"violations {violations}")


class TestSyntheticEndToEnd:
    def test_trained_reranker_beats_linear_baseline(self, capsys, tmp_path):
        start = time.monotonic()
        world = generate_world(seed=11, n_docs=2000, n_queries=200,
                               dim=8, doc_len=16, threshold_scale=1.25)
        paths = write_world(world, tmp_path)
        pipeline = TextPipeline()
        build = process_corpus(paths["corpus"], pipeline)
        queries = process_queries(paths["queries"], pipeline, build.vocabulary)
        qrels = read_qrels(paths["qrels"])
        emb = load_embeddings(paths["embeddings"], build.vocabulary)
        index = build_index(build.documents, build.vocabulary, build.idf)
        candidates = {q.query_id: retrieve_topn(q, index, 30) for q in queries}

        qids = sorted(candidates)
        train_ids, dev_ids, test_ids = qids[:120], qids[120:160], qids[160:]
        builder = PairBuilder(queries, build.documents, candidates, emb,
                              build.idf, with_extra=True)
        data = TrainData(
            builder=builder,
            train_qrels=subset_qrels(qrels, train_ids),
            train_candidates={q: candidates[q] for q in train_ids},
            dev_qrels=subset_qrels(qrels, dev_ids),
            dev_candidates={q: candidates[q] for q in dev_ids},
        )
        test_qrels = subset_qrels(qrels, test_ids)
        test_pool = {q: candidates[q] for q in test_ids}

        def run_system(name, seed):
            model = build_model(name, 8, np.random.default_rng(seed),
                                extra_features=(name != "bm25-extra"))
            config = TrainConfig(epochs=15, patience=5, learning_rate=0.01,
                                 seed=seed)
            result = train(model, data, config)
            model.params.load_from(result.best_params)
            ranked = rerank_candidates(model, builder, test_pool)
            return evaluate_run(ranked, test_qrels, run_tag=f"{name}-{seed}")

        reports = {}
        for seed in range(5):
            for name in ("pooled-drmm-mv", "bm25-extra"):
                reports[(name, seed)] = run_system(name, seed)

        bm25_report = evaluate_run([candidates[q] for q in test_ids],
                                   test_qrels, run_tag="bm25")
        oracle_report = evaluate_run(
            [oracle_rerank(candidates[q], qrels) for q in test_ids],
            test_qrels, run_tag="oracle")

        diffs = [reports[("pooled-drmm-mv", s)].map
                 - reports[("bm25-extra", s)].map for s in range(5)]
        mean_improvement = float(np.mean(diffs))

        oracle_ap = oracle_report.per_query_values("map")
        dominated = True
        for report in [*reports.values(), bm25_report]:
            for qid, ap in report.per_query_values("map").items():
                if oracle_ap[qid] < ap - 1e-12:
                    dominated = False
        elapsed = time.monotonic() - start

        ok = mean_improvement > 0.0 and dominated and elapsed < 1800.0
        model_maps = [reports[("pooled-drmm-mv", s)].map for s in range(5)]
        base_maps = [reports[("bm25-extra", s)].map for s in range(5)]
        verdict(capsys, 5, ok,
                f"2000 docs / 200 queries, 5 seeds: reranker test MAP "
                f"{np.mean(model_maps):.4f} vs baseline "
                f"{np.mean(base_maps):.4f}, mean improvement "
                f"{mean_improvement:+.4f} (> 0), oracle dominates per query: "
                f"{dominated}, {elapsed:.0f}s (< 1800s)")


class TestSignificanceMachinery:
    def test_self_comparison_and_constant_difference(self, capsys):
        rng = np.random.default_rng(12)
        values = {f"q{i}": float(rng.random()) for i in range(10)}
        self_result = stratified_shuffle_test(values, dict(values),
                                              permutations=10_000, seed=3)

        a = {f"q{i}": 0.9 for i in range(10)}
        b = {f"q{i}": 0.4 for i in range(10)}
        const = stratified_shuffle_test(a, b, permutations=10_000, seed=3)

        # Exhaustive reference over all 2^10 sign assignments.
        diff = np.full(10, 0.5)
        count = 0
        for mask in range(1 << 10):
            signs = np.array([1 if mask >> i & 1 else -1 for i in range(10)])
            if abs(float((signs * diff).mean())) >= 0.5:
                count += 1
        exact_rate = count / (1 << 10)

        ok = (self_result.p_value == 1.0
              and const.p_value <= 0.01
              and count == 2
              and abs(const.p_value - exact_rate) < 2e-3)
        verdict(capsys, 6, ok,
                f"self p = {self_result.p_value} (= 1.0), constant-diff "
                f"p = {const.p_value:.4f} (<= 0.01), exhaustive rate "
                f"{exact_rate:.6f} over {1 << 10} assignments")


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


class TestPipelineDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = str(make_workspace(tmp_path))
        artifacts = [
            tmp_path / "work" / "out" / "bm25.run",
            tmp_path / "work" / "ckpt" / "pooled-drmm-mv+extra-seed0.rrcp",
            tmp_path / "work" / "ckpt" / "pooled-drmm-mv+extra-seed0.log.jsonl",
            tmp_path / "work" / "out" / "pooled-drmm-mv+extra-seed0.run",
        ]

        def run_pipeline():
            for command in ("index", "retrieve", "train", "rerank"):
                assert cli_main([command, cfg]) == 0
            return [path.read_bytes() for path in artifacts]

        first = run_pipeline()
        second = run_pipeline()
        same = [a == b for a, b in zip(first, second)]
        verdict(capsys, 7, all(same),
                "two identical-seed pipeline runs: "
                + ", ".join(f"{p.name} {'identical' if s else 'DIFFERS'}"
                            for p, s in zip(artifacts, same)))


class TestRealDataReadiness:
    def test_standard_format_inputs_run_end_to_end(self, capsys, tmp_path):
        # JSONL corpus/queries, TREC qrels, and binary word2vec vectors are
        # the shapes real collections arrive in.
        cfg = str(make_workspace(tmp_path, n_docs=250, n_queries=10,
                                 n_candidates=100, epochs=2,
                                 binary_embeddings=True))
        steps = [("index", cli_main(["index", cfg])),
                 ("retrieve", cli_main(["retrieve", cfg])),
                 ("retrieve-deep", cli_main(
                     ["retrieve", cfg, "--set", "n_candidates=1000",
                      "--set", "candidates=work/out/bm25-deep.run"])),
                 ("repeat", cli_main(["repeat", cfg, "--seeds", "5"]))]
        ok = all(code == 0 for _, code in steps)

        summary_path = (tmp_path / "work" / "out"
                        / "repeat-pooled-drmm-mv+extra.summary.json")
        detail = f"steps {steps}"
        if ok and summary_path.exists():
            summary = json.loads(summary_path.read_text())
            runs = read_run(tmp_path / "work" / "out"
                            / "pooled-drmm-mv+extra-seed4.run")
            deep = read_run(tmp_path / "work" / "out" / "bm25-deep.run")
            ok = (summary["seeds"] == [0, 1, 2, 3, 4]
                  and set(summary["mean"]) == {"map", "p20", "ndcg20"}
                  and set(summary["std"]) == {"map", "p20", "ndcg20"}
                  and all(len(rl.entries) == 100 for rl in runs)
                  and all(len(rl.entries) == 250 for rl in deep))
            detail = (f"index / retrieve at N=100 and N=1000 / train / "
                      f"rerank / eval over 5 seeds, MAP mean "
                      f"{summary['mean']['map']:.4f} std "
                      f"{summary['std']['map']:.4f}")
        else:
            ok = False
        verdict(capsys, 8, ok, detail)
