"""Measure one workload over an already written world, in this process.

``run.py`` generates the world in another process and starts this script
in a fresh one, so ``peak_rss_mb`` is the workload's own (over the small
driver's RSS, which exec carries over).  The last line of stdout is the
result object; with ``--trace 1`` it carries the per-layer metrics and the
spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from relrank import (embeddings, evaluation, index, models, rerank,  # noqa: E402
                     text, training, trec)

import checks  # noqa: E402
from spans import Tracer, layer_metrics, share_table  # noqa: E402
from workloads import LEARNING_RATE, MIN_SETUPS, SPLIT, WORKLOADS  # noqa: E402

RESCORE_SAMPLES = 24


class Env:
    """What set-up produces: processed inputs, candidates and a pair source."""

    def __init__(self, paths, wl):
        pipeline = text.TextPipeline()
        build = text.process_corpus(paths["corpus"], pipeline)
        self.queries = text.process_queries(paths["queries"], pipeline,
                                            build.vocabulary)
        self.qrels = trec.read_qrels(paths["qrels"])
        self.emb = embeddings.load_embeddings(paths["embeddings"],
                                              build.vocabulary)
        idx = index.build_index(build.documents, build.vocabulary, build.idf)
        self.candidates = {q.query_id: index.retrieve_topn(q, idx, wl.n_candidates)
                           for q in self.queries}
        self.documents = build.documents
        self.idf = build.idf
        self.builder = self.fresh_builder()

    def fresh_builder(self):
        return rerank.PairBuilder(self.queries, self.documents, self.candidates,
                                  self.emb, self.idf, with_extra=True)

    def qrels_for(self, query_ids):
        keep = set(query_ids)
        out = trec.Qrels()
        for qid, doc_id, rel in self.qrels.items():
            if qid in keep:
                out.add(qid, doc_id, rel)
        return out

    def pool(self, query_ids):
        return {q: self.candidates[q] for q in query_ids}


def training_pairs(qrels, qid, ranked) -> int:
    """Pairs one epoch scores with gradients for a query: two per relevant
    candidate, if its list holds both relevant and non-relevant documents."""
    rel = sum(1 for d in ranked.doc_ids() if qrels.is_relevant(qid, d))
    return 2 * rel if 0 < rel < len(ranked.entries) else 0


def interleave(units, shares, budget: float, minimum) -> list[list]:
    """Run whole units of each phase, interleaved, until about ``budget``
    seconds are spent; return each phase's unit results.

    The next unit is always taken from the phase furthest below its share
    of the time spent, so every phase samples the whole run (the host's
    speed drifts over seconds).  Once every phase has run its ``minimum``
    units, the run stops as soon as the next unit would end further past
    the budget than stopping now falls short of it.
    """
    done = [[] for _ in units]
    spent = [0.0] * len(units)
    while True:
        short = [i for i in range(len(units)) if len(done[i]) < minimum[i]]
        k = min(short or range(len(units)),
                key=lambda i: (spent[i] / shares[i], i))
        expected = spent[k] / len(done[k]) if done[k] else 0.0
        if not short and sum(spent) + expected / 2 >= budget:
            return done
        result = units[k]()
        done[k].append(result)
        spent[k] += result["seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--world", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    paths = {name: str(args.world / f) for name, f in (
        ("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"),
        ("qrels", "qrels.txt"), ("embeddings", "embeddings.txt"))}

    tally = checks.Tally()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        # A layer that can no longer be wrapped would read 0, which looks
        # like a gain on every lower-is-better metric: fail the run instead.
        for name in tracer.missing:
            tally.record(False, f"trace: {name} not found, its layer is "
                                f"not measured")

    def phase(name, fn):
        """Time ``fn``; a traced run records it as a root span too."""
        started = time.perf_counter()
        out = tracer.span(name, fn) if tracer else fn()
        return out, time.perf_counter() - started

    def clean_heap():
        """Start the next unit from a clean heap, as a fresh process would.

        Garbage a unit leaves is still collected, and paid for, inside it;
        this collection is the benchmark's own and stays out of the trace.
        """
        with tracer.paused() if tracer else contextlib.nullcontext():
            gc.collect()

    if tracer:
        tracer.active = True

    envs = []

    def setup_unit():
        env, seconds = phase("bench.setup", lambda: Env(paths, wl))
        tally.record(True, "set-up")
        if not envs:
            envs.append(env)
        del env
        clean_heap()
        return {"seconds": seconds}

    # The first set-up runs before the others can be planned.
    first_setup = setup_unit()
    env = envs[0]
    qids = sorted(env.candidates)
    n_train, n_dev, _ = SPLIT
    # The first train-split queries, in id order, that add up to exactly
    # train_pairs pairs, skipping any query that would overshoot: every
    # seed then trains on the same number of pairs.
    train_ids = []
    pairs_per_epoch = 0
    for qid in qids[:n_train]:
        pairs = training_pairs(env.qrels, qid, env.candidates[qid])
        if pairs and pairs_per_epoch + pairs <= wl.train_pairs:
            train_ids.append(qid)
            pairs_per_epoch += pairs
    dev_ids = qids[n_train:n_train + n_dev][:wl.dev_queries]
    eval_ids = qids[n_train + n_dev:][:wl.eval_queries]
    eval_pool = env.pool(eval_ids)
    eval_pairs = sum(len(r.entries) for r in eval_pool.values())
    run_path = args.world / "rerank.run"
    train_qrels = env.qrels_for(train_ids)
    config = training.TrainConfig(epochs=1, learning_rate=LEARNING_RATE,
                                  seed=args.seed)
    # Every train unit trains the same model on the same data; the rerank
    # units, the repeat check and the rescoring check all use the first.
    latest = {}

    def train_unit():
        data = training.TrainData(env.fresh_builder(), train_qrels,
                                  env.pool(train_ids), env.qrels_for(dev_ids),
                                  env.pool(dev_ids))
        model = models.build_model(wl.model, env.emb.dim,
                                   np.random.default_rng(args.seed),
                                   extra_features=True)
        initial = model.params.copy()
        result, seconds = phase("bench.train_unit",
                                lambda: training.train(model, data, config))
        tally.record(True, "train")
        checks.check_training(tally, result, initial, model.params)
        model.params.load_from(result.best_params)
        latest.setdefault("model", model)
        clean_heap()
        return {"seconds": seconds}

    def rerank_unit():
        builder = env.fresh_builder()
        model = latest["model"]

        def score_and_write():
            ranked = rerank.rerank_candidates(model, builder, eval_pool)
            trec.write_run(run_path, ranked, tag=model.name)
            return ranked
        ranked, seconds = phase("bench.rerank_unit", score_and_write)
        tally.record(True, "rerank")
        # Later units rerank with the same model and must reproduce the
        # first.  Only the first is kept, so the live heap, and with it the
        # collector's pacing, stays the same from unit to unit.
        first = latest.setdefault("ranked", ranked)
        if first is not ranked:
            tally.record(ranked == first,
                         "repeated rerank of the same model gave another result")
        del ranked
        clean_heap()
        return {"seconds": seconds}

    # A traced run does one set-up and one unit of each phase, so its
    # counts repeat exactly for a seed.
    if tracer:
        budget, more_setups = 0.0, 0
    else:
        budget, more_setups = (args.seconds - first_setup["seconds"],
                               MIN_SETUPS - 1)
    more = interleave([setup_unit, train_unit, rerank_unit], wl.shares,
                      budget, (more_setups, 1, 1))
    setup_times = [first_setup["seconds"]] + [u["seconds"] for u in more[0]]
    trained, rerank_units = more[1], more[2]
    model = latest["model"]
    report = phase("bench.evaluate", lambda: evaluation.evaluate_run(
        latest["ranked"], env.qrels_for(eval_ids), run_tag=model.name))[0]
    tally.record(True, "evaluate")
    if tracer:
        tracer.active = False

    # Checks, untraced.
    checks.check_bm25(tally, env.documents, env.queries, env.candidates,
                      wl.n_candidates)
    run_lists = checks.read_run_file(run_path)
    checks.check_run_lists(tally, run_lists, eval_pool)
    relevant = {q: env.qrels.relevant_docs(q) for q in eval_ids}
    checks.check_map(tally, run_lists, relevant, report.map)
    checks.check_oracle(tally, run_lists, relevant)
    checks.check_rescored(tally, model, env.builder, run_lists,
                          np.random.default_rng(args.seed), RESCORE_SAMPLES)

    train_seconds = sum(u["seconds"] for u in trained)
    rerank_seconds = sum(u["seconds"] for u in rerank_units)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_pairs_per_s": (pairs_per_epoch * len(trained) / train_seconds,
                              "pairs/s"),
        "rerank_pairs_per_s": (eval_pairs * len(rerank_units) / rerank_seconds,
                               "pairs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"{wl.name} seed {args.seed}: {len(setup_times)} set-ups, "
          f"{len(trained)} train units of {pairs_per_epoch} pairs, "
          f"{len(rerank_units)} rerank units of {eval_pairs} pairs, "
          f"eval MAP {report.map:.4f}; unit seconds: train "
          f"{[round(u['seconds'], 3) for u in trained]}, rerank "
          f"{[round(u['seconds'], 3) for u in rerank_units]}", file=sys.stderr)
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        print("self time by layer (share of traced phases):")
        for name, seconds, share in share_table(tracer.spans):
            print(f"  {name:34s} {seconds:9.4f} s {100 * share:6.2f} %")
        print("traced end-to-end: " + json.dumps(
            {k: v for k, (v, _) in e2e.items()}))
        metrics = layer_metrics(tracer)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
