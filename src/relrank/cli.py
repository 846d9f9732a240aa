"""Command line entry points for the re-ranking pipeline.

Subcommands: ``index``, ``retrieve``, ``train``, ``rerank``, ``eval``,
``inspect``, ``xval``, ``repeat``.  All take the same JSON config (see
``config.PipelineConfig``) plus ``--set key=value`` overrides; stages talk
to each other only through files, so any stage can be re-run in isolation.
Exit codes: 0 success, 2 configuration error, 3 data error, 1 anything else.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import load_params, save_params
from .config import (PipelineConfig, load_config, read_split, write_config,
                     write_meta)
from .embeddings import EmbeddingMatrix, load_embeddings
from .errors import ConfigError, DataError, RelrankError
from .evaluation import (MetricsReport, evaluate_run, stratified_shuffle_test)
from .files import atomic_open, write_json
from .index import build_index, load_index, oracle_rerank, retrieve_topn, save_index
from .models import BASELINE, build_model
from .rerank import PairBuilder, inspect_interactions, rerank_candidates
from .text import TextPipeline, iter_queries, process_corpus, process_queries
from .training import TrainData, train
from .trec import Qrels, RankedList, read_qrels, read_run, write_run


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------


@dataclass
class _World:
    """Judgments, embeddings, candidates and the pair source, fully loaded."""

    qrels: Qrels
    emb: EmbeddingMatrix
    candidates: dict[str, RankedList]
    builder: PairBuilder


def _load_world(cfg: PipelineConfig) -> _World:
    cfg.require_inputs("corpus", "queries", "qrels", "embeddings", "candidates")
    pipeline = TextPipeline()
    build = process_corpus(cfg.corpus, pipeline)
    queries = process_queries(cfg.queries, pipeline, build.vocabulary,
                              cfg.date_cutoff_field)
    qrels = read_qrels(cfg.qrels)
    emb = load_embeddings(cfg.embeddings, build.vocabulary,
                          cfg.embedding_format)
    candidates = {rl.query_id: rl for rl in read_run(cfg.candidates_path)}
    with_extra = cfg.extra_features or cfg.model == BASELINE
    builder = PairBuilder(queries, build.documents, candidates, emb,
                          build.idf, with_extra=with_extra)
    return _World(qrels, emb, candidates, builder)


def _build_model(cfg: PipelineConfig, world: _World, seed: int):
    rng = np.random.default_rng(seed)
    return build_model(cfg.model, world.emb.dim, rng,
                       extra_features=cfg.extra_features,
                       emb_matrix=world.emb, **cfg.hyperparameters)


def _checkpoint_path(cfg: PipelineConfig, model_name: str, seed: int) -> Path:
    return Path(cfg.checkpoints) / f"{model_name}-seed{seed}.rrcp"


def _load_trained(cfg: PipelineConfig, world: _World, seed: int,
                  checkpoint=None):
    """The configured model with its trained parameters loaded from
    ``checkpoint``, or from the path ``train`` writes for this seed."""
    model = _build_model(cfg, world, seed)
    ckpt = Path(checkpoint) if checkpoint else _checkpoint_path(cfg, model.name, seed)
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt} (run `train` first)")
    params = load_params(ckpt)
    try:
        model.params.load_from(params)
    except ValueError as exc:
        raise DataError(f"{ckpt}: not a checkpoint of {model.name}: {exc}") from exc
    return model, ckpt


def _eval_split(cfg: PipelineConfig) -> list[str] | None:
    """The eval split's query ids, or None when the config names no split."""
    if cfg.eval_split is None:
        return None
    cfg.require_inputs("eval_split")
    return read_split(cfg.eval_split)


def _eval_query_ids(cfg: PipelineConfig, candidates: dict) -> list[str]:
    ids = _eval_split(cfg)
    if ids is None:
        return sorted(candidates)
    missing = [q for q in ids if q not in candidates]
    if missing:
        raise DataError(
            f"eval split names queries without candidates: {missing[:5]}")
    return ids


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_index(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("corpus")
    pipeline = TextPipeline()
    build = process_corpus(cfg.corpus, pipeline)
    meta = cfg.meta(documents=len(build.documents),
                    vocabulary=len(build.vocabulary),
                    skipped_empty=len(build.skipped_empty))
    index = build_index(build.documents, build.vocabulary, build.idf,
                        stemmer=pipeline.stemmer_name,
                        stopword_hash=pipeline.stopwords_digest,
                        corpus_digest=meta["input_hashes"]["corpus"])
    save_index(index, cfg.index)
    write_meta(cfg.index, meta)
    total_terms = int(sum(index.doc_lengths))
    print(f"indexed {len(index)} documents ({total_terms} terms, "
          f"{len(build.vocabulary)} distinct, "
          f"{len(build.skipped_empty)} empty skipped) -> {cfg.index}")
    return 0


def cmd_retrieve(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("index", "queries")
    index = load_index(cfg.index)
    pipeline = TextPipeline()
    if index.stemmer not in ("", pipeline.stemmer_name):
        raise DataError(f"{cfg.index}: built with stemmer {index.stemmer!r}, "
                        f"but queries are stemmed with {pipeline.stemmer_name!r}")
    if index.stopword_hash not in ("", pipeline.stopwords_digest):
        raise DataError(f"{cfg.index}: built with another stopword list "
                        f"than the one queries are filtered with")
    queries = process_queries(cfg.queries, pipeline, index.vocabulary,
                              cfg.date_cutoff_field)
    ranked = [retrieve_topn(q, index, cfg.n_candidates) for q in queries]
    out = cfg.candidates_path
    write_run(out, ranked, tag="bm25")
    write_meta(out, cfg.meta(n_candidates=cfg.n_candidates))
    print(f"retrieved top {cfg.n_candidates} for {len(ranked)} queries -> {out}")
    return 0


def _train_one(cfg: PipelineConfig, world: _World, seed: int):
    """Train one model instance and persist its checkpoint and log."""
    cfg.require_inputs("train_split", "dev_split")
    train_ids = read_split(cfg.train_split)
    dev_ids = read_split(cfg.dev_split)
    overlap = set(train_ids) & set(dev_ids)
    if overlap:
        raise ConfigError(f"train and dev splits overlap: {sorted(overlap)[:5]}")
    missing = [q for q in train_ids + dev_ids if q not in world.candidates]
    if missing:
        raise DataError(
            f"split names queries without candidates: {missing[:5]}")
    # Training samples only the train lists' queries and dev eval scores
    # only the dev lists, so both can read the full judgments.
    data = TrainData(
        world.builder,
        world.qrels,
        {q: world.candidates[q] for q in train_ids},
        world.qrels,
        {q: world.candidates[q] for q in dev_ids},
    )
    model = _build_model(cfg, world, seed)
    ckpt = _checkpoint_path(cfg, model.name, seed)
    log_path = ckpt.with_suffix(".log.jsonl")
    result = train(model, data, cfg.train_config(seed))
    save_params(ckpt, result.best_params)
    with atomic_open(log_path) as fh:
        fh.write(result.log_lines())
    meta = cfg.meta(seed=seed, model=model.name,
                    best_epoch=result.best_epoch,
                    best_dev_map=result.best_dev_map,
                    epochs_run=len(result.log),
                    skipped_queries=result.skipped_queries,
                    stopped_early=result.stopped_early,
                    diverged=result.diverged)
    write_meta(ckpt, meta)
    write_meta(log_path, meta)
    return model, result, ckpt


def cmd_train(cfg: PipelineConfig, args) -> int:
    world = _load_world(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    model, result, ckpt = _train_one(cfg, world, seed)
    flags = ""
    if result.diverged:
        flags = " [diverged]"
    elif result.stopped_early:
        flags = " [early stop]"
    print(f"trained {model.name} (seed {seed}): best epoch "
          f"{result.best_epoch}/{len(result.log)}, dev MAP "
          f"{result.best_dev_map:.4f}, {result.skipped_queries} queries "
          f"skipped, {result.rejected_steps} steps rejected{flags} -> {ckpt}")
    return 0


def _rerank_one(cfg: PipelineConfig, world: _World, seed: int, ids,
                checkpoint=None, output=None):
    """Score the candidates of queries ``ids`` with a trained checkpoint."""
    model, ckpt = _load_trained(cfg, world, seed, checkpoint)
    ranked = rerank_candidates(model, world.builder,
                               {q: world.candidates[q] for q in ids})
    out = Path(output) if output else Path(cfg.outputs) / f"{model.name}-seed{seed}.run"
    write_run(out, ranked, tag=model.name)
    write_meta(out, cfg.meta({"checkpoint": ckpt}, seed=seed, model=model.name))
    return model, out, ranked


def cmd_rerank(cfg: PipelineConfig, args) -> int:
    if args.oracle:
        cfg.require_inputs("qrels", "candidates")
        qrels = read_qrels(cfg.qrels)
        candidates = {rl.query_id: rl for rl in read_run(cfg.candidates_path)}
        ranked = [oracle_rerank(candidates[q], qrels)
                  for q in _eval_query_ids(cfg, candidates)]
        out = Path(args.output) if args.output else Path(cfg.outputs) / "oracle.run"
        write_run(out, ranked, tag="oracle")
        write_meta(out, cfg.meta())
        print(f"oracle reranking for {len(ranked)} queries -> {out}")
        return 0
    world = _load_world(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    ids = _eval_query_ids(cfg, world.candidates)
    model, out, ranked = _rerank_one(cfg, world, seed, ids,
                                     checkpoint=args.checkpoint,
                                     output=args.output)
    print(f"reranked {len(ranked)} queries with {model.name} "
          f"(seed {seed}) -> {out}")
    return 0


def _evaluate_file(run_path, qrels: Qrels, split: list[str] | None) -> MetricsReport:
    lists = read_run(run_path)
    if split is not None:
        ranked = {rl.query_id for rl in lists}
        missing = [q for q in split if q not in ranked]
        if missing:
            raise DataError(f"{run_path}: eval split names queries the run "
                            f"leaves out: {missing[:5]}")
        keep = set(split)
        lists = [rl for rl in lists if rl.query_id in keep]
    return evaluate_run(lists, qrels, run_tag=Path(run_path).stem)


def cmd_eval(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("qrels")
    runs = {name: path for name, path in
            (("run", args.run), ("baseline", args.baseline)) if path}
    for run_path in runs.values():
        if not Path(run_path).exists():
            raise ConfigError(f"run file not found: {run_path}")
    qrels = read_qrels(cfg.qrels)
    split = _eval_split(cfg)
    report = _evaluate_file(args.run, qrels, split)
    print(report.format_table())
    out = Path(cfg.outputs) / f"{Path(args.run).stem}.metrics.json"
    payload = report.to_json()
    if args.baseline:
        base = _evaluate_file(args.baseline, qrels, split)
        print()
        print(base.format_table())
        sig = stratified_shuffle_test(
            report.per_query_values(args.metric),
            base.per_query_values(args.metric),
            permutations=args.permutations, seed=cfg.seed,
            metric=args.metric)
        print()
        print(f"{args.metric} difference {sig.observed_difference:+.4f} "
              f"({report.run_tag} - {base.run_tag}), "
              f"p = {sig.p_value:.4f} ({sig.permutations} permutations)")
        payload["baseline"] = base.to_json()
        payload["significance"] = sig.to_json()
    write_json(out, payload)
    write_meta(out, cfg.meta(runs))
    return 0


def cmd_inspect(cfg: PipelineConfig, args) -> int:
    world = _load_world(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    model, ckpt = _load_trained(cfg, world, seed, args.checkpoint)
    dump = inspect_interactions(model, world.builder, args.query_id,
                                args.doc_id, doc_budget=args.budget)
    text = json.dumps(dump, indent=2, sort_keys=True)
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text + "\n")
        write_meta(args.output, cfg.meta({"checkpoint": ckpt}, seed=seed))
        print(f"interaction dump for ({args.query_id}, {args.doc_id}) "
              f"-> {args.output}")
    else:
        print(text)
    return 0


def cmd_xval(cfg: PipelineConfig, args) -> int:
    """Write per-fold configs and query splits for k-fold cross-validation.

    Fold i holds out fold i as test and fold i+1 (cyclically) as dev; the
    remaining folds train, so at least 3 folds are needed.  Each fold
    directory gets its own config whose split paths point at the generated
    files, so the standard train / rerank / eval sequence runs unchanged
    per fold.
    """
    cfg.require_inputs("queries")
    if args.folds < 3:
        raise ConfigError(
            f"need at least 3 folds (one test, one dev, the rest train), "
            f"got {args.folds}")
    qids = [qid for qid, _, _ in iter_queries(cfg.queries,
                                              cfg.date_cutoff_field)]
    if len(qids) < args.folds:
        raise DataError(
            f"{len(qids)} queries cannot fill {args.folds} folds")
    rng = np.random.default_rng(cfg.seed)
    order = [qids[i] for i in rng.permutation(len(qids))]
    folds = [sorted(order[i::args.folds]) for i in range(args.folds)]
    root = Path(cfg.outputs) / "xval"
    for i in range(args.folds):
        fold_dir = root / f"fold{i}"
        test = folds[i]
        dev = folds[(i + 1) % args.folds]
        train_ids = sorted(q for j, f in enumerate(folds)
                           for q in f if j not in (i, (i + 1) % args.folds))
        for name, ids in (("train", train_ids), ("dev", dev), ("test", test)):
            with atomic_open(fold_dir / f"{name}.split") as fh:
                fh.write("".join(qid + "\n" for qid in ids))
        # Pin the shared candidates file: the fold's outputs dir moves, and
        # the default <outputs>/bm25.run would point inside the fold.
        fold = replace(cfg, train_split=str(fold_dir / "train.split"),
                       dev_split=str(fold_dir / "dev.split"),
                       eval_split=str(fold_dir / "test.split"),
                       outputs=str(fold_dir),
                       checkpoints=str(fold_dir / "checkpoints"),
                       candidates=cfg.candidates_path)
        write_config(fold_dir / "config.json", fold)
        print(f"fold {i}: {len(train_ids)} train / {len(dev)} dev / "
              f"{len(test)} test -> {fold_dir / 'config.json'}")
    write_meta(root / "xval", cfg.meta(folds=args.folds))
    return 0


def cmd_repeat(cfg: PipelineConfig, args) -> int:
    """Train, rerank, and evaluate the configured model over several seeds."""
    if args.seeds < 1:
        raise ConfigError(f"need at least one seed, got {args.seeds}")
    world = _load_world(cfg)
    ids = _eval_query_ids(cfg, world.candidates)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    per_seed = {}
    run_paths = {}
    for seed in seeds:
        model, result, _ = _train_one(cfg, world, seed)
        model, out, ranked = _rerank_one(cfg, world, seed, ids)
        report = evaluate_run(ranked, world.qrels, run_tag=f"{model.name}-seed{seed}")
        per_seed[seed] = {name: report.mean(name)
                          for name in MetricsReport.METRICS}
        run_paths[seed] = os.path.relpath(out, cfg.outputs)
        print(f"seed {seed}: best epoch {result.best_epoch}, dev MAP "
              f"{result.best_dev_map:.4f}, test MAP {per_seed[seed]['map']:.4f} "
              f"-> {out}")
    summary = {
        "model": model.name,
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "runs": {str(s): run_paths[s] for s in seeds},  # from the summary's folder
        "mean": {name: float(np.mean([per_seed[s][name] for s in seeds]))
                 for name in MetricsReport.METRICS},
        "std": {name: float(np.std([per_seed[s][name] for s in seeds]))
                for name in MetricsReport.METRICS},
    }
    out = Path(cfg.outputs) / f"repeat-{model.name}.summary.json"
    write_json(out, summary)
    write_meta(out, cfg.meta(seeds=seeds))
    for name in MetricsReport.METRICS:
        print(f"{name}: mean {summary['mean'][name]:.4f} "
              f"std {summary['std'][name]:.4f} over {len(seeds)} seeds")
    print(f"summary -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relrank",
        description="BM25 retrieval and neural re-ranking pipeline")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the pipeline JSON config")
    common.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config entry (dotted keys allowed)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("index", parents=[common],
                   help="build and persist the inverted index")
    sub.add_parser("retrieve", parents=[common],
                   help="write the BM25 top-N candidates run")

    p = sub.add_parser("train", parents=[common],
                       help="train the configured model on the train/dev splits")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed for this run")

    p = sub.add_parser("rerank", parents=[common],
                       help="score candidates with a trained checkpoint")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", default=None,
                   help="explicit checkpoint path (default: derived from config)")
    p.add_argument("--output", default=None, help="run file to write")
    p.add_argument("--oracle", action="store_true",
                   help="rank judged-relevant candidates first instead")

    p = sub.add_parser("eval", parents=[common],
                       help="score a run against the judgments")
    p.add_argument("run", help="TREC run file to evaluate")
    p.add_argument("baseline", nargs="?", default=None,
                   help="optional second run for a significance test")
    p.add_argument("--metric", default="map",
                   choices=list(MetricsReport.METRICS))
    p.add_argument("--permutations", type=int, default=10_000)

    p = sub.add_parser("inspect", parents=[common],
                       help="dump interaction matrices for one query/document")
    p.add_argument("query_id")
    p.add_argument("doc_id")
    p.add_argument("--budget", type=int, default=50,
                   help="document terms to show (default 50)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--output", default=None,
                   help="write the JSON dump here instead of stdout")

    p = sub.add_parser("xval", parents=[common],
                       help="generate per-fold configs for cross-validation")
    p.add_argument("--folds", type=int, default=5)

    p = sub.add_parser("repeat", parents=[common],
                       help="train/rerank/eval over consecutive seeds")
    p.add_argument("--seeds", type=int, default=5,
                   help="number of seeds, starting at the config seed")

    return parser


_HANDLERS = {
    "index": cmd_index,
    "retrieve": cmd_retrieve,
    "train": cmd_train,
    "rerank": cmd_rerank,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
    "xval": cmd_xval,
    "repeat": cmd_repeat,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        for flag in ("permutations", "budget"):  # before any file is read
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {value}")
        cfg = load_config(args.config, args.overrides)
        return _HANDLERS[args.command](cfg, args)
    except RelrankError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
