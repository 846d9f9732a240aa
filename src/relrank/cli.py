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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import CheckpointError, load_params, save_params
from .config import PipelineConfig, load_config, read_split, write_meta
from .embeddings import EmbeddingMatrix, load_embeddings
from .errors import ConfigError, DataError, RelrankError
from .evaluation import (MetricsReport, evaluate_run, stratified_shuffle_test)
from .files import atomic_open, write_json
from .index import build_index, load_index, oracle_rerank, retrieve_topn
from .models import BASELINE, build_model
from .rerank import PairBuilder, inspect_interactions, rerank_candidates
from .text import (TextPipeline, file_digest, iter_queries, process_corpus,
                   process_queries)
from .training import TrainData, train
from .trec import Qrels, RankedList, read_qrels, read_run, write_run

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------


def _meta(cfg: PipelineConfig, inputs: dict[str, str], seed: int | None = None,
          **extra) -> dict:
    """Provenance block every artifact carries in its ``.meta.json``."""
    meta = {
        "seed": cfg.seed if seed is None else seed,
        "config_hash": cfg.config_hash,
        "input_hashes": {name: file_digest(path)
                         for name, path in sorted(inputs.items())},
    }
    meta.update(extra)
    return meta


def _ensure_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _subset_qrels(qrels: Qrels, query_ids) -> Qrels:
    keep = set(query_ids)
    out = Qrels()
    for qid, did, rel in qrels.items():
        if qid in keep:
            out.add(qid, did, rel)
    return out


@dataclass
class _World:
    """Corpus, queries, judgments, candidates and pair source, fully loaded."""

    pipeline: TextPipeline
    documents: list
    queries: list
    qrels: Qrels
    emb: EmbeddingMatrix
    candidates: dict[str, RankedList]
    builder: PairBuilder
    inputs: dict[str, str]


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
    inputs = {"corpus": cfg.corpus, "queries": cfg.queries,
              "qrels": cfg.qrels, "embeddings": cfg.embeddings,
              "candidates": cfg.candidates_path}
    return _World(pipeline, build.documents, queries, qrels, emb,
                  candidates, builder, inputs)


def _build_model(cfg: PipelineConfig, world: _World, seed: int):
    rng = np.random.default_rng(seed)
    return build_model(cfg.model, world.emb.dim, rng,
                       extra_features=cfg.extra_features,
                       emb_matrix=world.emb, **cfg.hyperparameters)


def _checkpoint_path(cfg: PipelineConfig, model_name: str, seed: int) -> Path:
    return Path(cfg.checkpoints) / f"{model_name}-seed{seed}.rrcp"


def _eval_query_ids(cfg: PipelineConfig, world: _World) -> list[str]:
    if cfg.eval_split is not None:
        cfg.require_inputs("eval_split")
        ids = read_split(cfg.eval_split)
        missing = [q for q in ids if q not in world.candidates]
        if missing:
            raise DataError(
                f"eval split names queries without candidates: {missing[:5]}")
        return ids
    return sorted(world.candidates)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_index(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("corpus")
    pipeline = TextPipeline()
    build = process_corpus(cfg.corpus, pipeline)
    index = build_index(build.documents, build.vocabulary, build.idf,
                        stemmer=pipeline.stemmer_name,
                        stopword_hash=pipeline.stopwords_digest,
                        corpus_digest=build.corpus_digest)
    _ensure_dir(Path(cfg.index).parent)
    from .index import save_index
    save_index(index, cfg.index)
    write_meta(cfg.index, _meta(cfg, {"corpus": cfg.corpus},
                                documents=len(index),
                                vocabulary=len(build.vocabulary),
                                skipped_empty=len(build.skipped_empty)))
    total_terms = int(sum(index.doc_lengths))
    print(f"indexed {len(index)} documents ({total_terms} terms, "
          f"{len(build.vocabulary)} distinct, "
          f"{len(build.skipped_empty)} empty skipped) -> {cfg.index}")
    return 0


def cmd_retrieve(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("index", "queries")
    index = load_index(cfg.index)
    pipeline = TextPipeline(stemmer=index.stemmer or "porter")
    if index.stopword_hash and index.stopword_hash != pipeline.stopwords_digest:
        log.warning("stopword list differs from the one used at indexing time")
    queries = process_queries(cfg.queries, pipeline, index.vocabulary,
                              cfg.date_cutoff_field)
    ranked = [retrieve_topn(q, index, cfg.n_candidates) for q in queries]
    _ensure_dir(cfg.outputs)
    out = cfg.candidates_path
    write_run(out, ranked, tag="bm25",
              metadata=_meta(cfg, {"index": cfg.index, "queries": cfg.queries},
                             n_candidates=cfg.n_candidates))
    print(f"retrieved top {cfg.n_candidates} for {len(ranked)} queries -> {out}")
    return 0


def _train_one(cfg: PipelineConfig, world: _World, seed: int):
    """Train one model instance and persist its checkpoint and log."""
    if cfg.train_split is None or cfg.dev_split is None:
        raise ConfigError("training needs train_split and dev_split paths")
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
    data = TrainData(
        world.builder,
        _subset_qrels(world.qrels, train_ids),
        {q: world.candidates[q] for q in train_ids},
        _subset_qrels(world.qrels, dev_ids),
        {q: world.candidates[q] for q in dev_ids},
    )
    model = _build_model(cfg, world, seed)
    _ensure_dir(cfg.checkpoints)
    ckpt = _checkpoint_path(cfg, model.name, seed)
    log_path = ckpt.with_suffix(".log.jsonl")
    result = train(model, data, cfg.train_config(seed), log_path=log_path)
    save_params(ckpt, result.best_params)
    inputs = dict(world.inputs,
                  train_split=cfg.train_split, dev_split=cfg.dev_split)
    meta = _meta(cfg, inputs, seed=seed, model=model.name,
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


def _rerank_one(cfg: PipelineConfig, world: _World, seed: int,
                checkpoint=None, output=None):
    """Score the evaluation candidates with a trained checkpoint."""
    model = _build_model(cfg, world, seed)
    ckpt = Path(checkpoint) if checkpoint else _checkpoint_path(cfg, model.name, seed)
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt} (run `train` first)")
    model.params.load_from(load_params(ckpt))
    ids = _eval_query_ids(cfg, world)
    ranked = rerank_candidates(model, world.builder,
                               {q: world.candidates[q] for q in ids})
    _ensure_dir(cfg.outputs)
    out = Path(output) if output else Path(cfg.outputs) / f"{model.name}-seed{seed}.run"
    inputs = dict(world.inputs, checkpoint=str(ckpt))
    write_run(out, ranked, tag=model.name,
              metadata=_meta(cfg, inputs, seed=seed, model=model.name))
    return model, out, ranked


def cmd_rerank(cfg: PipelineConfig, args) -> int:
    if args.oracle:
        cfg.require_inputs("qrels", "candidates")
        qrels = read_qrels(cfg.qrels)
        candidates = {rl.query_id: rl for rl in read_run(cfg.candidates_path)}
        if cfg.eval_split is not None:
            cfg.require_inputs("eval_split")
            ids = read_split(cfg.eval_split)
        else:
            ids = sorted(candidates)
        ranked = [oracle_rerank(candidates[q], qrels) for q in ids]
        _ensure_dir(cfg.outputs)
        out = Path(args.output) if args.output else Path(cfg.outputs) / "oracle.run"
        write_run(out, ranked, tag="oracle",
                  metadata=_meta(cfg, {"qrels": cfg.qrels,
                                       "candidates": cfg.candidates_path}))
        print(f"oracle reranking for {len(ranked)} queries -> {out}")
        return 0
    world = _load_world(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    model, out, ranked = _rerank_one(cfg, world, seed,
                                     checkpoint=args.checkpoint,
                                     output=args.output)
    print(f"reranked {len(ranked)} queries with {model.name} "
          f"(seed {seed}) -> {out}")
    return 0


def _evaluate_file(cfg: PipelineConfig, run_path, qrels: Qrels) -> MetricsReport:
    lists = read_run(run_path)
    if cfg.eval_split is not None:
        keep = set(read_split(cfg.eval_split))
        lists = [rl for rl in lists if rl.query_id in keep]
    return evaluate_run(lists, qrels, run_tag=Path(run_path).stem)


def cmd_eval(cfg: PipelineConfig, args) -> int:
    cfg.require_inputs("qrels")
    for run_path in filter(None, (args.run, args.baseline)):
        if not Path(run_path).exists():
            raise ConfigError(f"run file not found: {run_path}")
    qrels = read_qrels(cfg.qrels)
    if cfg.eval_split is not None:
        cfg.require_inputs("eval_split")
        qrels = _subset_qrels(qrels, read_split(cfg.eval_split))
    report = _evaluate_file(cfg, args.run, qrels)
    print(report.format_table())
    _ensure_dir(cfg.outputs)
    out = Path(cfg.outputs) / f"{Path(args.run).stem}.metrics.json"
    payload = report.to_json()
    inputs = {"qrels": cfg.qrels, "run": args.run}
    if args.baseline:
        base = _evaluate_file(cfg, args.baseline, qrels)
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
        inputs["baseline"] = args.baseline
    write_json(out, payload)
    write_meta(out, _meta(cfg, inputs))
    return 0


def cmd_inspect(cfg: PipelineConfig, args) -> int:
    world = _load_world(cfg)
    seed = cfg.seed if args.seed is None else args.seed
    model = _build_model(cfg, world, seed)
    ckpt = Path(args.checkpoint) if args.checkpoint else \
        _checkpoint_path(cfg, model.name, seed)
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt} (run `train` first)")
    model.params.load_from(load_params(ckpt))
    dump = inspect_interactions(model, world.builder, args.query_id,
                                args.doc_id, doc_budget=args.budget)
    text = json.dumps(dump, indent=2, sort_keys=True)
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text + "\n")
        inputs = dict(world.inputs, checkpoint=str(ckpt))
        write_meta(args.output, _meta(cfg, inputs, seed=seed))
        print(f"interaction dump for ({args.query_id}, {args.doc_id}) "
              f"-> {args.output}")
    else:
        print(text)
    return 0


def cmd_xval(cfg: PipelineConfig, args) -> int:
    """Write per-fold configs and query splits for k-fold cross-validation.

    Fold i holds out fold i as test and fold i+1 (cyclically) as dev; the
    remaining folds train.  Each fold directory gets its own config whose
    split paths point at the generated files, so the standard train /
    rerank / eval sequence runs unchanged per fold.
    """
    cfg.require_inputs("queries")
    if args.folds < 2:
        raise ConfigError(f"need at least 2 folds, got {args.folds}")
    qids = [qid for qid, _, _ in iter_queries(cfg.queries,
                                              cfg.date_cutoff_field)]
    if len(qids) < args.folds:
        raise DataError(
            f"{len(qids)} queries cannot fill {args.folds} folds")
    rng = np.random.default_rng(cfg.seed)
    order = [qids[i] for i in rng.permutation(len(qids))]
    folds = [sorted(order[i::args.folds]) for i in range(args.folds)]
    root = _ensure_dir(Path(cfg.outputs) / "xval")
    for i in range(args.folds):
        fold_dir = _ensure_dir(root / f"fold{i}")
        test = folds[i]
        dev = folds[(i + 1) % args.folds]
        train_ids = sorted(q for j, f in enumerate(folds)
                           for q in f if j not in (i, (i + 1) % args.folds))
        for name, ids in (("train", train_ids), ("dev", dev), ("test", test)):
            with atomic_open(fold_dir / f"{name}.split") as fh:
                fh.write("".join(qid + "\n" for qid in ids))
        data = cfg.to_dict()
        # Pin the shared candidates file: the fold's outputs dir moves, and
        # the default <outputs>/bm25.run would point inside the fold.
        data.update(train_split=str(fold_dir / "train.split"),
                    dev_split=str(fold_dir / "dev.split"),
                    eval_split=str(fold_dir / "test.split"),
                    outputs=str(fold_dir),
                    checkpoints=str(fold_dir / "checkpoints"),
                    candidates=cfg.candidates_path)
        write_json(fold_dir / "config.json", data)
        print(f"fold {i}: {len(train_ids)} train / {len(dev)} dev / "
              f"{len(test)} test -> {fold_dir / 'config.json'}")
    write_meta(root / "xval", _meta(cfg, {"queries": cfg.queries},
                                    folds=args.folds))
    return 0


def cmd_repeat(cfg: PipelineConfig, args) -> int:
    """Train, rerank, and evaluate the configured model over several seeds."""
    if args.seeds < 1:
        raise ConfigError(f"need at least one seed, got {args.seeds}")
    cfg.require_inputs("qrels")
    world = _load_world(cfg)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    qrels = world.qrels
    if cfg.eval_split is not None:
        qrels = _subset_qrels(qrels, read_split(cfg.eval_split))
    per_seed = {}
    run_paths = {}
    for seed in seeds:
        model, result, _ = _train_one(cfg, world, seed)
        model, out, ranked = _rerank_one(cfg, world, seed)
        report = evaluate_run(ranked, qrels, run_tag=f"{model.name}-seed{seed}")
        per_seed[seed] = {name: report.mean(name)
                          for name in MetricsReport.METRICS}
        run_paths[seed] = str(out)
        print(f"seed {seed}: best epoch {result.best_epoch}, dev MAP "
              f"{result.best_dev_map:.4f}, test MAP {per_seed[seed]['map']:.4f} "
              f"-> {out}")
    summary = {
        "model": model.name,
        "seeds": seeds,
        "per_seed": {str(s): per_seed[s] for s in seeds},
        "runs": {str(s): run_paths[s] for s in seeds},
        "mean": {name: float(np.mean([per_seed[s][name] for s in seeds]))
                 for name in MetricsReport.METRICS},
        "std": {name: float(np.std([per_seed[s][name] for s in seeds]))
                for name in MetricsReport.METRICS},
    }
    out = Path(cfg.outputs) / f"repeat-{model.name}.summary.json"
    write_json(out, summary)
    write_meta(out, _meta(cfg, world.inputs, seeds=seeds))
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
        cfg = load_config(args.config, args.overrides)
        return _HANDLERS[args.command](cfg, args)
    except CheckpointError as exc:
        print(f"error[data]: {exc}", file=sys.stderr)
        return 3
    except RelrankError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
