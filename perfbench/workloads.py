"""The benchmark's workloads: which world each one generates and what it runs.

Every workload scores with a ``+extra`` model (the paper's combination with
the four BM25-derived features).  A run measures in whole units:

* a *set-up unit* reads the world through the text pipeline, indexes it,
  retrieves every query's candidates and builds a ``PairBuilder``;
* a *train unit* is one ``training.train`` call of one epoch, with its dev
  evaluation on a prefix of the dev split, on the first train-split queries
  that add up to exactly ``train_pairs`` training pairs, so every seed
  trains on as many pairs;
* a *rerank unit* is one ``rerank.rerank_candidates`` call over the first
  ``eval_queries`` eval-split queries, followed by ``trec.write_run``.

Units of the three phases are interleaved in the proportions ``shares``
until about ``--seconds`` are spent, whatever the speed of the code, so each
phase samples the whole run rather than one stretch of it: the CPU speed a
shared host gives a process drifts over seconds.

Why these three:

* ``encoder`` is the acceptance-5 world with the paper's headline model; the
  BiLSTM per-token graph and ``Tensor.backward`` dominate, ``conv2d`` is
  never called.
* ``pacrr`` is the same world with PACRR; ``conv2d`` over the fixed 30x300
  padded similarity matrix dominates, the encoder is never called, and the
  training graphs are large enough that peak memory is a real cost.
* ``long-docs`` has 200-term (abstract-length) documents and 100 candidates
  per query: the encoder runs long sequences forward-only, documents
  shared between the queries of a rerank call hit the doc-state cache, and
  text processing is most of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    world: dict = field(default_factory=dict)  # generate_world keyword args
    n_candidates: int = 30
    train_pairs: int = 110     # training pairs per train unit
    dev_queries: int = 10      # prefix of the dev split per train unit
    eval_queries: int = 40     # prefix of the eval split per rerank unit
    # Shares of --seconds given to set-up, train and rerank units.
    shares: tuple[float, float, float] = (0.1, 0.45, 0.45)


# Query-id order split of every world's 200 queries: train, dev, eval.
SPLIT = (120, 40, 40)
LEARNING_RATE = 0.01
MIN_SETUPS = 3   # setup_s is the median of at least these
ACCEPTANCE_WORLD = dict(n_docs=2000, n_queries=200, dim=8, doc_len=16,
                        threshold_scale=1.25)

WORKLOADS = {
    wl.name: wl for wl in (
        Workload("encoder", "pooled-drmm-mv", ACCEPTANCE_WORLD),
        # 250 pairs are four batches of 32, enough for the training graphs'
        # garbage to pile up between collections: a unit peaks at 1.8-1.9 GB
        # (1.3 GB if each step's graph is freed at once).  All 120 train
        # queries peak above 3 GB, too much for a shared machine.
        Workload("pacrr", "pacrr", ACCEPTANCE_WORLD,
                 train_pairs=250, eval_queries=10, shares=(0.1, 0.4, 0.5)),
        # Training is kept short and reranking heavy; 1000 documents keep
        # a set-up near 1.7 s.  Most rerank time is spent encoding the
        # documents the doc-state cache misses, so the hit ratio must not
        # swing with the seed: over twenty-query calls it stays within
        # 0.69-0.72, over ten-query calls it ranges over 0.57-0.65.
        Workload("long-docs", "attn-drmm-mv",
                 dict(ACCEPTANCE_WORLD, n_docs=1000, doc_len=200),
                 n_candidates=100, train_pairs=16, dev_queries=1,
                 eval_queries=20, shares=(0.1, 0.2, 0.7)),
    )
}


def generate(workload: Workload, seed: int, directory) -> dict[str, str]:
    """Generate the workload's world from ``seed`` and write it to files."""
    from relrank import synthetic

    world = synthetic.generate_world(seed=seed, **workload.world)
    return synthetic.write_world(world, directory)


def main(argv=None) -> int:
    """Write one workload's world: ``workloads.py --workload W --seed N --out DIR``."""
    import argparse
    import sys
    from pathlib import Path

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
