"""Pairwise hinge training with Adam and dev-set model selection.

Each epoch resamples one negative per positive from the query's candidate
list, shuffles the instances, and applies bias-corrected Adam per batch.
A batch gathers its pairs (positive, then negative, per instance), gets
their context encodings in one call (``Scorer.contexts``: each distinct
query and document encoded once, in one padded pass with
backpropagation through time over the whole block), then scores them all
in one padded pass (``Scorer.score_batch``) and sums the hinge losses of
the positive and negative slices in instance order.
The checkpoint with the best dev MAP is kept; a fixed seed makes the whole
run, including the JSON-lines log, bitwise reproducible (wall-clock timing
goes to the logger, never into the log records).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ParameterSet, Tensor
from .errors import ConfigError, DataError, check_type
from .evaluation import evaluate_run
from .rerank import PairBuilder, rerank_candidates
from .trec import Qrels, RankedList

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingInstance:
    """One preference: the positive should outscore the negative."""

    query_id: str
    positive: str
    negative: str


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    margin: float = 1.0
    learning_rate: float = 0.001
    seed: int = 0
    patience: int = 5
    clip_norm: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            check_type("seed" if f.name == "seed" else f"training.{f.name}",
                       getattr(self, f.name), f.default)
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epoch budget must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.learning_rate <= 0:
            raise ConfigError(
                f"learning rate must be positive, got {self.learning_rate}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip norm must be positive, got {self.clip_norm}")


def sample_instances(qrels: Qrels, candidates: dict[str, RankedList],
                     rng: np.random.Generator,
                     ) -> tuple[list[TrainingInstance], int]:
    """One instance per relevant candidate, negative drawn uniformly from
    the same list's non-relevant candidates.

    Queries whose candidates lack either class are skipped; the second
    return value counts them.
    """
    instances = []
    skipped = 0
    for query_id in sorted(candidates):
        doc_ids = candidates[query_id].doc_ids()
        positives = [d for d in doc_ids if qrels.is_relevant(query_id, d)]
        negatives = [d for d in doc_ids if not qrels.is_relevant(query_id, d)]
        if not positives or not negatives:
            skipped += 1
            continue
        for positive in positives:
            negative = negatives[int(rng.integers(len(negatives)))]
            instances.append(TrainingInstance(query_id, positive, negative))
    if not instances:
        raise DataError(
            "no trainable queries: every candidate list lacks either a "
            "relevant or a non-relevant document")
    return instances, skipped


def pairwise_loss(s_pos: Tensor, s_neg: Tensor, margin: float = 1.0) -> Tensor:
    """Hinge on the score difference, elementwise for score vectors; the kink
    subgradient is the zero branch."""
    return (s_neg - s_pos + margin).relu()


# Adam's decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment accumulators for one parameter set."""

    def __init__(self, params: ParameterSet, learning_rate: float = 0.001):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: ParameterSet, state: AdamState) -> bool:
    """Apply one bias-corrected update from the accumulated gradients.

    A non-finite gradient anywhere rejects the whole step (no partial
    updates, no counter bump) and returns False.
    """
    grads = {}
    for name, param in params.items():
        grad = param.grad
        if not np.all(np.isfinite(grad)):
            log.warning("Adam step rejected: non-finite gradient in %r", name)
            return False
        grads[name] = grad
    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t
    for name, param in params.items():
        m = state.m[name]
        v = state.v[name]
        grad = grads[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        param.data -= (state.learning_rate * (m / correct1)
                       / (np.sqrt(v / correct2) + EPS))
    return True


@dataclass
class TrainData:
    """Everything the loop touches: judged candidates plus a pair source."""

    builder: PairBuilder
    train_qrels: Qrels
    train_candidates: dict[str, RankedList]
    dev_qrels: Qrels
    dev_candidates: dict[str, RankedList]


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_map: float

    def to_json(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss,
                "dev_map": self.dev_map}


@dataclass
class TrainResult:
    best_params: ParameterSet
    best_epoch: int
    best_dev_map: float
    log: list[EpochRecord]
    skipped_queries: int
    stopped_early: bool = False
    diverged: bool = False
    rejected_steps: int = 0

    def log_lines(self) -> str:
        return "".join(json.dumps(rec.to_json()) + "\n" for rec in self.log)


def dev_map(model, data: TrainData) -> float:
    run = rerank_candidates(model, data.builder, data.dev_candidates)
    return evaluate_run(run, data.dev_qrels, "dev").map


def _batch_loss(model, builder: PairBuilder, batch: list[TrainingInstance],
                rng: np.random.Generator, margin: float) -> Tensor:
    """The summed hinge loss of a batch: its pairs, positive then negative
    per instance, get their context encodings in one call and their scores
    in one pass."""
    pairs = [builder.pair(inst.query_id, doc_id) for inst in batch
             for doc_id in (inst.positive, inst.negative)]
    scores = model.score_batch(pairs, model.contexts(pairs, dropout_rng=rng))
    return pairwise_loss(scores[0::2], scores[1::2], margin).sum()


def train(model, data: TrainData, config: TrainConfig) -> TrainResult:
    """Run the optimization and return the best-dev-MAP checkpoint.

    Divergence (a non-finite batch loss) stops training immediately and the
    last checkpoint that produced a finite dev MAP is returned.  A step that
    Adam rejects for a non-finite gradient leaves the parameters as they
    were and is counted in ``rejected_steps``.
    """
    rng = np.random.default_rng(config.seed)
    adam = AdamState(model.params, config.learning_rate)
    best_params = model.params.copy()
    best_epoch = 0
    best_map = -np.inf
    records: list[EpochRecord] = []
    skipped_total = 0
    stale_epochs = 0
    stopped_early = False
    diverged = False
    rejected_steps = 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        instances, skipped = sample_instances(
            data.train_qrels, data.train_candidates, rng)
        skipped_total = skipped
        order = rng.permutation(len(instances))
        total_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            model.params.zero_grad()
            batch_loss = _batch_loss(model, data.builder, batch, rng,
                                     config.margin)
            value = float(batch_loss.data) / len(batch)
            if not np.isfinite(value):
                log.warning("training diverged at epoch %d: batch loss %r",
                            epoch, value)
                diverged = True
                break
            total_loss += value * len(batch)
            if value > 0.0:
                (batch_loss * (1.0 / len(batch))).backward()
                model.params.clip_grad_norm(config.clip_norm)
                if not adam_step(model.params, adam):
                    rejected_steps += 1
            del batch_loss  # free this batch's graph before the next is built
        if diverged:
            break
        train_loss = total_loss / len(instances)
        epoch_map = dev_map(model, data)
        records.append(EpochRecord(epoch, train_loss, epoch_map))
        log.info("epoch %d: train_loss %.6f dev_map %.4f (%.1fs)",
                 epoch, train_loss, epoch_map,
                 time.perf_counter() - started)
        if epoch_map > best_map:
            best_map = epoch_map
            best_epoch = epoch
            best_params = model.params.copy()
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                stopped_early = True
                log.info("stopping early after %d stale epochs", stale_epochs)
                break
    if best_epoch == 0:
        best_map = float("nan")
    return TrainResult(best_params, best_epoch, best_map, records,
                       skipped_total, stopped_early, diverged, rejected_steps)

