"""Span tracing for the traced run, installed from outside the program.

``Tracer.install`` replaces relrank's public functions and methods with
wrappers at the name each caller looks up: a module attribute for callers
that look it up at call time, the importing module's attribute for names
bound at import time (``models.scorers`` binds the interaction functions,
``training`` binds ``rerank_candidates`` and ``evaluate_run``), and the
class attribute for methods.  Each wrapped call records a span (name,
start, end, parent); a call made while a span of the same name is open
(a subclass delegating to its base, ``CombinedScorer.score`` calling the
base model's ``score``) is folded into the outer span.  Hot paths that are
too frequent for a span (``Tensor.__init__``, ``LstmCell.step``) only bump
a counter.  A name that is not there is listed in ``missing``.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._gc_started = 0.0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, hook=None):
        """Run ``fn`` inside a span; ``hook(args, result)`` adds counts."""
        if not self.active or self.open[name]:
            return fn(*args, **(kwargs or {}))
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self.stack[-1] if self.stack else None]
        self.spans.append(record)
        self.stack.append(index)
        self.open[name] += 1
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            self.open[name] -= 1
            self.stack.pop()
        if hook is not None:
            hook(self.counts, args, result)
        return result

    @contextlib.contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def _replace(self, owner, attr, make):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr, name, hook=None):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                return tracer.span(name, original, args, kwargs, hook)
            traced.__wrapped__ = original
            return traced
        self._replace(owner, attr, make)

    def count(self, owner, attr, counter):
        """Count calls without recording spans."""
        counts = self.counts
        tracer = self

        def make(original):
            def counted(*args, **kwargs):
                if tracer.active:
                    counts[counter] += 1
                return original(*args, **kwargs)
            counted.__wrapped__ = original
            return counted
        self._replace(owner, attr, make)

    def _gc_callback(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.counts["gc_pause_s"] += time.perf_counter() - self._gc_started
            self.counts["gc_collected"] += info.get("collected", 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from relrank import (autodiff, embeddings, encoder, evaluation, index,
                             rerank, text, training, trec)
        from relrank.models import scorers

        w = self.wrap
        w(text, "process_corpus", "text.process_corpus", _corpus_tokens)
        w(text, "process_queries", "text.process_queries")
        w(embeddings, "load_embeddings", "embeddings.load_embeddings")
        w(index, "build_index", "index.build_index")
        w(index, "retrieve_topn", "index.retrieve_topn")
        w(encoder.BiRnnEncoder, "encode", "encoder.encode", _encode_tokens)
        self.count(encoder.LstmCell, "step", "lstm_steps")
        self.count(autodiff.Tensor, "__init__", "tensors_created")
        w(autodiff, "conv2d", "autodiff.conv2d", _conv_cells)
        w(autodiff.Tensor, "backward", "autodiff.backward")
        w(autodiff.ParameterSet, "zero_grad", "autodiff.zero_grad")
        w(autodiff.ParameterSet, "clip_grad_norm", "autodiff.clip_grad_norm",
          _clipped)
        w(scorers, "sim_matrix", "interactions.sim_matrix", _sim_cells)
        w(scorers, "cosine_attention", "interactions.cosine_attention")
        w(scorers, "max_kmax_pool", "interactions.max_kmax_pool")
        w(scorers, "attended_match_vectors", "interactions.attended_match")
        for cls in vars(scorers).values():
            if isinstance(cls, type) and cls.__module__ == scorers.__name__:
                if "score" in cls.__dict__:
                    w(cls, "score", "scorers.score")
                if "doc_state" in cls.__dict__:
                    w(cls, "doc_state", "rerank.doc_state")
        w(rerank.PairBuilder, "pair", "rerank.pair")
        w(rerank, "build_pair_input", "rerank.build_pair_input")
        w(rerank, "rerank_candidates", "rerank.rerank_candidates")
        w(training, "rerank_candidates", "rerank.rerank_candidates")
        w(training, "train", "training.train")
        w(training, "sample_instances", "training.sample_instances")
        w(training, "adam_step", "training.adam_step", _rejected)
        w(training, "dev_map", "training.dev_map")
        w(training, "evaluate_run", "evaluation.evaluate_run")
        w(evaluation, "evaluate_run", "evaluation.evaluate_run")
        w(trec, "write_run", "trec.write_run")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# -- hooks: counts recorded where the work happens ---------------------------

def _corpus_tokens(counts, args, build):
    counts["text_tokens"] += sum(len(doc.terms) for doc in build.documents)


def _encode_tokens(counts, args, out):
    counts["encoder_tokens"] += int(args[1].shape[0])


def _conv_cells(counts, args, out):
    counts["conv2d_cells"] += int(out.data.size)


def _sim_cells(counts, args, out):
    q_emb, d_emb, max_q, max_d = args
    counts["sim_real_cells"] += min(len(q_emb), max_q) * min(len(d_emb), max_d)
    counts["sim_cells"] += int(out.size)


def _clipped(counts, args, norm):
    if norm > args[1]:
        counts["clipped_steps"] += 1


def _rejected(counts, args, stepped):
    if not stepped:
        counts["rejected_steps"] += 1


# -- analysis -----------------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)


def _under(spans, i, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    spans = tracer.spans
    counts = tracer.counts
    calls = Counter(s[0] for s in spans)
    seconds = defaultdict(float)
    for name, start, end, _ in spans:
        seconds[name] += end - start

    def under(name, ancestor):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and _under(spans, i, ancestor))

    rerank_pairs = under("scorers.score", "rerank.rerank_candidates")
    batches = under("autodiff.zero_grad", "training.train")
    train_backwards = under("autodiff.backward", "training.train")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "encoder.encode_s": (seconds["encoder.encode"], "s"),
        "encoder.encode_calls": (calls["encoder.encode"], "count"),
        "encoder.tokens": (counts["encoder_tokens"], "count"),
        "encoder.lstm_steps": (counts["lstm_steps"], "count"),
        "autodiff.conv2d_s": (seconds["autodiff.conv2d"], "s"),
        "autodiff.conv2d_calls": (calls["autodiff.conv2d"], "count"),
        "autodiff.conv2d_cells": (counts["conv2d_cells"], "count"),
        "interactions.sim_real_share": (
            ratio(counts["sim_real_cells"], counts["sim_cells"]), "ratio"),
        "autodiff.backward_s": (seconds["autodiff.backward"], "s"),
        "autodiff.backward_calls": (calls["autodiff.backward"], "count"),
        "autodiff.tensors_created": (counts["tensors_created"], "count"),
        "autodiff.gc_collected": (counts["gc_collected"], "count"),
        "autodiff.gc_pause_s": (float(counts["gc_pause_s"]), "s"),
        "rerank.doc_state_calls": (calls["rerank.doc_state"], "count"),
        "rerank.doc_state_s": (seconds["rerank.doc_state"], "s"),
        "rerank.doc_state_hit_ratio": (
            1.0 - ratio(calls["rerank.doc_state"], rerank_pairs)
            if rerank_pairs else 0.0, "ratio"),
        "rerank.pair_calls": (calls["rerank.pair"], "count"),
        "rerank.pair_builds": (calls["rerank.build_pair_input"], "count"),
        "rerank.pair_build_s": (seconds["rerank.pair"], "s"),
        "rerank.pair_hit_ratio": (
            1.0 - ratio(calls["rerank.build_pair_input"], calls["rerank.pair"])
            if calls["rerank.pair"] else 0.0, "ratio"),
        "interactions.cosine_attention_s": (
            seconds["interactions.cosine_attention"], "s"),
        "interactions.max_kmax_pool_s": (
            seconds["interactions.max_kmax_pool"], "s"),
        "interactions.attended_match_s": (
            seconds["interactions.attended_match"], "s"),
        "scorers.score_s": (seconds["scorers.score"], "s"),
        "scorers.score_calls": (calls["scorers.score"], "count"),
        "training.epochs": (under("training.sample_instances", "training.train"),
                            "count"),
        "training.batches": (batches, "count"),
        "training.adam_steps": (calls["training.adam_step"], "count"),
        "training.adam_step_s": (seconds["training.adam_step"], "s"),
        "training.zero_loss_batches": (batches - train_backwards, "count"),
        "training.rejected_steps": (counts["rejected_steps"], "count"),
        "training.clipped_steps": (counts["clipped_steps"], "count"),
        "training.sample_s": (seconds["training.sample_instances"], "s"),
        "training.dev_eval_s": (seconds["training.dev_map"], "s"),
        "text.process_corpus_s": (seconds["text.process_corpus"], "s"),
        "text.tokens": (counts["text_tokens"], "count"),
        "embeddings.load_s": (seconds["embeddings.load_embeddings"], "s"),
        "index.build_s": (seconds["index.build_index"], "s"),
        "index.retrieve_s": (seconds["index.retrieve_topn"], "s"),
        "evaluation.evaluate_run_s": (seconds["evaluation.evaluate_run"], "s"),
        "trec.write_run_s": (seconds["trec.write_run"], "s"),
    }


def share_table(spans) -> list[tuple[str, float, float]]:
    """(name, self seconds, share of the traced phases) by descending share.

    The benchmark's own ``bench.*`` spans are the roots, so the shares add
    up to one over the traced phases.
    """
    own = self_times(spans)
    total = sum(end - start for _, start, end, parent in spans
                if parent is None)
    rows = [(name, t, t / total if total else 0.0) for name, t in own.items()]
    return sorted(rows, key=lambda r: -r[1])
