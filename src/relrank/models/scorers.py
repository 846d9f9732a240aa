"""The relevance architectures: each maps a query-document pair to a scalar.

Every model is one :class:`Scorer` built in three stages.  The *rows*
stage gives each query term a document-aware row: a DRMM similarity
histogram, PACRR's convolutional n-gram match, or the attention or
pooled-cosine signature of one or more *views* of the pair (context
encodings, raw embeddings, exact matches).  A dense *head* (:class:`Mlp`)
scores the rows, and an *aggregation* combines them: a softmax gate over
the query terms, a linear mix (pacrr-drmm), or, for pacrr, flattening the
rows before the head.  With extra features on, that score is then mixed
linearly with the four extra features; ``bm25-extra`` is the mix alone.
No stage adds a bias to the score: training's pairwise hinge reads only
score differences, so it could not train one.

:meth:`Scorer.score_batch` is the one scoring path: it scores a batch of
pairs in one padded pass and returns a (B,) autodiff tensor, so the
training loop can backpropagate through it.  The rows stage returns the
batch's rows padded to (B, longest query, width); the views, the pooling,
the head, the gate (a softmax masked to the real query terms) and the
extra-feature mix each run once per batch, or once per bucket of
documents within a factor 2 in length where the lengths differ more:
the views pad every document to the longest.  PACRR's convolutions run
once per bucket too, over a stack of the pairs' similarity blocks; DRMM's
histograms are computed per pair and stacked.  Every contraction is an
einsum and every sum over a padded axis adds in index order, so a pair
scores the same bits alone (``score``, the batch of one) and inside any
batch.  Training scores each minibatch with it, and reranking each
candidate list.

``contexts``, one (query, document) pair of encodings per pair, stands in
for running the encoder; :meth:`Scorer.contexts` computes them in one
encoder pass, with gradients and dropout in training and frozen in
reranking.  Each model holds its parameters in one ParameterSet,
registered in the order rows, head, aggregation, ``combine.*``; that
order is the checkpoint layout.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..autodiff import ParameterSet, Tensor, concat, einsum, gather_rows, pad
from ..encoder import BiRnnEncoder
from ..errors import ConfigError, check_type
from .components import Mlp, glorot_uniform
from .inputs import PairBatch, PairInput, SideInput
from .interactions import (
    attended_match_vectors,
    cosine_attention,
    drmm_histogram,
    equality_matrix,
    hashed_match_vectors,
    histogram_edges,
    max_kmax_pool,
    sim_matrix,
    softmax_idf,
    term_gate,
)

BASELINE = "bm25-extra"
GATE_MODES = ("emb+idf", "emb", "idf")


class Scorer:
    """rows -> head -> aggregation, optionally mixed with the extra features.

    ``rows_stage(model, batch, contexts)`` returns a :class:`PairBatch`'s
    rows, (B, n, width); it is None only for the baseline.  The builders
    below assemble one scorer per registry name.
    """

    name = "base"

    def __init__(self, rows_stage=None):
        self.params = ParameterSet()
        self.rows_stage = rows_stage
        self.encoder: BiRnnEncoder | None = None
        self.emb: Tensor | None = None  # trainable embedding matrix
        self.head: Mlp | None = None
        self.aggregation: str | None = None  # "gate", "linear" or "flat"
        self.gate_mode: str | None = None  # with "gate": "emb+idf", "emb" or "idf"
        self.extra = False

    def register(self, prefix: str, module):
        """Add a module's parameters under ``prefix``; returns the module."""
        for name, tensor in module.parameters(prefix):
            self.params.add(name, tensor)
        return module

    def _vectors(self, side: SideInput) -> Tensor:
        return Tensor(side.emb) if self.emb is None else gather_rows(self.emb, side.rows)

    def _padded_vectors(self, batch: PairBatch, side: str) -> Tensor:
        """One side's embedding vectors, (B, n, dim), zeros in the padding."""
        if self.emb is None:
            return Tensor(batch.pad(side, "emb"))
        return pad([self._vectors(getattr(p, side)) for p in batch.pairs],
                   batch.mask(side).shape[1])

    def view(self, name: str, batch: PairBatch, contexts):
        """One view of a batch as padded (query side, document side): the
        ``context`` encodings (``contexts``, from :meth:`contexts`), raw
        ``embedding`` vectors, or exact match, read as the term ids that
        ``exact`` compares or as the CRCs that ``hashed`` folds into
        one-hots (-1 in the padding of both)."""
        if name == "exact":
            return batch.pad("q", "ids", -1), batch.pad("d", "ids", -1)
        if name == "hashed":
            return (batch.pad("q", [p.q.crcs for p in batch.pairs], -1),
                    batch.pad("d", [p.d.crcs for p in batch.pairs], -1))
        if name == "context":
            return tuple(pad([c[i] for c in contexts], batch.mask(side).shape[1])
                         for i, side in enumerate("qd"))
        return self._padded_vectors(batch, "q"), self._padded_vectors(batch, "d")

    def contexts(self, pairs: list[PairInput], dropout_rng=None,
                 encoded: dict | None = None) -> list:
        """Each pair's (query, document) context encodings, from one
        ``encode_batch``; None per pair for a model without the encoder.

        Without dropout each distinct sequence is encoded once, keyed by
        (side, id); ``encoded`` keeps the encodings by that key across
        calls and is filled in.  A sequence that several pairs read is one
        tensor, so its gradient sums over them.  With dropout (a
        ``dropout_rng`` and a positive rate) every use is its own sequence
        with its own mask, drawn per pair in the order query, document.
        """
        if self.encoder is None:
            return [None] * len(pairs)
        drop = self.encoder.dropout > 0.0 and dropout_rng is not None
        encoded = {} if encoded is None or drop else encoded
        fresh = {}
        keys = []
        for pair in pairs:
            for key, side in ((("q", pair.query_id), pair.q),
                              (("d", pair.doc_id), pair.d)):
                key = len(keys) if drop else key
                if key not in encoded and key not in fresh:
                    fresh[key] = self._vectors(side)
                keys.append(key)
        encoded.update(zip(fresh, self.encoder.encode_batch(
            list(fresh.values()), dropout_rng)))
        return [(encoded[q], encoded[d]) for q, d in zip(keys[::2], keys[1::2])]

    def rows(self, pair: PairInput, context=None) -> Tensor:
        """One pair's document-aware rows: one per query term, or
        max_query_terms rows (padded or truncated) for the convolutional
        models."""
        contexts = self.contexts([pair]) if context is None else [context]
        return self.rows_stage(self, PairBatch([pair]), contexts)[0]

    def gate_inputs(self, batch: PairBatch) -> Tensor:
        """Per-q-term gate inputs, (B, n, width): embedding, IDF, or the two
        side by side."""
        idf = Tensor(batch.pad("q", "idf")[..., None])
        if self.gate_mode == "idf":
            return idf
        q = self._padded_vectors(batch, "q")
        return q if self.gate_mode == "emb" else concat([q, idf], axis=-1)

    def score(self, pair: PairInput, context=None) -> Tensor:
        """One pair's score, a 0-d tensor: the batch of one."""
        return self.score_batch([pair], None if context is None else [context])[0]

    def score_batch(self, pairs: list[PairInput], contexts=None) -> Tensor:
        """The (B,) scores of a batch of pairs, in one padded pass; each has
        the bits of its pair scored alone.  ``contexts`` (from
        :meth:`contexts`, one per pair) stands in for running the
        encoder."""
        p = self.params
        if not pairs:
            return Tensor(np.zeros(0))
        if self.extra and any(pair.extra is None for pair in pairs):
            raise ConfigError(
                f"model {self.name!r} needs extra features on every pair")
        if self.rows_stage is not None:
            if contexts is None:
                contexts = self.contexts(pairs)
            base = self._model_scores(pairs, contexts)
            if not self.extra:
                return base
        extra = np.stack([pair.extra for pair in pairs])
        total = einsum("bf,f->b", extra, p["combine.w_extra"])
        if self.rows_stage is None:
            return total
        return total + einsum("b,->b", base, p["combine.w_model"])

    def _model_scores(self, pairs: list[PairInput], contexts) -> Tensor:
        """The (B,) scores before the extra-feature mix, one padded pass
        per bucket of documents within a factor 2 in length
        (:func:`length_buckets`): the views pad every document to the
        longest, and so the padding never outgrows the real terms."""
        buckets = length_buckets([len(p.d.ids) for p in pairs])
        scores = []
        for idx in buckets:
            batch = PairBatch([pairs[i] for i in idx])
            scores.append(self._aggregate(batch, self.rows_stage(
                self, batch, [contexts[i] for i in idx])))
        if len(scores) == 1:
            return scores[0]
        return gather_rows(concat(scores), np.argsort(np.concatenate(buckets)))

    def _aggregate(self, batch: PairBatch, rows: Tensor) -> Tensor:
        if self.aggregation == "flat":
            return self.head.rows(rows.reshape(rows.shape[0], -1))
        row_scores = self.head.rows(rows)
        if self.aggregation == "linear":
            return einsum("bq,q->b", row_scores, self.params["agg.w"])
        gates = term_gate(self.gate_inputs(batch), self.params["gate.w"],
                          batch.q_mask)
        return (gates * row_scores).sum(axis=-1)


def length_buckets(lengths) -> list[np.ndarray]:
    """Indices of ``lengths`` grouped, shortest first, so that each
    group's longest is at most twice its shortest."""
    order = np.argsort(lengths, kind="stable")
    buckets, start = [], 0
    for end in range(1, len(order) + 1):
        if end == len(order) or lengths[order[end]] > 2 * lengths[order[start]]:
            buckets.append(order[start:end])
            start = end
    return buckets


# ---------------------------------------------------------------------------
# Stage assembly
# ---------------------------------------------------------------------------


def _gated_head(model: Scorer, prefix: str, width: int, hidden, dim: int,
                rng, gate_mode: str) -> Scorer:
    """Score each row with a shared Mlp, then gate over the query terms."""
    model.head = model.register(prefix, Mlp(width, hidden, rng))
    gate_width = {"emb+idf": dim + 1, "emb": dim, "idf": 1}[gate_mode]
    model.params.add("gate.w", glorot_uniform(rng, gate_width, 1, gate_width))
    model.aggregation = "gate"
    model.gate_mode = gate_mode
    return model


def _encoder_scorer(rows_stage, dim: int, rng, dropout: float,
                    trainable_embeddings: bool, emb_matrix) -> Scorer:
    model = Scorer(rows_stage)
    model.encoder = model.register("encoder", BiRnnEncoder(dim, rng, dropout))
    if trainable_embeddings:
        if emb_matrix is None:
            raise ConfigError(
                "trainable embeddings need the embedding matrix at build time")
        model.emb = model.params.add("embeddings", emb_matrix.rows.copy())
    return model


def _conv_rows(model: Scorer, rng, max_query_terms: int, max_doc_terms: int,
               max_kernel: int, filters: int, k: int):
    """Register PACRR's filters; return the rows stage and its row width.

    Per query row of the zero-padded max_query_terms x max_doc_terms cosine
    matrix: k-max of the raw cosine row (size-1 signal), then k-max of each
    conv output (sizes 2..max_kernel, relu, max over filters), then the
    softmax-normalized IDF appended after pooling.

    The rows equal that padded computation, but only the real blocks are
    convolved, all of a batch's at once.  A window wholly in the padding
    outputs the bias, so after relu and the max over filters every such
    cell holds the same constant.  Each kernel therefore convolves a stack
    of the real blocks and their borders, plus k columns and one row of
    padding past the batch's longest document and query: a row's k-max
    stops at its own k padding columns (ties go to the earlier index), so
    more padding only adds ties, and a pair's padding row stands in for
    every query row below it.
    """
    convs = [(n, model.params.add(f"conv{n}.w", glorot_uniform(
                  rng, n * n, n * n, (filters, n, n))),
              model.params.add(f"conv{n}.b", np.zeros(filters)))
             for n in range(2, max_kernel + 1)]

    def rows(model, batch, contexts):
        # Looked up at call time, so a wrapper put on autodiff.conv2d (the
        # benchmark's tracer) sees every call.
        from ..autodiff import conv2d

        pairs = batch.pairs
        nq = np.minimum([len(p.q.ids) for p in pairs], max_query_terms)
        nd = np.minimum([len(p.d.ids) for p in pairs], max_doc_terms)
        # Each pair's matrix is zero past its real block, so the stack's
        # top-left corner holds every block with zeros around it.
        sims = np.stack([sim_matrix(p.q.emb, p.d.emb, max_query_terms,
                                    max_doc_terms)[:, :nd.max() + k]
                         for p in pairs])
        blocks = sims[:, :nq.max(), :nd.max()]
        feats = [Tensor(sims).kmax(k)]
        for n, w, b in convs:
            top = (n - 1) // 2
            heights = np.minimum(nq + top + 1, max_query_terms)
            width = min(nd.max() + top + k, max_doc_terms)
            x = np.zeros((len(pairs), heights.max() + n - 1, width + n - 1))
            x[:, top:top + blocks.shape[1], top:top + blocks.shape[2]] = blocks
            pooled = conv2d(x, w, b).relu().max(axis=1).kmax(k)
            feats.append(pooled[np.arange(len(pairs))[:, None], np.minimum(
                np.arange(max_query_terms), heights[:, None] - 1)])
        feats.append(Tensor(np.stack([softmax_idf(p.q.idf, max_query_terms)
                                      for p in pairs])[..., None]))
        return concat(feats, axis=-1)

    return rows, max_kernel * k + 1


# ---------------------------------------------------------------------------
# The registry: one builder per model, keyword arguments = hyperparameters
# ---------------------------------------------------------------------------


def _drmm(dim: int, rng, buckets: int = 30, hidden=None,
          gate_mode: str = "emb+idf") -> Scorer:
    """Bucketed-cosine histograms under a gate.  Histograms are built outside
    the graph: no gradient reaches the embeddings, only the head and gate."""
    edges = histogram_edges(buckets)

    def rows(model, batch, contexts):
        return Tensor(np.log1p(batch.pad("q", [
            np.stack([drmm_histogram(q_vec, pair.d.emb, edges)
                      for q_vec in pair.q.emb]) for pair in batch.pairs])))

    if hidden is None:
        hidden = (buckets, buckets)
    return _gated_head(Scorer(rows), "mlp", buckets, hidden, dim, rng, gate_mode)


def _conv(aggregation: str):
    """Builder of a PACRR model: convolutional rows, then either flattened
    and scored by one dense stack (``"flat"``, pacrr) or scored one row at
    a time by a shared stack and mixed linearly (``"linear"``, pacrr-drmm)."""

    def build(dim: int, rng, max_query_terms: int = 30,
              max_doc_terms: int = 300, max_kernel: int = 3, filters: int = 16,
              k: int = 2, hidden=()) -> Scorer:
        model = Scorer()
        model.rows_stage, width = _conv_rows(model, rng, max_query_terms,
                                             max_doc_terms, max_kernel, filters, k)
        model.aggregation = aggregation
        if aggregation == "flat":
            model.head = model.register(
                "dense", Mlp(max_query_terms * width, hidden, rng))
            return model
        model.head = model.register("row_mlp", Mlp(width, hidden, rng))
        model.params.add("agg.w", glorot_uniform(rng, max_query_terms, 1,
                                                 max_query_terms))
        return model

    return build


def _attention(views):
    """Builder of a model that sums, over ``views``, the normalized Hadamard
    product of each q-term and its attended document vector."""

    def build(dim: int, rng, hidden=None, gate_mode: str = "emb+idf",
              dropout: float = 0.0, trainable_embeddings: bool = False,
              emb_matrix=None) -> Scorer:
        width = 2 * dim

        def rows(model, batch, contexts):
            phi = None
            for view in views:
                q, d = model.view(view, batch, contexts)
                if view == "embedding":  # duplicated to the encodings' width
                    q, d = concat([q, q], axis=-1), concat([d, d], axis=-1)
                elif view == "hashed":  # one-hots as wide as the encodings
                    q, d = (Tensor(v) for v in hashed_match_vectors(q, d, width))
                signature = attended_match_vectors(q, d, batch.d_mask)
                phi = signature if phi is None else phi + signature
            return phi

        model = _encoder_scorer(rows, dim, rng, dropout, trainable_embeddings,
                                emb_matrix)
        if hidden is None:
            hidden = (width, width)
        return _gated_head(model, "mlp", width, hidden, dim, rng, gate_mode)

    return build


def _pooled(views):
    """Builder of a model that pools each view's cosine rows to
    <max, mean of k largest> per q-term, under a single linear layer."""

    def build(dim: int, rng, k: int = 5, gate_mode: str = "emb+idf",
              dropout: float = 0.0, trainable_embeddings: bool = False,
              emb_matrix=None) -> Scorer:
        def rows(model, batch, contexts):
            feats = []
            for view in views:
                q, d = model.view(view, batch, contexts)
                sims = (Tensor(equality_matrix(q, d)) if view == "exact"
                        else cosine_attention(q, d))
                feats.append(max_kmax_pool(sims, k, batch.d_mask[:, None, :]))
            return feats[0] if len(feats) == 1 else concat(feats, axis=-1)

        model = _encoder_scorer(rows, dim, rng, dropout, trainable_embeddings,
                                emb_matrix)
        return _gated_head(model, "dense", 2 * len(views), (), dim, rng, gate_mode)

    return build


_BUILDERS = {
    "drmm": _drmm,
    "pacrr": _conv("flat"),
    "pacrr-drmm": _conv("linear"),
    "attn-drmm": _attention(("context",)),
    "attn-drmm-mv": _attention(("context", "embedding", "hashed")),
    "pooled-drmm": _pooled(("context",)),
    "pooled-drmm-mv": _pooled(("context", "embedding", "exact")),
}


def model_names() -> list[str]:
    return sorted([*_BUILDERS, BASELINE])


# The values a hyperparameter may take: a rule maps the model's settings,
# its builder's defaults filled in, to (holds, what the value must be).
_RANGES = {
    "gate_mode": lambda s: (s["gate_mode"] in GATE_MODES, f"one of {GATE_MODES}"),
    "buckets": lambda s: (s["buckets"] >= 1, ">= 1"),
    "k": lambda s: ((1 <= s["k"] <= s["max_doc_terms"],
                     f"in [1, max_doc_terms={s['max_doc_terms']}]")
                    if "max_doc_terms" in s else (s["k"] >= 1, ">= 1")),
    "max_kernel": lambda s: (2 <= s["max_kernel"] <= s["max_query_terms"],
                             f"in [2, max_query_terms={s['max_query_terms']}]"),
    "filters": lambda s: (s["filters"] >= 1, ">= 1"),
    "dropout": lambda s: (0 <= s["dropout"] < 1, "in [0, 1)"),
}


def check_hyperparameters(name: str, hyper: dict) -> None:
    """Reject an unknown model, a hyperparameter its builder does not take
    (``bm25-extra`` takes none), one whose JSON type is not that of the
    builder's default, or a value outside its range (``_RANGES``); layer
    sizes (``hidden``) are positive integers.  The builders and the layers
    below them take these values as given."""
    if name not in model_names():
        raise ConfigError(f"unknown model {name!r}; choose from {model_names()}")
    if name == BASELINE:
        if hyper:
            raise ConfigError(
                f"{BASELINE} takes no hyperparameters, got {sorted(hyper)}")
        return
    defaults = {key: p.default for key, p in
                inspect.signature(_BUILDERS[name]).parameters.items()
                if key not in ("dim", "rng", "emb_matrix")}
    unknown = set(hyper) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown {name} hyperparameters {sorted(unknown)}; "
            f"accepted: {sorted(defaults)}")
    for key, value in hyper.items():
        field, default = f"hyperparameters.{key} of {name}", defaults[key]
        if default is not None and not isinstance(default, tuple):
            check_type(field, value, default)
        elif not (default is None and value is None
                  or isinstance(value, (list, tuple))
                  and all(type(v) is int and v >= 1 for v in value)):
            raise ConfigError(f"{field} must be a list of positive integers"
                              f"{' or null' if default is None else ''}, got {value!r}")
    settings = dict(defaults, **hyper)
    for key, rule in _RANGES.items():
        if key in settings:
            holds, want = rule(settings)
            if not holds:
                raise ConfigError(f"hyperparameters.{key} of {name} must be "
                                  f"{want}, got {settings[key]!r}")


def build_model(name: str, dim: int, rng, extra_features: bool = False,
                emb_matrix=None, **hyper) -> Scorer:
    """Construct a scorer by registry name, its hyperparameters checked up
    front so config typos fail loudly instead of silently using defaults.
    ``extra_features`` adds the linear mix with the extra features
    (``combine.*``) as the last stage.
    """
    check_hyperparameters(name, hyper)
    if name == BASELINE:
        model = Scorer()
    else:
        if hyper.get("trainable_embeddings"):
            hyper = dict(hyper, emb_matrix=emb_matrix)
        model = _BUILDERS[name](dim, rng, **hyper)
    model.name = name
    if name == BASELINE or extra_features:
        _add_extra(model)
    return model


def _add_extra(model: Scorer) -> None:
    """Mix the model score linearly with the four extra features."""
    if model.rows_stage is not None:
        model.name += "+extra"
        model.params.add("combine.w_model", np.ones(()))
    model.params.add("combine.w_extra", np.zeros(4))
    model.extra = True
