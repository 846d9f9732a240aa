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

``score`` returns a scalar autodiff tensor so the training loop can
backpropagate through it.  ``doc_state`` returns the per-document value
worth caching while parameters are frozen (the recurrent document
encoding), or None for models without one.  Each model holds its
parameters in one ParameterSet, registered in the order rows, head,
aggregation, ``combine.*``; that order is the checkpoint layout.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..autodiff import ParameterSet, Tensor, concat, dot, gather_rows, pad2d
from ..encoder import BiRnnEncoder
from ..errors import ConfigError
from .components import Mlp, glorot_uniform
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
from .inputs import PairInput

BASELINE = "bm25-extra"
MULTIVIEW = ("context", "embedding", "exact")
GATE_MODES = ("emb+idf", "emb", "idf")


class Scorer:
    """rows -> head -> aggregation, optionally mixed with the extra features.

    ``rows_stage(model, pair, doc_state, dropout_rng)`` returns the rows;
    it is None only for the baseline.  The builders below assemble one
    scorer per registry name.
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

    def _vectors(self, frozen: np.ndarray, rows: np.ndarray) -> Tensor:
        return Tensor(frozen) if self.emb is None else gather_rows(self.emb, rows)

    def view(self, name: str, pair: PairInput, doc_state=None, dropout_rng=None):
        """One view of the pair as (query side, document side): ``context``
        encodings, raw ``embedding`` vectors, or ``exact``-match keys."""
        if name == "exact":
            return pair.q_keys, pair.d_keys
        q = self._vectors(pair.q_emb, pair.q_rows)
        if name == "embedding":
            return q, self._vectors(pair.d_emb, pair.d_rows)
        q_ctx = self.encoder.encode(q, dropout_rng)
        if doc_state is not None:
            return q_ctx, Tensor(doc_state)
        return q_ctx, self.encoder.encode(self._vectors(pair.d_emb, pair.d_rows),
                                          dropout_rng)

    def rows(self, pair: PairInput, doc_state=None, dropout_rng=None) -> Tensor:
        """The document-aware rows: one per query term, or max_query_terms
        rows (padded or truncated) for the convolutional models."""
        return self.rows_stage(self, pair, doc_state, dropout_rng)

    def gate_inputs(self, pair: PairInput) -> Tensor:
        """Per-q-term gate inputs: embedding, IDF, or the two side by side."""
        idf = Tensor(pair.q_idf[:, None])
        if self.gate_mode == "idf":
            return idf
        q = self._vectors(pair.q_emb, pair.q_rows)
        return q if self.gate_mode == "emb" else concat([q, idf], axis=1)

    def doc_state(self, pair: PairInput):
        if self.encoder is None:
            return None
        return self.encoder.encode(self._vectors(pair.d_emb, pair.d_rows)).data

    def score(self, pair: PairInput, doc_state=None, dropout_rng=None) -> Tensor:
        p = self.params
        if not self.extra:
            return self._aggregate(pair, self.rows(pair, doc_state, dropout_rng))
        if pair.extra is None:
            raise ConfigError(
                f"model {self.name!r} needs extra features on every pair")
        total = dot(p["combine.w_extra"], Tensor(pair.extra)) + p["combine.b"]
        if self.rows_stage is None:
            return total
        base = self._aggregate(pair, self.rows(pair, doc_state, dropout_rng))
        return total + base * p["combine.w_model"]

    def _aggregate(self, pair: PairInput, rows: Tensor) -> Tensor:
        if self.aggregation == "flat":
            return self.head.rows(rows.reshape(1, rows.size))[0]
        row_scores = self.head.rows(rows)
        if self.aggregation == "linear":
            return dot(self.params["agg.w"], row_scores) + self.params["agg.b"]
        gates = term_gate(self.gate_inputs(pair), self.params["gate.w"])
        return dot(gates, row_scores)


# ---------------------------------------------------------------------------
# Stage assembly
# ---------------------------------------------------------------------------


def _gated_head(model: Scorer, prefix: str, width: int, hidden, dim: int,
                rng, gate_mode: str) -> Scorer:
    """Score each row with a shared Mlp, then gate over the query terms."""
    if gate_mode not in GATE_MODES:
        raise ConfigError(
            f"unknown gate mode {gate_mode!r}; choose from {GATE_MODES}")
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

    Per query row: k-max of the raw cosine row (size-1 signal), then k-max
    of each conv output (sizes 2..max_kernel, relu, max over filters), then
    the softmax-normalized IDF appended after pooling.
    """
    if not 2 <= max_kernel <= max_query_terms:
        raise ConfigError(
            f"kernel sizes must satisfy 2 <= max_kernel <= max_query_terms, "
            f"got max_kernel={max_kernel}, max_query_terms={max_query_terms}")
    if not 1 <= k <= max_doc_terms:
        raise ConfigError(
            f"k-max depth must satisfy 1 <= k <= max_doc_terms, got {k}")
    if filters < 1:
        raise ConfigError(f"need at least one filter, got {filters}")
    convs = [(n, model.params.add(f"conv{n}.w", glorot_uniform(
                  rng, n * n, n * n, (filters, n, n))),
              model.params.add(f"conv{n}.b", np.zeros(filters)))
             for n in range(2, max_kernel + 1)]

    def rows(model, pair, doc_state, dropout_rng):
        # Looked up at call time, so a wrapper put on autodiff.conv2d (the
        # benchmark's tracer) sees every call.
        from ..autodiff import conv2d

        sim = Tensor(sim_matrix(pair.q_emb, pair.d_emb, max_query_terms,
                                max_doc_terms))
        feats = [sim.kmax(k)]
        for n, w, b in convs:
            top = (n - 1) // 2
            bottom = n - 1 - top
            padded = pad2d(sim, (top, bottom), (top, bottom))
            feats.append(conv2d(padded, w, b).relu().max(axis=0).kmax(k))
        feats.append(Tensor(softmax_idf(pair.q_idf, max_query_terms)[:, None]))
        return concat(feats, axis=1)

    return rows, max_kernel * k + 1


# ---------------------------------------------------------------------------
# The registry: one builder per model, keyword arguments = hyperparameters
# ---------------------------------------------------------------------------


def _drmm(dim: int, rng, buckets: int = 30, hidden=None,
          gate_mode: str = "emb+idf") -> Scorer:
    """Bucketed-cosine histograms under a gate.  Histograms are built outside
    the graph: no gradient reaches the embeddings, only the head and gate."""
    edges = histogram_edges(buckets)

    def rows(model, pair, doc_state, dropout_rng):
        hists = np.stack([drmm_histogram(q_vec, pair.d_emb, edges)
                          for q_vec in pair.q_emb])
        return Tensor(np.log1p(hists))

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
        model.params.add("agg.b", np.zeros(()))
        return model

    return build


def _attention(views):
    """Builder of a model that sums, over ``views``, the normalized Hadamard
    product of each q-term and its attended document vector."""

    def build(dim: int, rng, hidden=None, gate_mode: str = "emb+idf",
              dropout: float = 0.0, trainable_embeddings: bool = False,
              emb_matrix=None) -> Scorer:
        width = 2 * dim

        def rows(model, pair, doc_state, dropout_rng):
            phi = None
            for view in views:
                q, d = model.view(view, pair, doc_state, dropout_rng)
                if view == "embedding":  # duplicated to the encodings' width
                    q, d = concat([q, q], axis=1), concat([d, d], axis=1)
                elif view == "exact":  # hashed one-hots
                    q, d = (Tensor(v) for v in hashed_match_vectors(q, d, width))
                signature = attended_match_vectors(q, d)
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
        if k < 1:
            raise ConfigError(f"pool depth must be >= 1, got {k}")

        def rows(model, pair, doc_state, dropout_rng):
            feats = []
            for view in views:
                q, d = model.view(view, pair, doc_state, dropout_rng)
                sims = (Tensor(equality_matrix(q, d)) if view == "exact"
                        else cosine_attention(q, d))
                feats.append(max_kmax_pool(sims, k))
            return feats[0] if len(feats) == 1 else concat(feats, axis=1)

        model = _encoder_scorer(rows, dim, rng, dropout, trainable_embeddings,
                                emb_matrix)
        return _gated_head(model, "dense", 2 * len(views), (), dim, rng, gate_mode)

    return build


_BUILDERS = {
    "drmm": _drmm,
    "pacrr": _conv("flat"),
    "pacrr-drmm": _conv("linear"),
    "attn-drmm": _attention(("context",)),
    "attn-drmm-mv": _attention(MULTIVIEW),
    "pooled-drmm": _pooled(("context",)),
    "pooled-drmm-mv": _pooled(MULTIVIEW),
}


def model_names() -> list[str]:
    return sorted([*_BUILDERS, BASELINE])


def build_model(name: str, dim: int, rng, extra_features: bool = False,
                emb_matrix=None, **hyper) -> Scorer:
    """Construct a scorer by registry name.

    Unknown hyperparameter keys are rejected up front so config typos fail
    loudly instead of silently using defaults.  ``extra_features`` adds the
    linear mix with the extra features (``combine.*``) as the last stage.
    """
    if name == BASELINE:
        if hyper:
            raise ConfigError(
                f"{BASELINE} takes no hyperparameters, got {sorted(hyper)}")
        model = Scorer()
    else:
        try:
            builder = _BUILDERS[name]
        except KeyError:
            raise ConfigError(f"unknown model {name!r}; choose from {model_names()}")
        accepted = set(inspect.signature(builder).parameters) - {"dim", "rng"}
        unknown = set(hyper) - accepted
        if unknown:
            raise ConfigError(
                f"unknown {name} hyperparameters {sorted(unknown)}; "
                f"accepted: {sorted(accepted - {'emb_matrix'})}")
        if hyper.get("trainable_embeddings"):
            hyper = dict(hyper, emb_matrix=emb_matrix)
        model = builder(dim, rng, **hyper)
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
    model.params.add("combine.b", np.zeros(()))
    model.extra = True
