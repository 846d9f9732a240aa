"""Interaction signals shared by the scoring architectures.

Anything that must carry gradients (attention, pooling, gating) works on
autodiff tensors; fixed signals (histograms, similarity matrices over frozen
embeddings, exact-match comparisons) are plain numpy.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..autodiff import Tensor, l2_normalize_rows, stack


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosines between row sets; zero-norm rows score 0 everywhere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    an = np.divide(a, na, out=np.zeros_like(a), where=na > 0)
    bn = np.divide(b, nb, out=np.zeros_like(b), where=nb > 0)
    return an @ bn.T


# ---------------------------------------------------------------------------
# Bucketed similarity histograms
# ---------------------------------------------------------------------------


def histogram_edges(buckets: int) -> np.ndarray:
    """Equal-width bucket boundaries over [-1, 1]."""
    return np.linspace(-1.0, 1.0, buckets + 1)


def drmm_histogram(q_vec: np.ndarray, d_vecs: np.ndarray,
                   edges: np.ndarray) -> np.ndarray:
    """Raw counts of d-terms per cosine bucket.

    Buckets are half-open [lo, hi) with the final bucket closed at 1.0, so a
    cosine exactly on an interior boundary lands in the upper bucket.
    """
    cos = cosine_rows(np.asarray(q_vec)[None, :], d_vecs)[0]
    idx = np.clip(np.searchsorted(edges, cos, side="right") - 1, 0, len(edges) - 2)
    return np.bincount(idx, minlength=len(edges) - 1).astype(np.float64)


# ---------------------------------------------------------------------------
# Query-term gating
# ---------------------------------------------------------------------------


def term_gate(feats: Tensor, w_gate: Tensor) -> Tensor:
    """Softmax attention over query terms; output sums to 1."""
    return (feats @ w_gate).softmax()


# ---------------------------------------------------------------------------
# Similarity matrix for the convolutional models
# ---------------------------------------------------------------------------


def sim_matrix(q_emb: np.ndarray, d_emb: np.ndarray,
               max_q: int, max_d: int) -> np.ndarray:
    """Fixed-size cosine matrix; overlong sides truncated, short sides
    padded with 0 (neutral under max pooling against positive matches).

    The fixed size is PACRR's definition.  Its rows stage reads only the
    real block, the top-left min(len, max) rows and columns, and the padding
    next to it, with the result of reading the whole matrix."""
    out = np.zeros((max_q, max_d), dtype=np.float64)
    block = cosine_rows(q_emb[:max_q], d_emb[:max_d])
    out[: block.shape[0], : block.shape[1]] = block
    return out


def softmax_idf(q_idf: np.ndarray, max_q: int) -> np.ndarray:
    """Softmax over the real query terms' IDF values, padded with 0."""
    out = np.zeros(max_q, dtype=np.float64)
    z = np.asarray(q_idf, dtype=np.float64)[:max_q]
    e = np.exp(z - z.max())
    out[: len(z)] = e / e.sum()
    return out


# ---------------------------------------------------------------------------
# Attention pooling
# ---------------------------------------------------------------------------


def attended_match_vectors(q_ctx: Tensor, d_ctx: Tensor) -> Tensor:
    """Per-q-term Hadamard signature of the attended document vector.

    Attention is a softmax over dot products; the attended document vector
    and the q-term encoding are unit-normalized and multiplied elementwise,
    so the components sum to their cosine.
    """
    logits = q_ctx @ d_ctx.T
    attended = logits.softmax(axis=1) @ d_ctx
    return l2_normalize_rows(attended) * l2_normalize_rows(q_ctx)


def cosine_attention(q_ctx: Tensor, d_ctx: Tensor) -> Tensor:
    """Unnormalized attention: plain cosine of every q-term/d-term pair."""
    return l2_normalize_rows(q_ctx) @ l2_normalize_rows(d_ctx).T


def max_kmax_pool(scores: Tensor, k: int) -> Tensor:
    """Row-wise <max, mean of k largest>; k is capped at the row length.

    The max is the k-max's first column: the same element as ``max``
    picks, since both take the earlier index on ties."""
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError(f"expected a nonempty (n, m) score matrix, got {scores.shape}")
    top = scores.kmax(min(k, scores.shape[1]))
    return stack([top[:, 0], top.mean(axis=1)], axis=1)


# ---------------------------------------------------------------------------
# Exact-match signals
# ---------------------------------------------------------------------------


def equality_matrix(q_keys, d_keys) -> np.ndarray:
    """{0,1} matrix of exact key equality; the cosine matrix of one-hots."""
    out = np.zeros((len(q_keys), len(d_keys)), dtype=np.float64)
    for i, qk in enumerate(q_keys):
        for j, dk in enumerate(d_keys):
            if qk == dk:
                out[i, j] = 1.0
    return out


def _hash_slot(key, width: int) -> int:
    return zlib.crc32(repr(key).encode("utf-8")) % width


def hashed_match_vectors(q_keys, d_keys, width: int):
    """Exact-match one-hots folded into a fixed width by hashing.

    Equal keys always collide onto the same slot; unequal keys may rarely
    collide too, which trades exactness for a width the attention pipeline
    can consume alongside the other views.
    """
    qv = np.zeros((len(q_keys), width), dtype=np.float64)
    dv = np.zeros((len(d_keys), width), dtype=np.float64)
    for i, key in enumerate(q_keys):
        qv[i, _hash_slot(key, width)] = 1.0
    for j, key in enumerate(d_keys):
        dv[j, _hash_slot(key, width)] = 1.0
    return qv, dv
