"""Interaction signals shared by the scoring architectures.

Anything that must carry gradients (attention, pooling, gating) works on
autodiff tensors; fixed signals (histograms, similarity matrices over frozen
embeddings, exact-match comparisons) are plain numpy.

The views, the pooling and the gate take one pair, (n, w) query rows and
(m, w) document rows, or a padded batch of pairs, (B, n, w) and (B, m, w),
with a mask of the real document terms.  Padding never wins a max and
takes no attention or gate mass, and every real row keeps the bits it has
for its pair alone.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, einsum, l2_normalize_rows, stack


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


def term_gate(feats: Tensor, w_gate: Tensor, mask=None) -> Tensor:
    """Softmax attention over the query terms (the last axis of the
    result), restricted to ``mask``'s real terms; each row sums to 1."""
    return einsum("...f,f->...", feats, w_gate).softmax(mask=mask)


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


def attended_match_vectors(q_ctx: Tensor, d_ctx: Tensor, d_mask=None) -> Tensor:
    """Per-q-term Hadamard signature of the attended document vector.

    Attention is a softmax over dot products with the real document terms
    (``d_mask``, (B, m), in a batch); the attended document vector and the
    q-term encoding are unit-normalized and multiplied elementwise, so the
    components sum to their cosine.  With rows at least 2 wide the
    attended vector adds the document terms in order, so padding, whose
    weight is 0, leaves its bits; 1-wide rows are refused, as numpy adds
    those in SIMD blocks that padding regroups.
    """
    if d_ctx.shape[-1] < 2:
        raise ValueError(f"attention rows must be at least 2 wide, got {d_ctx.shape}")
    logits = einsum("...qw,...dw->...qd", q_ctx, d_ctx)
    weights = logits.softmax(mask=None if d_mask is None else d_mask[..., None, :])
    attended = einsum("...qd,...dw->...qw", weights, d_ctx)
    return l2_normalize_rows(attended) * l2_normalize_rows(q_ctx)


def cosine_attention(q_ctx: Tensor, d_ctx: Tensor) -> Tensor:
    """Unnormalized attention: plain cosine of every q-term/d-term pair."""
    return einsum("...qw,...dw->...qd", l2_normalize_rows(q_ctx),
                  l2_normalize_rows(d_ctx))


def max_kmax_pool(scores: Tensor, k: int, mask=None) -> Tensor:
    """Row-wise <max, mean of k largest> along the last axis; k is capped
    at the row's real length, the cells ``mask`` (broadcast to the shape)
    marks in a padded batch.

    The max is the k-max's first column: the same element as ``max`` picks,
    since both take the earlier index on ties."""
    if scores.ndim < 2 or scores.shape[-1] < 1:
        raise ValueError(f"expected a nonempty (n, m) score matrix, got {scores.shape}")
    real = scores.shape[-1]
    if mask is not None:
        real = np.count_nonzero(np.broadcast_to(mask, scores.shape), axis=-1)
        if not np.all(real):
            raise ValueError("max_kmax_pool over a row with no real cell")
    top = scores.kmax(min(k, scores.shape[-1]), mask)
    return stack([top[..., 0], top.sum(axis=-1) * (1.0 / np.minimum(k, real))],
                 axis=-1)


# ---------------------------------------------------------------------------
# Exact-match signals
# ---------------------------------------------------------------------------


def equality_matrix(q_ids: np.ndarray, d_ids: np.ndarray) -> np.ndarray:
    """{0,1} matrix of term-id equality, (..., n) and (..., m) term ids to
    (..., n, m); the cosine matrix of one-hots.  OOV_ID and a padded
    batch's padding, both -1, match nothing."""
    q = q_ids[..., :, None]
    return ((q == d_ids[..., None, :]) & (q >= 0)).astype(np.float64)


def hashed_match_vectors(q_crcs: np.ndarray, d_crcs: np.ndarray, width: int):
    """Exact-match one-hots folded into a fixed width by hashing: a term
    lands in slot ``crc % width`` (``SideInput.crcs``), padding (-1) in none.

    Equal terms always collide onto the same slot; unequal terms may rarely
    collide too, which trades exactness for a width the attention pipeline
    can consume alongside the other views.
    """
    out = []
    for crcs in (q_crcs, d_crcs):
        hot = np.zeros(crcs.shape + (width,))
        real = crcs >= 0
        hot[real, crcs[real] % width] = 1.0
        out.append(hot)
    return tuple(out)
