"""Model inputs: one per query and one per document, built once and shared
by every pair that reads them, the pair that joins two of them, and the
padded batch that scores many pairs in one pass."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..embeddings import EmbeddingMatrix
from ..text import OOV_ID, IdfTable
from .features import ExtraFeatureBuilder


@dataclass(eq=False)
class SideInput:
    """One query's or one document's per-term inputs; its arrays are
    read-only, as every pair that holds the side shares them."""

    ids: np.ndarray    # (n,) term ids; OOV_ID for a query term outside the vocabulary
    rows: np.ndarray   # (n,) embedding-matrix row indices
    emb: np.ndarray    # (n, dim) pre-trained vectors
    idf: np.ndarray | None  # (n,) a query's IDF values; None for a document
    tokens: list | None     # a query's surface tokens; None for a document
    id_crcs: dict           # term id -> CRC, shared by the builder's sides

    def __post_init__(self):
        for values in (self.ids, self.rows, self.emb, self.idf):
            if values is not None:
                values.flags.writeable = False

    @cached_property
    def crcs(self) -> np.ndarray:
        """(n,) CRC-32 of each term's exact-match key, worked out when the
        hashed view first reads them: ``("id", tid)``, hashed once per table
        ``id_crcs``, or ``("oov", token)`` for a query term outside the
        vocabulary, which matches no document term but keeps its slot."""
        crcs = np.empty(len(self.ids), dtype=np.int64)
        for i, tid in enumerate(self.ids.tolist()):
            if self.tokens is not None and tid == OOV_ID:
                token = self.tokens[i] if i < len(self.tokens) else f"\x00{i}"
                crcs[i] = _crc(("oov", token))
            else:
                if tid not in self.id_crcs:
                    self.id_crcs[tid] = _crc(("id", tid))
                crcs[i] = self.id_crcs[tid]
        crcs.flags.writeable = False
        return crcs

    @cached_property
    def terms(self) -> set:
        """The distinct term ids, as the extra features read a document."""
        return set(self.ids.tolist())

    @cached_property
    def bigrams(self) -> set:
        """The distinct pairs of adjacent term ids."""
        ids = self.ids.tolist()
        return set(zip(ids, ids[1:]))


def side_input(terms, emb: EmbeddingMatrix, id_crcs: dict, tokens,
               idf: IdfTable | None) -> SideInput:
    """The inputs of a query's ``terms``, with its ``tokens`` and the
    ``idf`` table, or of a document's, with None for both; ``id_crcs`` is
    the table its :attr:`SideInput.crcs` reads and fills."""
    ids = np.asarray(terms, dtype=np.int64)
    rows = emb.resolve(ids)
    return SideInput(ids, rows, emb.rows[rows],
                     None if idf is None else idf.for_terms(terms), tokens, id_crcs)


def _crc(key) -> int:
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass
class PairInput:
    """One query-document pair: its two shared sides and its extra features."""

    query_id: str
    doc_id: str
    q: SideInput
    d: SideInput
    extra: np.ndarray | None = None  # (4,) extra features when enabled


def build_pair_input(query_id: str, doc_id: str, q: SideInput, d: SideInput,
                     features: ExtraFeatureBuilder | None) -> PairInput:
    """Join a query's and a document's inputs, with the pair's extra
    features when ``features`` (the query's ``ExtraFeatureBuilder``) is given."""
    extra = None if features is None else features.feature_array(doc_id, q, d)
    return PairInput(query_id, doc_id, q, d, extra)


class PairBatch:
    """Pairs padded together: the query side ``"q"`` to the batch's longest
    query, the document side ``"d"`` to its longest document.  A side's
    mask, (B, longest), marks the real terms."""

    def __init__(self, pairs: list[PairInput]):
        self.pairs = list(pairs)
        self.q_mask = _mask([len(p.q.ids) for p in self.pairs])
        self.d_mask = _mask([len(p.d.ids) for p in self.pairs])

    def mask(self, side: str) -> np.ndarray:
        return self.q_mask if side == "q" else self.d_mask

    def pad(self, side: str, values, fill=0) -> np.ndarray:
        """One array per pair, its first axis along the side, laid onto the
        side's mask with ``fill`` in the padding: (B, longest, ...).
        ``values`` is the list, or the name of a :class:`SideInput` field
        (``"emb"`` reads each pair's ``q.emb`` or ``d.emb``)."""
        if isinstance(values, str):
            values = [getattr(getattr(p, side), values) for p in self.pairs]
        mask = self.mask(side)
        packed = np.concatenate(values)
        out = np.full(mask.shape + packed.shape[1:], fill, dtype=packed.dtype)
        out[mask] = packed
        return out


def _mask(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    return np.arange(lengths.max(initial=0)) < lengths[:, None]
