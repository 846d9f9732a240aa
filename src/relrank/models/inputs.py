"""Per-pair inputs assembled once and consumed by any scorer, and the
padded batch that scores many of them in one pass."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..embeddings import EmbeddingMatrix, exact_match_keys
from ..text import IdfTable, ProcessedDocument, ProcessedQuery


class KeyCodes(dict):
    """Exact-match key -> int code, filled on first lookup.

    A code is the key's CRC-32 (of its ``repr``) shifted left by 16 bits,
    plus the number of earlier keys of this table with the same CRC: equal
    codes mean equal keys, and ``code >> 16`` is the CRC that the hashed
    one-hots fold into their width.  Each distinct key is hashed once per
    table; a ``PairBuilder`` keeps one for all its pairs.
    """

    def __init__(self):
        super().__init__()
        self._crcs: dict[int, int] = {}  # CRC -> keys seen with it

    def __missing__(self, key) -> int:
        crc = zlib.crc32(repr(key).encode("utf-8"))
        rank = self._crcs.get(crc, 0)
        self._crcs[crc] = rank + 1
        code = self[key] = crc << 16 | rank
        return code

    def codes(self, keys) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, keys), dtype=np.int64,
                           count=len(keys))


@dataclass
class PairInput:
    """Everything a scorer may need for one query-document pair."""

    query_id: str
    doc_id: str
    q_emb: np.ndarray    # (n, dim) pre-trained vectors
    d_emb: np.ndarray    # (m, dim)
    q_idf: np.ndarray    # (n,)
    q_rows: np.ndarray   # (n,) embedding-matrix row indices
    d_rows: np.ndarray   # (m,)
    q_keys: list         # exact-match equality keys
    d_keys: list
    extra: np.ndarray | None = None  # (4,) extra features when enabled
    key_codes: KeyCodes | None = field(default=None, repr=False, compare=False)

    @cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The query's and the document's keys as codes of ``key_codes`` (a
        table of their own when None), coded on first read: only the
        exact-match view reads them."""
        table = KeyCodes() if self.key_codes is None else self.key_codes
        return table.codes(self.q_keys), table.codes(self.d_keys)


def build_pair_input(query: ProcessedQuery, doc: ProcessedDocument,
                     emb: EmbeddingMatrix, idf: IdfTable,
                     extra: np.ndarray | None = None,
                     key_codes: KeyCodes | None = None) -> PairInput:
    q_rows = emb.resolve(query.terms)
    d_rows = emb.resolve(doc.terms)
    q_keys, d_keys = exact_match_keys(query, doc)
    return PairInput(
        query_id=query.query_id,
        doc_id=doc.doc_id,
        q_emb=emb.rows[q_rows],
        d_emb=emb.rows[d_rows],
        q_idf=idf.for_terms(query.terms),
        q_rows=q_rows,
        d_rows=d_rows,
        q_keys=q_keys,
        d_keys=d_keys,
        extra=extra,
        key_codes=key_codes,
    )


class PairBatch:
    """Pairs padded together: the query side ``"q"`` to the batch's longest
    query, the document side ``"d"`` to its longest document.  A side's
    mask, (B, longest), marks the real terms."""

    def __init__(self, pairs: list[PairInput]):
        self.pairs = list(pairs)
        self.q_mask = _mask([len(p.q_emb) for p in self.pairs])
        self.d_mask = _mask([len(p.d_emb) for p in self.pairs])

    def mask(self, side: str) -> np.ndarray:
        return self.q_mask if side == "q" else self.d_mask

    def pad(self, side: str, values, fill=0) -> np.ndarray:
        """One array per pair, its first axis along the side, laid onto the
        side's mask with ``fill`` in the padding: (B, longest, ...).
        ``values`` is the list, or a field of the side (``"emb"`` reads
        each pair's ``q_emb`` or ``d_emb``)."""
        if isinstance(values, str):
            values = [getattr(p, f"{side}_{values}") for p in self.pairs]
        mask = self.mask(side)
        packed = np.concatenate(values)
        out = np.full(mask.shape + packed.shape[1:], fill, dtype=packed.dtype)
        out[mask] = packed
        return out


def _mask(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    return np.arange(lengths.max(initial=0)) < lengths[:, None]
