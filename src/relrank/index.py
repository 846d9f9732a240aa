"""Inverted index with BM25 scoring, top-N retrieval, and the oracle ceiling.

The index is immutable once built.  Documents are held in ascending doc_id
order, so posting lists (sorted by internal document position) are also
sorted by doc_id, and the global tie-break rule (ascending doc_id) falls out
of a stable sort over positions.
"""

from __future__ import annotations

import json
import struct
from collections import Counter

import numpy as np

from .errors import ConfigError, DataError
from .files import atomic_open
from .text import IdfTable, Vocabulary
from .trec import Candidate, Qrels, RankedList

K1_DEFAULT = 1.2
B_DEFAULT = 0.75

_MAGIC = b"RRIX"
_VERSION = 1


class IndexFormatError(DataError):
    """Raised when a persisted index file cannot be decoded."""


class InvertedIndex:
    """Postings, document statistics, vocabulary, and IDF for one corpus."""

    def __init__(self, doc_ids, doc_lengths, dates, postings,
                 vocabulary: Vocabulary, idf: IdfTable,
                 stemmer: str = "", stopword_hash: str = "", corpus_digest: str = ""):
        self.doc_ids: list[str] = list(doc_ids)
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        self.dates: list[str | None] = list(dates)
        self.postings: list[np.ndarray] = postings
        self.vocabulary = vocabulary
        self.idf = idf
        self.stemmer = stemmer
        self.stopword_hash = stopword_hash
        self.corpus_digest = corpus_digest
        self.avg_doc_length = float(self.doc_lengths.mean())
        self._positions = {did: i for i, did in enumerate(self.doc_ids)}

    def __len__(self) -> int:
        return len(self.doc_ids)

    def position_of(self, doc_id: str) -> int:
        try:
            return self._positions[doc_id]
        except KeyError:
            raise DataError(f"unknown doc_id {doc_id!r}")

    def term_frequency(self, term_id: int, position: int) -> int:
        """tf of a term in the document at the given position (0 if absent)."""
        if not 0 <= term_id < len(self.postings):
            return 0
        plist = self.postings[term_id]
        i = np.searchsorted(plist[:, 0], position)
        if i < plist.shape[0] and plist[i, 0] == position:
            return int(plist[i, 1])
        return 0


def build_index(documents, vocabulary: Vocabulary, idf: IdfTable,
                stemmer: str = "", stopword_hash: str = "",
                corpus_digest: str = "") -> InvertedIndex:
    """Build an index over processed documents.

    Raises DataError on duplicate doc ids and ConfigError on an empty corpus.
    """
    documents = list(documents)
    if not documents:
        raise ConfigError("cannot index an empty corpus")
    seen = set()
    for doc in documents:
        if doc.doc_id in seen:
            raise DataError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
    documents.sort(key=lambda d: d.doc_id)

    term_lists: dict[int, list[tuple[int, int]]] = {}
    lengths = []
    dates = []
    for pos, doc in enumerate(documents):
        lengths.append(len(doc.terms))
        dates.append(doc.date)
        for tid, tf in Counter(doc.terms).items():
            term_lists.setdefault(tid, []).append((pos, tf))
    postings = []
    for tid in range(len(vocabulary)):
        rows = term_lists.get(tid, [])
        postings.append(np.array(rows, dtype=np.int64).reshape(len(rows), 2))
    return InvertedIndex([d.doc_id for d in documents], lengths, dates, postings,
                         vocabulary, idf, stemmer, stopword_hash, corpus_digest)


# ---------------------------------------------------------------------------
# Scoring and retrieval
# ---------------------------------------------------------------------------


def bm25_score(query, doc_id: str, index: InvertedIndex,
               k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> float:
    """BM25 score of one document; additive over query terms, 0 for terms
    absent from the document (including out-of-vocabulary terms)."""
    pos = index.position_of(doc_id)
    dl = float(index.doc_lengths[pos])
    norm = k1 * (1.0 - b + b * dl / index.avg_doc_length)
    score = 0.0
    for tid in query.terms:
        tf = index.term_frequency(tid, pos)
        if tf:
            score += index.idf.idf_of(tid) * tf * (k1 + 1.0) / (tf + norm)
    return score


def score_all(query, index: InvertedIndex,
              k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> np.ndarray:
    """BM25 scores for every document, in index position order."""
    scores = np.zeros(len(index), dtype=np.float64)
    dl = index.doc_lengths.astype(np.float64)
    norm = k1 * (1.0 - b + b * dl / index.avg_doc_length)
    for tid in query.terms:
        if not 0 <= tid < len(index.postings):
            continue
        plist = index.postings[tid]
        if plist.shape[0] == 0:
            continue
        pos = plist[:, 0]
        tf = plist[:, 1].astype(np.float64)
        scores[pos] += index.idf.idf_of(tid) * tf * (k1 + 1.0) / (tf + norm[pos])
    return scores


def retrieve_topn(query, index: InvertedIndex, n: int,
                  k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> RankedList:
    """Top-N documents by BM25, ties broken by ascending doc_id.

    A date cutoff on the query excludes documents dated after it (documents
    without a date always pass); lower-ranked documents fill the freed slots.
    """
    if n < 1:
        raise ConfigError(f"candidate count must be >= 1, got {n}")
    scores = score_all(query, index, k1, b)
    # Stable sort on -scores: equal scores keep position order == doc_id order.
    order = np.argsort(-scores, kind="stable")
    cutoff = getattr(query, "date_cutoff", None)
    entries = []
    for pos in order:
        if cutoff is not None:
            date = index.dates[pos]
            if date is not None and date > cutoff:
                continue
        entries.append(Candidate(index.doc_ids[pos], float(scores[pos]),
                                 len(entries) + 1))
        if len(entries) == n:
            break
    return RankedList(query.query_id, entries)


def oracle_rerank(candidates: RankedList, qrels: Qrels) -> RankedList:
    """Move judged-relevant candidates to the top, preserving relative order
    within the relevant and non-relevant groups.  Scores are reassigned as
    descending integers so the output is a valid ranked list on its own."""
    rel = [c for c in candidates.entries
           if qrels.is_relevant(candidates.query_id, c.doc_id)]
    non = [c for c in candidates.entries
           if not qrels.is_relevant(candidates.query_id, c.doc_id)]
    total = len(candidates.entries)
    entries = [Candidate(c.doc_id, float(total - i), i + 1)
               for i, c in enumerate(rel + non)]
    return RankedList(candidates.query_id, entries)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, fh):
        self.fh = fh
        self.offset = 0

    def read(self, size: int) -> bytes:
        buf = self.fh.read(size)
        if len(buf) != size:
            raise IndexFormatError(
                f"truncated index file: wanted {size} bytes at offset "
                f"{self.offset}, got {len(buf)}")
        self.offset += size
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def _write_str(fh, s: str, fmt: str = "<H") -> None:
    data = s.encode("utf-8")
    fh.write(struct.pack(fmt, len(data)))
    fh.write(data)


def _read_str(r: _Reader, fmt: str = "<H") -> str:
    (n,) = r.unpack(fmt)
    return r.read(n).decode("utf-8")


def save_index(index: InvertedIndex, path) -> None:
    """Write the versioned binary index file (layout in docs/formats.md)."""
    meta = {
        "stemmer": index.stemmer,
        "stopword_hash": index.stopword_hash,
        "corpus_digest": index.corpus_digest,
        "doc_count": len(index),
        "vocab_size": len(index.vocabulary),
        "idf_doc_count": index.idf.doc_count,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for token in index.vocabulary.tokens():
            _write_str(fh, token)
        for i, did in enumerate(index.doc_ids):
            _write_str(fh, did)
            fh.write(struct.pack("<I", int(index.doc_lengths[i])))
            _write_str(fh, index.dates[i] or "")
        fh.write(np.ascontiguousarray(index.idf.values, dtype="<f8").tobytes())
        for plist in index.postings:
            fh.write(struct.pack("<I", plist.shape[0]))
            fh.write(np.ascontiguousarray(plist, dtype="<i8").tobytes())


def load_index(path) -> InvertedIndex:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.read(4)
        if magic != _MAGIC:
            raise IndexFormatError(f"bad magic {magic!r}; not an index file")
        (version,) = r.unpack("<I")
        if version != _VERSION:
            raise IndexFormatError(f"unsupported index format version {version}")
        (meta_len,) = r.unpack("<I")
        try:
            meta = json.loads(r.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexFormatError(f"corrupt metadata block: {exc}") from exc
        vocab = Vocabulary(_read_str(r) for _ in range(meta["vocab_size"]))
        doc_ids, lengths, dates = [], [], []
        for _ in range(meta["doc_count"]):
            doc_ids.append(_read_str(r))
            (length,) = r.unpack("<I")
            lengths.append(length)
            date = _read_str(r)
            dates.append(date or None)
        idf_values = np.frombuffer(r.read(8 * meta["vocab_size"]), dtype="<f8")
        idf = IdfTable(idf_values.copy(), meta["idf_doc_count"])
        postings = []
        for _ in range(meta["vocab_size"]):
            (count,) = r.unpack("<I")
            rows = np.frombuffer(r.read(16 * count), dtype="<i8")
            postings.append(rows.reshape(count, 2).astype(np.int64))
        extra = fh.read(1)
        if extra:
            raise IndexFormatError(f"trailing bytes at offset {r.offset}")
    return InvertedIndex(doc_ids, lengths, dates, postings, vocab, idf,
                         meta["stemmer"], meta["stopword_hash"],
                         meta["corpus_digest"])
