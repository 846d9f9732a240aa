"""Pre-trained word vectors: word2vec IO, corpus alignment, and exact-match keys.

Both word2vec encodings share the header line ``vocab_size dim``.  The text
body is one ``token v1 ... vdim`` line per entry; the binary body is
``token`` + one space + dim little-endian float32 values per entry, nothing
between entries.  Vectors are held as float64 after loading.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ConfigError, DataError
from .files import BinaryReader
from .text import OOV_ID, Vocabulary

FORMATS = ("text", "binary")

log = logging.getLogger(__name__)


class EmbeddingFormatError(DataError):
    """Raised when an embeddings file cannot be parsed."""


# ---------------------------------------------------------------------------
# word2vec files
# ---------------------------------------------------------------------------


def _read_header(r: BinaryReader):
    """Parse the ``vocab_size dim`` line; return both and the matrix to fill."""
    line = r.line()
    parts = line.split()
    if len(parts) != 2:
        raise r.fail(f"bad header {line!r}: expected 'vocab_size dim'", 0)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise r.fail(f"bad header {line!r}: non-integer field", 0) from None
    if count < 1 or dim < 1:
        raise r.fail(f"bad header {line!r}: counts must be positive", 0)
    if count * dim > r.size:  # every value takes at least one byte
        raise r.fail(f"bad header {line!r}: more values than the file holds", 0)
    return count, dim, np.empty((count, dim), dtype=np.float64)


def read_word2vec_text(path):
    """Parse the text encoding into (tokens, float64 matrix)."""
    tokens = []
    with BinaryReader(path, EmbeddingFormatError) as r:
        count, dim, matrix = _read_header(r)
        for r.entry in range(count):
            start = r.offset
            parts = r.line().split()
            if len(parts) != dim + 1:
                raise r.fail(f"expected {dim} values, got {len(parts) - 1}", start)
            tokens.append(parts[0])
            try:
                matrix[r.entry] = [float(v) for v in parts[1:]]
            except ValueError:
                raise r.fail("non-numeric value", start) from None
        r.end()
    return tokens, matrix


def read_word2vec_binary(path):
    """Parse the binary encoding into (tokens, float64 matrix)."""
    tokens = []
    with BinaryReader(path, EmbeddingFormatError) as r:
        count, dim, matrix = _read_header(r)
        for r.entry in range(count):
            tokens.append(r.line(b" ", "token"))
            matrix[r.entry] = r.array("<f4", (dim,))
        r.end()
    return tokens, matrix


def write_word2vec_text(path, tokens, matrix) -> None:
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {matrix.shape[1]}\n")
        for tok, row in zip(tokens, matrix):
            fh.write(tok + " " + " ".join(repr(float(v)) for v in row) + "\n")


def write_word2vec_binary(path, tokens, matrix) -> None:
    matrix = np.asarray(matrix)
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {matrix.shape[1]}\n".encode("utf-8"))
        for tok, row in zip(tokens, matrix):
            fh.write(tok.encode("utf-8") + b" ")
            fh.write(np.asarray(row, dtype="<f4").tobytes())


def read_word2vec(path, fmt: str = "text"):
    if fmt == "text":
        return read_word2vec_text(path)
    if fmt == "binary":
        return read_word2vec_binary(path)
    raise ConfigError(f"unknown embeddings format {fmt!r}; choose from {FORMATS}")


# ---------------------------------------------------------------------------
# Corpus alignment
# ---------------------------------------------------------------------------


class EmbeddingMatrix:
    """Embedding rows aligned to a corpus vocabulary.

    Holds len(vocabulary)+1 rows; the extra final row is the shared vector
    for every term without a pre-trained embedding (the mean of all loaded
    vectors).  ``resolve`` maps any term id, including OOV_ID, onto a
    valid row, so downstream code never needs a special case.
    """

    def __init__(self, rows: np.ndarray, covered: int):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.covered = covered

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def oov_row(self) -> int:
        return self.rows.shape[0] - 1

    def resolve(self, term_ids) -> np.ndarray:
        """Row indices for a term-id sequence, OOV ids mapped to the OOV row."""
        ids = np.asarray(term_ids, dtype=np.int64)
        return np.where((ids >= 0) & (ids < self.oov_row), ids, self.oov_row)


def align_embeddings(tokens, matrix, vocabulary: Vocabulary) -> EmbeddingMatrix:
    """Map file rows onto vocabulary ids; absent terms share the mean vector."""
    matrix = np.asarray(matrix, dtype=np.float64)
    oov = matrix.mean(axis=0)
    by_token = {tok: i for i, tok in enumerate(tokens)}
    rows = np.empty((len(vocabulary) + 1, matrix.shape[1]), dtype=np.float64)
    covered = 0
    for tid, tok in enumerate(vocabulary.tokens()):
        i = by_token.get(tok)
        if i is None:
            rows[tid] = oov
        else:
            rows[tid] = matrix[i]
            covered += 1
    rows[-1] = oov
    return EmbeddingMatrix(rows, covered)


def load_embeddings(path, vocabulary: Vocabulary, fmt: str = "text") -> EmbeddingMatrix:
    """Read and align a word2vec file; a file that gives no vocabulary term
    a vector is a DataError, since every term would get the same one."""
    tokens, matrix = read_word2vec(path, fmt)
    emb = align_embeddings(tokens, matrix, vocabulary)
    if not emb.covered:
        raise DataError(f"{path}: no token is a corpus vocabulary term")
    log.info("%s: %d of %d vocabulary terms have a vector",
             path, emb.covered, len(vocabulary))
    return emb


# ---------------------------------------------------------------------------
# Exact-match keys
# ---------------------------------------------------------------------------


def exact_match_keys(query, doc):
    """Equality keys for the exact-match view.

    In-vocabulary terms are keyed by id.  Query terms outside the vocabulary
    are keyed by surface token, so they can never equal a document term but
    repeated unseen tokens still share a key.
    """
    q_keys = []
    for i, tid in enumerate(query.terms):
        if tid == OOV_ID:
            tok = query.tokens[i] if i < len(query.tokens) else f"\x00{i}"
            q_keys.append(("oov", tok))
        else:
            q_keys.append(("id", tid))
    d_keys = [("id", tid) for tid in doc.terms]
    return q_keys, d_keys
