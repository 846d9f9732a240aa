"""Pre-trained word vectors: word2vec IO, corpus alignment, and exact-match keys.

Both word2vec encodings share the header line ``vocab_size dim``.  The text
body is one ``token v1 ... vdim`` line per entry; the binary body is
``token`` + one space + dim little-endian float32 values per entry, nothing
between entries.  Vectors are held as float64 after loading.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .text import OOV_ID, Vocabulary

FORMATS = ("text", "binary")


class EmbeddingFormatError(DataError):
    """Raised when an embeddings file cannot be parsed."""


# ---------------------------------------------------------------------------
# word2vec files
# ---------------------------------------------------------------------------


def _parse_header(line: bytes, offset: int):
    parts = line.decode("utf-8", errors="replace").split()
    if len(parts) != 2:
        raise EmbeddingFormatError(
            f"bad header at byte {offset}: expected 'vocab_size dim', got {line!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError(
            f"bad header at byte {offset}: non-integer field in {line!r}")
    if count < 1 or dim < 1:
        raise EmbeddingFormatError(
            f"bad header at byte {offset}: counts must be positive, got {line!r}")
    return count, dim


def read_word2vec_text(path):
    """Parse the text encoding into (tokens, float64 matrix)."""
    tokens = []
    with open(path, "rb") as fh:
        offset = 0
        header = fh.readline()
        count, dim = _parse_header(header.strip(), offset)
        offset += len(header)
        matrix = np.empty((count, dim), dtype=np.float64)
        for i in range(count):
            line = fh.readline()
            if not line:
                raise EmbeddingFormatError(
                    f"truncated file at byte {offset}: expected {count} entries, got {i}")
            parts = line.decode("utf-8").split()
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"entry {i} at byte {offset}: expected {dim} values, "
                    f"got {len(parts) - 1}")
            tokens.append(parts[0])
            try:
                matrix[i] = [float(v) for v in parts[1:]]
            except ValueError:
                raise EmbeddingFormatError(
                    f"entry {i} at byte {offset}: non-numeric value")
            offset += len(line)
        if fh.read(1):
            raise EmbeddingFormatError(f"trailing data at byte {offset}")
    return tokens, matrix


def read_word2vec_binary(path):
    """Parse the binary encoding into (tokens, float64 matrix)."""
    tokens = []
    with open(path, "rb") as fh:
        offset = 0
        header = fh.readline()
        count, dim = _parse_header(header.strip(), offset)
        offset += len(header)
        matrix = np.empty((count, dim), dtype=np.float64)
        vec_bytes = 4 * dim
        for i in range(count):
            tok = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise EmbeddingFormatError(
                        f"truncated token for entry {i} at byte {offset + len(tok)}")
                if ch == b" ":
                    break
                tok.extend(ch)
            offset += len(tok) + 1
            raw = fh.read(vec_bytes)
            if len(raw) != vec_bytes:
                raise EmbeddingFormatError(
                    f"truncated vector for entry {i} at byte {offset}: "
                    f"wanted {vec_bytes} bytes, got {len(raw)}")
            tokens.append(tok.decode("utf-8"))
            matrix[i] = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            offset += vec_bytes
        if fh.read(1):
            raise EmbeddingFormatError(f"trailing data at byte {offset}")
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
    vectors).  ``row_index`` maps any term id, including OOV_ID, onto a
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

    def row_index(self, term_id: int) -> int:
        if 0 <= term_id < self.oov_row:
            return term_id
        return self.oov_row

    def resolve(self, term_ids) -> np.ndarray:
        """Row indices for a term-id sequence, OOV ids mapped to the OOV row."""
        ids = np.asarray(term_ids, dtype=np.int64)
        return np.where((ids >= 0) & (ids < self.oov_row), ids, self.oov_row)

    def lookup(self, term_ids) -> np.ndarray:
        return self.rows[self.resolve(term_ids)]


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
    tokens, matrix = read_word2vec(path, fmt)
    return align_embeddings(tokens, matrix, vocabulary)


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
