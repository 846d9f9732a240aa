"""Text preprocessing: tokenization, stopword removal, stemming, vocabulary, IDF.

Tokenization lowercases and splits on non-alphanumeric characters, keeping
single-character tokens (dropping them would destroy terms like "vitamin d").
Stopwords are the English list under ``data/stopwords_en.txt``; the stemmer
is Porter's, run once per distinct token by each ``TextPipeline``'s table.
The table is held per instance, not per module: it dies with its pipeline,
so every set-up that builds a pipeline pays for its own stems.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, DataError
from .files import read_lines

log = logging.getLogger("relrank.text")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Sentinel id returned for tokens missing from a vocabulary.
OOV_ID = -1


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # Number of vowel->consonant transitions, i.e. m in [C](VC)^m[V].
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_vowel and cons:
            m += 1
        prev_vowel = not cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


_STEP2 = [("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
          ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
          ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"),
          ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
          ("iviti", "ive"), ("enci", "ence"), ("anci", "ance"),
          ("izer", "ize"), ("abli", "able"), ("alli", "al"),
          ("ator", "ate"), ("eli", "e")]

_STEP3 = [("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
          ("ical", "ic"), ("ful", ""), ("ness", "")]

_STEP4 = ["ement", "ance", "ence", "able", "ible", "ment", "ion", "ent",
          "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic",
          "ou", "ant"]


def porter_stem(word: str) -> str:
    """Classic Porter suffix-stripping; words of length <= 2 pass through."""
    if len(word) <= 2:
        return word
    w = word

    # Step 1a: plurals.
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b: -eed / -ed / -ing.
    cleanup = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        cleanup = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        cleanup = True
    if cleanup:
        if w.endswith(("at", "bl", "iz")):
            w = w + "e"
        elif _ends_double_consonant(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w = w + "e"

    # Step 1c: terminal y.
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2 and 3: compound suffix rewrites (m > 0).
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 0:
                w = stem + repl
            break

    # Step 4: drop residual suffixes (m > 1).
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix != "ion" or (stem and stem[-1] in "st"):
                    w = stem
            break

    # Step 5a: terminal e.
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    # Step 5b: -ll reduction.
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]
    return w


# ---------------------------------------------------------------------------
# Stopwords
# ---------------------------------------------------------------------------


def default_stopwords() -> frozenset[str]:
    text = resources.files("relrank").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def stopword_hash(stopwords) -> str:
    """Order-independent sha256 of a stopword set, recorded in index metadata."""
    canon = "\n".join(sorted(stopwords)).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs, in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


class _StemTable(dict):
    """Token -> stem, or None for a stopword; stems a token on first lookup."""

    def __missing__(self, token: str) -> str:
        stem = self[token] = porter_stem(token)
        return stem


class TextPipeline:
    """The preprocessing configuration applied to every document and query."""

    #: The stemmer's name, recorded in the index metadata.
    stemmer_name = "porter"

    def __init__(self):
        self.stopwords = default_stopwords()
        self._stems = _StemTable.fromkeys(self.stopwords)

    def process(self, text: str) -> list[str]:
        """Tokenize, drop stopwords, stem.  Empty output is allowed; the
        caller decides whether an empty document or query is admissible."""
        return [s for s in map(self._stems.__getitem__, tokenize(text))
                if s is not None]

    @property
    def stopwords_digest(self) -> str:
        return stopword_hash(self.stopwords)


# ---------------------------------------------------------------------------
# Vocabulary / IDF
# ---------------------------------------------------------------------------


class Vocabulary:
    """Bijection between token strings and dense ids in [0, size)."""

    def __init__(self, tokens=()):
        self._tokens: list[str] = []
        self._ids: dict[str, int] = {}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def id_of(self, token: str) -> int:
        """Id for a token, or OOV_ID when unseen."""
        return self._ids.get(token, OOV_ID)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def tokens(self) -> list[str]:
        return list(self._tokens)


@dataclass
class ProcessedDocument:
    """A tokenized, stopword-filtered, stemmed document as term ids."""

    doc_id: str
    terms: list[int]
    date: str | None = None


@dataclass
class ProcessedQuery:
    """A processed query; ``terms`` may contain OOV_ID for unseen tokens."""

    query_id: str
    terms: list[int]
    tokens: list[str] = field(default_factory=list)
    date_cutoff: str | None = None


class IdfTable:
    """Per-term inverse document frequency over a corpus.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); unseen terms score as df=0.
    """

    def __init__(self, values: np.ndarray, doc_count: int):
        self.values = np.asarray(values, dtype=np.float64)
        self.doc_count = int(doc_count)
        self._default = idf_value(0, self.doc_count)

    def idf_of(self, term_id: int) -> float:
        if 0 <= term_id < self.values.size:
            return float(self.values[term_id])
        return self._default

    def for_terms(self, term_ids) -> np.ndarray:
        return np.array([self.idf_of(t) for t in term_ids], dtype=np.float64)

    def __len__(self) -> int:
        return self.values.size


def idf_value(df: int, doc_count: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def compute_idf(documents, vocab_size: int) -> IdfTable:
    """IDF over processed documents; every corpus term gets an entry."""
    documents = list(documents)
    if not documents:
        raise ConfigError("cannot compute IDF over an empty corpus")
    df = np.zeros(vocab_size, dtype=np.int64)
    for doc in documents:
        for tid in set(doc.terms):
            df[tid] += 1
    n = len(documents)
    values = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
    return IdfTable(values, n)


# ---------------------------------------------------------------------------
# Corpus / query ingestion (JSON-lines)
# ---------------------------------------------------------------------------


def _json_objects(path):
    """Yield (line number, object) for each non-blank line of a JSON-lines file."""
    for line_no, line in read_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{line_no}: expected a JSON object")
        yield line_no, obj


def _new_id(value: str, seen: set, kind: str, path, line_no: int) -> str:
    """``value``, added to ``seen``; a DataError if it is already there."""
    if value in seen:
        raise DataError(f"{path}:{line_no}: duplicate {kind} id {value!r}")
    seen.add(value)
    return value


def _doc_text(obj: dict, line_no: int, path) -> str:
    if "text" in obj:
        parts = [obj["text"]]
    elif "title" in obj or "abstract" in obj:
        parts = [p for p in (obj.get("title"), obj.get("abstract")) if p is not None]
    else:
        raise DataError(f"{path}:{line_no}: document needs 'text' or 'title'/'abstract'")
    if not all(isinstance(p, str) for p in parts):
        raise DataError(f"{path}:{line_no}: document text fields must be strings")
    return " ".join(p for p in parts if p)


def iter_corpus(path):
    """Yield (doc_id, text, date) from a JSON-lines corpus file.

    Each line is an object with ``id`` plus either a string ``text`` or
    ``title``/``abstract`` strings (document text is their concatenation;
    null counts as absent), and an optional ``date`` used for per-query
    cutoff filtering.  A repeated id is a DataError.
    """
    seen = set()
    for line_no, obj in _json_objects(path):
        if "id" not in obj:
            raise DataError(f"{path}:{line_no}: document missing 'id'")
        doc_id = _new_id(str(obj["id"]), seen, "document", path, line_no)
        yield doc_id, _doc_text(obj, line_no, path), obj.get("date")


class CorpusBuild:
    """Result of one pass over a corpus: documents, vocabulary, IDF, stats."""

    def __init__(self, documents, vocabulary, idf, skipped_empty):
        self.documents: list[ProcessedDocument] = documents
        self.vocabulary: Vocabulary = vocabulary
        self.idf: IdfTable = idf
        self.skipped_empty: list[str] = skipped_empty


def process_corpus(path, pipeline: TextPipeline) -> CorpusBuild:
    """Tokenize a corpus file and build its vocabulary and IDF table.

    Documents reduced to empty term sequences are excluded and logged.
    """
    vocab = Vocabulary()
    documents = []
    skipped = []
    for doc_id, text, date in iter_corpus(path):
        tokens = pipeline.process(text)
        if not tokens:
            skipped.append(doc_id)
            continue
        documents.append(ProcessedDocument(doc_id, [vocab.add(t) for t in tokens], date))
    if skipped:
        log.warning("excluded %d empty document(s) after filtering: %s",
                    len(skipped), ", ".join(skipped[:5]))
    if not documents:
        raise ConfigError(f"{path}: no non-empty documents after preprocessing")
    idf = compute_idf(documents, len(vocab))
    return CorpusBuild(documents, vocab, idf, skipped)


def iter_queries(path, cutoff_field: str | None = None):
    """Yield (query_id, text, cutoff) from a JSON-lines query file; a
    repeated id is a DataError."""
    seen = set()
    for line_no, obj in _json_objects(path):
        if "id" not in obj or "text" not in obj:
            raise DataError(f"{path}:{line_no}: query needs 'id' and 'text'")
        if not isinstance(obj["text"], str):
            raise DataError(f"{path}:{line_no}: query 'text' must be a string")
        cutoff = obj.get(cutoff_field) if cutoff_field else None
        qid = _new_id(str(obj["id"]), seen, "query", path, line_no)
        yield qid, obj["text"], cutoff


def process_queries(path, pipeline: TextPipeline, vocab: Vocabulary,
                    cutoff_field: str | None = None) -> list[ProcessedQuery]:
    """Process queries against an existing vocabulary (unseen tokens -> OOV_ID).

    Queries that come out empty after filtering are dropped with a warning.
    """
    queries = []
    for qid, text, cutoff in iter_queries(path, cutoff_field):
        tokens = pipeline.process(text)
        if not tokens:
            log.warning("query %s is empty after preprocessing; dropped", qid)
            continue
        queries.append(ProcessedQuery(qid, [vocab.id_of(t) for t in tokens],
                                      tokens, cutoff))
    return queries
