"""TREC-style run and relevance-judgment files, plus the in-memory forms.

Run lines are `query_id Q0 doc_id rank score tag`; qrels lines are
`query_id 0 doc_id relevance`.  Scores are written with full float precision
so a run file round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError
from .files import atomic_open, read_lines


@dataclass
class Candidate:
    """One retrieved document with its score and 1-based rank."""

    doc_id: str
    score: float
    rank: int


@dataclass
class RankedList:
    """An ordered candidate list for one query.

    Entries are sorted by descending score, ties broken by ascending doc_id;
    ranks run 1..len without gaps, no doc_id repeats and no score is NaN.
    """

    query_id: str
    entries: list[Candidate]

    def doc_ids(self) -> list[str]:
        return [c.doc_id for c in self.entries]

    def validate(self) -> None:
        seen = set()
        for i, cand in enumerate(self.entries):
            if cand.rank != i + 1:
                raise DataError(f"query {self.query_id}: rank {cand.rank} at position {i}")
            if cand.doc_id in seen:
                raise DataError(f"query {self.query_id}: duplicate doc {cand.doc_id}")
            seen.add(cand.doc_id)
            if math.isnan(cand.score):
                raise DataError(f"query {self.query_id}: NaN score at rank {i + 1}")
            if i and cand.score > self.entries[i - 1].score:
                raise DataError(f"query {self.query_id}: scores increase at rank {i + 1}")


def ranked_list_from_scores(query_id: str, scored) -> RankedList:
    """Build a RankedList from (doc_id, score) pairs.

    Sorts by descending score with ascending doc_id as the tie-break, so the
    output is deterministic regardless of input order.  A repeated doc_id or
    a NaN score, which has no place in that order, raises DataError.
    """
    seen = set()
    for doc_id, score in scored:
        if doc_id in seen:
            raise DataError(f"query {query_id}: duplicate doc {doc_id}")
        if math.isnan(score):
            raise DataError(f"query {query_id}: doc {doc_id} has a NaN score")
        seen.add(doc_id)
    ordered = sorted(scored, key=lambda p: (-p[1], p[0]))
    entries = [Candidate(doc_id, float(score), rank)
               for rank, (doc_id, score) in enumerate(ordered, 1)]
    return RankedList(query_id, entries)


class Qrels:
    """Binary relevance judgments keyed by (query_id, doc_id)."""

    def __init__(self):
        self._rels: dict[str, dict[str, int]] = {}

    def add(self, query_id: str, doc_id: str, relevance: int) -> None:
        docs = self._rels.setdefault(query_id, {})
        if doc_id in docs:
            raise DataError(f"duplicate qrels pair ({query_id}, {doc_id})")
        docs[doc_id] = int(relevance)

    def is_relevant(self, query_id: str, doc_id: str) -> bool:
        return self._rels.get(query_id, {}).get(doc_id, 0) > 0

    def relevant_docs(self, query_id: str) -> set[str]:
        return {d for d, r in self._rels.get(query_id, {}).items() if r > 0}

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._rels

    def items(self):
        for qid, docs in self._rels.items():
            for did, rel in docs.items():
                yield qid, did, rel


def read_qrels(path) -> Qrels:
    qrels = Qrels()
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
        qid, _, did, rel = parts
        try:
            rel_val = int(rel)
        except ValueError:
            raise DataError(f"{path}:{line_no}: relevance {rel!r} is not an integer")
        try:
            qrels.add(qid, did, rel_val)
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    return qrels


def write_qrels(path, qrels: Qrels) -> None:
    with atomic_open(path) as fh:
        for qid, did, rel in qrels.items():
            fh.write(f"{qid} 0 {did} {rel}\n")


def read_run(path) -> list[RankedList]:
    """Parse a TREC run file into per-query ranked lists.

    The rank column in the file is ignored: entries are re-sorted by
    descending score with ascending doc_id as the tie-break (trec_eval reads
    runs the same way), so line order in the file does not matter.
    """
    by_query: dict[str, list[tuple[str, float]]] = {}
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise DataError(f"{path}:{line_no}: expected 6 fields, got {len(parts)}")
        qid, _, did, _, score, _ = parts
        try:
            score_val = float(score)
        except ValueError:
            raise DataError(f"{path}:{line_no}: score {score!r} is not a number")
        by_query.setdefault(qid, []).append((did, score_val))
    try:
        return [ranked_list_from_scores(qid, scored)
                for qid, scored in by_query.items()]
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_run(path, ranked_lists, tag: str) -> None:
    """Write ranked lists in TREC run format."""
    with atomic_open(path) as fh:
        for rl in ranked_lists:
            for cand in rl.entries:
                fh.write(f"{rl.query_id} Q0 {cand.doc_id} {cand.rank} "
                         f"{cand.score!r} {tag}\n")
