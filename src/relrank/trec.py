"""TREC-style run and relevance-judgment files, plus the in-memory forms.

Run lines are `query_id Q0 doc_id rank score tag`; qrels lines are
`query_id 0 doc_id relevance`.  Scores are written with full float precision
so a run file round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .files import atomic_open, write_json


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
    ranks run 1..len without gaps and no doc_id repeats.
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
            if i and cand.score > self.entries[i - 1].score:
                raise DataError(f"query {self.query_id}: scores increase at rank {i + 1}")


def ranked_list_from_scores(query_id: str, scored) -> RankedList:
    """Build a RankedList from (doc_id, score) pairs.

    Sorts by descending score with ascending doc_id as the tie-break, so the
    output is deterministic regardless of input order.
    """
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

    def total_relevant(self, query_id: str) -> int:
        return sum(1 for r in self._rels.get(query_id, {}).values() if r > 0)

    def query_ids(self) -> list[str]:
        return list(self._rels)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._rels

    def items(self):
        for qid, docs in self._rels.items():
            for did, rel in docs.items():
                yield qid, did, rel


def read_qrels(path) -> Qrels:
    qrels = Qrels()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
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
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise DataError(f"{path}:{line_no}: expected 6 fields, got {len(parts)}")
            qid, _, did, _, score, _ = parts
            try:
                score_val = float(score)
            except ValueError:
                raise DataError(f"{path}:{line_no}: score {score!r} is not a number")
            by_query.setdefault(qid, []).append((did, score_val))
    lists = []
    for qid, scored in by_query.items():
        seen = set()
        for did, _ in scored:
            if did in seen:
                raise DataError(f"{path}: duplicate doc {did} for query {qid}")
            seen.add(did)
        lists.append(ranked_list_from_scores(qid, scored))
    return lists


def write_run(path, ranked_lists, tag: str, metadata: dict | None = None) -> None:
    """Write ranked lists in TREC run format.

    When ``metadata`` is given it lands in a ``<path>.meta.json`` sidecar,
    keeping the run file itself consumable by standard TREC tooling.
    """
    with atomic_open(path) as fh:
        for rl in ranked_lists:
            for cand in rl.entries:
                fh.write(f"{rl.query_id} Q0 {cand.doc_id} {cand.rank} "
                         f"{cand.score!r} {tag}\n")
    if metadata is not None:
        write_json(str(path) + ".meta.json", metadata)
