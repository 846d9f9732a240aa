"""Tests for TREC run / qrels files and ranked-list invariants."""

import numpy as np
import pytest

from relrank.errors import DataError
from relrank.trec import (
    Candidate,
    Qrels,
    RankedList,
    ranked_list_from_scores,
    read_qrels,
    read_run,
    write_qrels,
    write_run,
)


class TestRankedList:
    def test_validate_accepts_well_formed(self):
        rl = RankedList("q", [Candidate("a", 2.0, 1), Candidate("b", 1.0, 2)])
        rl.validate()

    def test_validate_rejects_rank_gap(self):
        rl = RankedList("q", [Candidate("a", 2.0, 1), Candidate("b", 1.0, 3)])
        with pytest.raises(DataError, match="rank"):
            rl.validate()

    def test_validate_rejects_duplicates(self):
        rl = RankedList("q", [Candidate("a", 2.0, 1), Candidate("a", 1.0, 2)])
        with pytest.raises(DataError, match="duplicate"):
            rl.validate()

    def test_validate_rejects_nan_scores(self):
        rl = RankedList("q", [Candidate("a", float("nan"), 1), Candidate("b", 2.0, 2)])
        with pytest.raises(DataError, match="NaN score at rank 1"):
            rl.validate()

    def test_validate_rejects_increasing_scores(self):
        rl = RankedList("q", [Candidate("a", 1.0, 1), Candidate("b", 2.0, 2)])
        with pytest.raises(DataError, match="increase"):
            rl.validate()

    def test_from_scores_sorts_and_breaks_ties(self):
        rl = ranked_list_from_scores("q", [("d2", 1.0), ("d3", 2.0), ("d1", 1.0)])
        assert rl.doc_ids() == ["d3", "d1", "d2"]
        assert [c.rank for c in rl.entries] == [1, 2, 3]
        rl.validate()

    def test_from_scores_rejects_nan_naming_query_and_doc(self):
        with pytest.raises(DataError, match="query q: doc d2 has a NaN score"):
            ranked_list_from_scores("q", [("d1", 1.0), ("d2", float("nan"))])

    def test_from_scores_input_order_irrelevant(self):
        rng = np.random.default_rng(3)
        pairs = [(f"d{i}", float(s)) for i, s in enumerate(rng.integers(0, 5, 30))]
        base = ranked_list_from_scores("q", pairs).doc_ids()
        for _ in range(10):
            shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
            assert ranked_list_from_scores("q", shuffled).doc_ids() == base


class TestQrels:
    def test_membership_and_counts(self):
        qrels = Qrels()
        qrels.add("q1", "d1", 1)
        qrels.add("q1", "d2", 0)
        qrels.add("q2", "d1", 1)
        assert qrels.is_relevant("q1", "d1")
        assert not qrels.is_relevant("q1", "d2")
        assert not qrels.is_relevant("q1", "d9")
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.relevant_docs("q2") == {"d1"}
        assert qrels.relevant_docs("missing") == set()

    def test_duplicate_pair_rejected(self):
        qrels = Qrels()
        qrels.add("q", "d", 1)
        with pytest.raises(DataError, match="duplicate"):
            qrels.add("q", "d", 0)

    def test_file_round_trip(self, tmp_path):
        qrels = Qrels()
        qrels.add("q1", "d1", 1)
        qrels.add("q1", "d2", 0)
        qrels.add("q2", "d3", 2)
        path = tmp_path / "qrels.txt"
        write_qrels(path, qrels)
        back = read_qrels(path)
        assert sorted(back.items()) == sorted(qrels.items())

    def test_malformed_lines_report_position(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2\n")
        with pytest.raises(DataError, match=":2"):
            read_qrels(path)
        path.write_text("q1 0 d1 high\n")
        with pytest.raises(DataError, match="integer"):
            read_qrels(path)

    def test_duplicate_in_file_reports_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 0\n")
        with pytest.raises(DataError, match=":2"):
            read_qrels(path)


class TestRunFiles:
    def test_round_trip_exact_scores(self, tmp_path):
        rng = np.random.default_rng(11)
        lists = []
        for qid in ["q1", "q2"]:
            scores = sorted(rng.standard_normal(15), reverse=True)
            lists.append(RankedList(qid, [
                Candidate(f"d{i}", float(s), i + 1) for i, s in enumerate(scores)]))
        path = tmp_path / "run.txt"
        write_run(path, lists, tag="test")
        back = {rl.query_id: rl for rl in read_run(path)}
        for rl in lists:
            got = back[rl.query_id]
            assert got.doc_ids() == rl.doc_ids()
            for a, b in zip(got.entries, rl.entries):
                assert a.score == b.score  # exact, not approximate

    def test_read_ignores_line_order_and_rank_column(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(
            "q1 Q0 d2 99 1.5 t\n"
            "q1 Q0 d3 1 0.5 t\n"
            "q1 Q0 d1 7 2.5 t\n")
        (rl,) = read_run(path)
        assert rl.doc_ids() == ["d1", "d2", "d3"]
        assert [c.rank for c in rl.entries] == [1, 2, 3]

    def test_score_tie_broken_by_doc_id(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q Q0 db 1 1.0 t\nq Q0 da 2 1.0 t\n")
        (rl,) = read_run(path)
        assert rl.doc_ids() == ["da", "db"]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.5\n")
        with pytest.raises(DataError, match=":1"):
            read_run(path)
        path.write_text("q1 Q0 d1 1 high t\n")
        with pytest.raises(DataError, match="number"):
            read_run(path)

    def test_nan_score_rejected(self, tmp_path):
        # Sorting would put the NaN first, ahead of every larger score.
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 nan t\nq1 Q0 d2 2 3.0 t\n"
                        "q1 Q0 d3 3 1.0 t\nq1 Q0 d4 4 2.0 t\n")
        with pytest.raises(DataError, match="run.txt: query q1: doc d1 has a NaN score"):
            read_run(path)

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q Q0 d1 1 2.0 t\nq Q0 d1 2 1.0 t\n")
        with pytest.raises(DataError, match="duplicate"):
            read_run(path)

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "run.txt"
        rl = RankedList("q", [Candidate("d", 1.0, 1)])
        write_run(path, [rl], tag="bm25")
        # The run file itself stays plain TREC format; its sidecar, like
        # every other artifact's, is written by config.write_meta.
        assert (tmp_path / "run.txt").read_text() == "q Q0 d 1 1.0 bm25\n"
