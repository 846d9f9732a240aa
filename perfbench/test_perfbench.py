"""Tests of the benchmark's own code: its checks, its tracer, its driver.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
from measure import interleave, training_pairs

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from relrank import index, synthetic, text, trec  # noqa: E402


def doc(doc_id, terms):
    return types.SimpleNamespace(doc_id=doc_id, terms=terms)


def query(query_id, terms):
    return types.SimpleNamespace(query_id=query_id, terms=terms)


class TestBm25:
    def test_matches_hand_computation(self):
        docs = [doc("a", [0, 0, 1]), doc("b", [1]), doc("c", [2, 2])]
        ids, scores = checks.bm25_scores(docs, [query("q", [0, 1, 7])])
        assert ids == ["a", "b", "c"]
        avgdl = 2.0
        k1, b = 1.2, 0.75

        def term(tf, df, dl):
            idf = math.log(1 + (3 - df + 0.5) / (df + 0.5))
            return idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

        want = [term(2, 1, 3) + term(1, 2, 3), term(1, 2, 1), 0.0]
        assert np.allclose(scores["q"], want, rtol=0, atol=1e-15)

    def test_agrees_with_retrieval_and_catches_a_swap(self, tmp_path):
        world = synthetic.generate_world(seed=5, n_docs=80, n_queries=12,
                                         n_concepts=20, dim=4, n_filler=10,
                                         doc_len=10)
        paths = synthetic.write_world(world, tmp_path)
        pipeline = text.TextPipeline()
        build = text.process_corpus(paths["corpus"], pipeline)
        queries = text.process_queries(paths["queries"], pipeline,
                                       build.vocabulary)
        idx = index.build_index(build.documents, build.vocabulary, build.idf)
        cands = {q.query_id: index.retrieve_topn(q, idx, 8) for q in queries}
        tally = checks.Tally()
        checks.check_bm25(tally, build.documents, queries, cands, 8)
        assert (tally.attempted, tally.failed) == (len(queries), 0)

        entries = cands[queries[0].query_id].entries
        entries[0], entries[1] = entries[1], entries[0]
        checks.check_bm25(tally, build.documents, queries, cands, 8)
        assert tally.failed == 1


class TestRankingChecks:
    def pool(self):
        return {"q1": trec.RankedList("q1", [trec.Candidate(d, 0.0, i + 1)
                                             for i, d in enumerate("abc")])}

    def test_run_lists(self, tmp_path):
        path = tmp_path / "x.run"
        ranked = [trec.ranked_list_from_scores("q1", [("a", 1.0), ("c", 2.0),
                                                      ("b", 2.0)])]
        trec.write_run(path, ranked, tag="t")
        lists = checks.read_run_file(path)
        assert lists == {"q1": [("b", 1, 2.0), ("c", 2, 2.0), ("a", 3, 1.0)]}
        tally = checks.Tally()
        checks.check_run_lists(tally, lists, self.pool())
        assert tally.failed == 0
        for bad in ([("c", 1, 2.0), ("b", 2, 2.0), ("a", 3, 1.0)],  # tie order
                    [("b", 1, 2.0), ("c", 2, 2.0)],                 # missing
                    [("b", 1, 2.0), ("c", 3, 2.0), ("a", 2, 1.0)]):  # ranks
            tally = checks.Tally()
            checks.check_run_lists(tally, {"q1": bad}, self.pool())
            assert tally.failed == 1

    def test_average_precision_map_and_oracle(self):
        ap = checks.average_precision(["x", "r1", "y", "r2"], {"r1", "r2", "r3"}, 3)
        assert ap == pytest.approx((1 / 2 + 2 / 4) / 3, abs=1e-15)
        lists = {"q1": [("x", 1, 3.0), ("r1", 2, 2.0)],
                 "q2": [("r2", 1, 1.0)], "q3": [("z", 1, 1.0)]}
        relevant = {"q1": {"r1"}, "q2": {"r2"}, "q3": set()}
        tally = checks.Tally()
        checks.check_map(tally, lists, relevant, (0.5 + 1.0) / 2)
        checks.check_map(tally, lists, relevant, 0.7)
        checks.check_oracle(tally, lists, relevant)
        assert (tally.attempted, tally.failed) == (4, 1)


class TestTracer:
    def test_spans_nesting_counts_and_uninstall(self):
        class Base:
            def score(self, x):
                return x + 1

        class Outer(Base):
            def score(self, x):
                return Base.score(self, x) * 2

        tracer = spans.Tracer()
        tracer.wrap(Base, "score", "s")
        tracer.wrap(Outer, "score", "s", hook=lambda c, a, r: c.update(r=r))
        tracer.wrap(Base, "gone", "g")
        tracer.count(Outer, "gone", "g")
        assert Outer().score(1) == 4 and tracer.spans == []
        tracer.active = True
        assert tracer.span("root", lambda: Outer().score(1)) == 4
        with tracer.paused():
            Outer().score(1)
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("root", None), ("s", 0)]
        assert tracer.counts["r"] == 4
        assert len(tracer.missing) == 2
        tracer.uninstall()
        assert "score" in Outer.__dict__ and not hasattr(Outer.score, "__wrapped__")

    def test_self_time_subtracts_children(self):
        recorded = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0],
                    ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        assert spans.self_times(recorded) == pytest.approx(
            {"a": 6.0, "b": 3.0, "c": 1.0})
        rows = spans.share_table(recorded)
        assert rows[0][0] == "a" and rows[0][2] == pytest.approx(0.6)


class TestRunPlan:
    def test_interleave_shares_the_budget(self):
        order = []

        def unit(name, seconds):
            def run():
                order.append(name)
                return {"seconds": seconds}
            return run
        units = [unit("s", 1.0), unit("t", 3.0), unit("r", 1.0)]
        setups, train, rerank = interleave(units, [0.2, 0.4, 0.4], 15.0,
                                           (2, 1, 1))
        assert order[:4] == ["s", "t", "r", "s"]
        assert (len(setups), len(train), len(rerank)) == (3, 2, 6)
        assert [len(d) for d in interleave(units, [0.2, 0.4, 0.4], 0.0,
                                           (0, 1, 1))] == [0, 1, 1]

    def test_training_pairs_needs_both_classes(self):
        qrels = trec.Qrels()
        qrels.add("q", "a", 1)
        ranked = trec.RankedList("q", [trec.Candidate(d, 0.0, i + 1)
                                       for i, d in enumerate("ab")])
        assert training_pairs(qrels, "q", ranked) == 2
        qrels.add("q", "b", 1)
        assert training_pairs(qrels, "q", ranked) == 0

    def test_driver_imports_neither_numpy_nor_relrank(self):
        # The measuring process's ru_maxrss starts from the driver's RSS.
        code = ("import sys; sys.argv = ['run.py', '--help']; import run\n"
                "try: run.main()\nexcept SystemExit: pass\n"
                "assert not {'numpy', 'relrank'} & set(sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_fails_without_sources(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("work", "traces",
                                                      "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "encoder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout == ""
