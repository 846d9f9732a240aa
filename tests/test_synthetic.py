"""Tests for the synthetic corpus generator."""

import numpy as np
import pytest

from relrank.embeddings import load_embeddings
from relrank.errors import ConfigError
from relrank.synthetic import generate_world, write_world
from relrank.text import TextPipeline, process_corpus, process_queries
from relrank.trec import read_qrels


def small_world(seed=5, **kwargs):
    defaults = dict(n_docs=80, n_queries=12, n_concepts=20, dim=6,
                    n_filler=10, doc_len=14)
    defaults.update(kwargs)
    return generate_world(seed=seed, **defaults)


class TestGenerateWorld:
    def test_counts_and_shapes(self):
        world = small_world()
        assert len(world.documents) == 80
        assert len(world.queries) == 12
        assert world.dim == 6
        for doc in world.documents:
            assert len(doc["text"].split()) == 14
        for query in world.queries:
            assert 2 <= len(query["text"].split()) <= 3
        for vec in world.embeddings.values():
            assert vec.shape == (6,)

    def test_ids_are_unique_and_ordered(self):
        world = small_world()
        doc_ids = [d["id"] for d in world.documents]
        query_ids = [q["id"] for q in world.queries]
        assert doc_ids == sorted(doc_ids) and len(set(doc_ids)) == 80
        assert query_ids == sorted(query_ids) and len(set(query_ids)) == 12

    def test_same_seed_reproduces_everything(self):
        a = small_world(seed=7)
        b = small_world(seed=7)
        assert a.documents == b.documents
        assert a.queries == b.queries
        assert sorted(a.qrels.items()) == sorted(b.qrels.items())
        assert set(a.embeddings) == set(b.embeddings)
        for token, vec in a.embeddings.items():
            np.testing.assert_array_equal(vec, b.embeddings[token])

    def test_different_seeds_differ(self):
        a = small_world(seed=7)
        b = small_world(seed=8)
        assert a.documents != b.documents

    def test_tokens_survive_the_text_pipeline(self):
        # Digit-suffixed tokens must pass tokenization, stopwording, and
        # stemming untouched, or the embedding file would miss vocabulary.
        world = small_world()
        pipeline = TextPipeline()
        for doc in world.documents[:20]:
            assert pipeline.process(doc["text"]) == doc["text"].split()
        for query in world.queries:
            assert pipeline.process(query["text"]) == query["text"].split()

    def test_relevance_requires_concept_overlap(self):
        world = small_world()
        for qid, did, rel in world.qrels.items():
            if rel > 0:
                shared = set(world.query_concepts[qid]) & set(world.doc_concepts[did])
                assert shared, f"{qid}/{did} judged relevant without overlap"

    def test_most_queries_have_relevant_documents(self):
        world = generate_world(seed=5, n_docs=400, n_queries=40,
                               n_concepts=30, dim=6, doc_len=14)
        with_relevant = sum(1 for q in world.queries
                            if world.qrels.relevant_docs(q["id"]))
        assert with_relevant >= 36

    def test_synonyms_cluster_in_embedding_space(self):
        # Variants of one concept must look far more alike than tokens of
        # different concepts, otherwise the corpus has no semantic signal.
        world = small_world()

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        within = []
        across = []
        rng = np.random.default_rng(3)
        for c in range(10):
            v0 = world.embeddings[f"w{c}v0"]
            v1 = world.embeddings[f"w{c}v1"]
            within.append(cos(v0, v1))
            other = int(rng.integers(10, 20))
            across.append(cos(v0, world.embeddings[f"w{other}v0"]))
        assert min(within) > 0.85
        assert np.mean(within) > np.mean(across) + 0.4

    def test_rejects_degenerate_settings(self):
        with pytest.raises(ConfigError):
            generate_world(seed=0, n_concepts=1)
        with pytest.raises(ConfigError):
            generate_world(seed=0, variants=0)


class TestWriteWorld:
    def test_round_trip_through_the_real_loaders(self, tmp_path):
        world = small_world()
        paths = write_world(world, tmp_path)
        pipeline = TextPipeline()
        build = process_corpus(paths["corpus"], pipeline)
        queries = process_queries(paths["queries"], pipeline, build.vocabulary)
        qrels = read_qrels(paths["qrels"])
        emb = load_embeddings(paths["embeddings"], build.vocabulary)

        assert len(build.documents) == len(world.documents)
        assert len(queries) == len(world.queries)
        assert sorted(qrels.items()) == sorted(world.qrels.items())
        assert emb.dim == world.dim

    def test_embedding_rows_match_generated_vectors(self, tmp_path):
        world = small_world()
        paths = write_world(world, tmp_path)
        pipeline = TextPipeline()
        build = process_corpus(paths["corpus"], pipeline)
        emb = load_embeddings(paths["embeddings"], build.vocabulary)
        hits = 0
        for token, vec in world.embeddings.items():
            term_id = build.vocabulary.id_of(token)
            if term_id is None:
                continue  # token never used by a document
            row = emb.rows[emb.resolve([term_id])][0]
            np.testing.assert_allclose(row, vec, atol=1e-6)
            hits += 1
        assert hits > 50

    def test_written_files_are_deterministic(self, tmp_path):
        world = small_world(seed=9)
        again = small_world(seed=9)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        paths_a = write_world(world, dir_a)
        paths_b = write_world(again, dir_b)
        for key in paths_a:
            with open(paths_a[key], "rb") as fa, open(paths_b[key], "rb") as fb:
                assert fa.read() == fb.read(), key
