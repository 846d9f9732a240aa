"""Input files are read through one module, which rejects malformed input
with the format's own error; artifact writes replace the target whole or
leave it untouched."""

import os

import numpy as np
import pytest

from relrank.autodiff import CheckpointError, ParameterSet, load_params, save_params
from relrank.config import read_split, write_meta
from relrank.embeddings import (EmbeddingFormatError, read_word2vec_binary,
                                write_word2vec_binary)
from relrank.errors import DataError
from relrank import files
from relrank.files import atomic_open, write_json
from relrank.index import IndexFormatError, build_index, load_index, save_index
from relrank.text import (ProcessedDocument, Vocabulary, compute_idf, iter_corpus,
                          iter_queries)
from relrank.trec import ranked_list_from_scores, read_qrels, read_run, write_run


def listing(path):
    return sorted(os.listdir(path))


class TestAtomicOpen:
    def test_completed_write_replaces_target(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"old")
        with atomic_open(target, "wb") as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert listing(tmp_path) == ["a.bin"]

    def test_raising_write_keeps_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert listing(tmp_path) == ["a.txt"]

    def test_missing_directory_is_created(self, tmp_path):
        target = tmp_path / "a" / "b" / "c.txt"
        with atomic_open(target) as fh:
            fh.write("new\n")
        assert target.read_text() == "new\n"
        assert listing(target.parent) == ["c.txt"]

    def test_raising_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", {"value": object()})
        assert listing(tmp_path) == []


class TestArtifactWriters:
    def test_interrupted_checkpoint_keeps_previous(self, tmp_path):
        path = tmp_path / "m.rrcp"
        good = ParameterSet([("w", np.arange(3.0))])
        save_params(path, good)
        before = path.read_bytes()
        # The first parameter is written before the second name fails to
        # encode, so the failure comes part way through the file.
        bad = ParameterSet([("w", np.ones(3)), ("\ud800", np.ones(2))])
        with pytest.raises(UnicodeEncodeError):
            save_params(path, bad)
        assert path.read_bytes() == before
        assert listing(tmp_path) == ["m.rrcp"]
        np.testing.assert_array_equal(load_params(path)["w"].data, np.arange(3.0))

    def test_interrupted_run_keeps_previous(self, tmp_path):
        path = tmp_path / "r.run"
        lists = [ranked_list_from_scores("q1", [("d1", 2.0), ("d2", 1.0)])]
        write_run(path, lists, tag="t")
        write_meta(path, {"seed": 0})
        before = path.read_bytes()

        def failing():
            yield ranked_list_from_scores("q1", [("d3", 5.0)])
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_run(path, failing(), tag="t")
        assert path.read_bytes() == before
        assert [rl.doc_ids() for rl in read_run(path)] == [["d1", "d2"]]
        assert listing(tmp_path) == ["r.run", "r.run.meta.json"]

    def test_interrupted_sidecar_keeps_previous(self, tmp_path):
        artifact = tmp_path / "x.rrcp"
        write_meta(artifact, {"seed": 1})
        sidecar = tmp_path / "x.rrcp.meta.json"
        before = sidecar.read_bytes()
        with pytest.raises(TypeError):
            write_meta(artifact, {"seed": 2, "bad": object()})
        assert sidecar.read_bytes() == before
        assert listing(tmp_path) == ["x.rrcp.meta.json"]


class TestTextInputs:
    def test_lines_split_as_in_text_mode(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"a\r\nb\rc\n\n  \n d \n")
        assert list(files.read_lines(path)) == [(1, "a"), (2, "b"), (3, "c"), (6, "d")]

    @pytest.mark.parametrize("reader, good, bad", [
        (lambda p: list(iter_corpus(p)), b'{"id": "d1", "text": "a"}',
         b'{"id": "d2", "text": "caf\xe9"}'),
        (lambda p: list(iter_queries(p)), b'{"id": "q1", "text": "a"}',
         b'{"id": "q2", "text": "caf\xe9"}'),
        (read_qrels, b"q1 0 d1 1", b"q1 0 d\xe9 1"),
        (read_run, b"q1 Q0 d1 1 2.0 t", b"q1 Q0 d\xe9 2 1.0 t"),
        (read_split, b"q1", b"q\xe9"),
    ], ids=["corpus", "queries", "qrels", "run", "split"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, reader, good, bad):
        path = tmp_path / "input"
        path.write_bytes(good + b"\n" + bad + b"\n")
        with pytest.raises(DataError, match=r"input:2: invalid UTF-8 \(byte 0xe9\)"):
            reader(path)


def _checkpoint(path):
    save_params(path, ParameterSet([("w", np.arange(6.0).reshape(2, 3)),
                                    ("b", np.array(0.5))]))


def _index(path):
    docs = [ProcessedDocument("d1", [0, 1, 1]), ProcessedDocument("d2", [1, 2])]
    vocab = Vocabulary(["a", "b", "c"])
    save_index(build_index(docs, vocab, compute_idf(docs, 3)), path)


def _word2vec(path):
    write_word2vec_binary(path, ["a", "bc"], np.ones((2, 3)))


class TestBinaryInputs:
    @pytest.mark.parametrize("write, load, error", [
        (_checkpoint, load_params, CheckpointError),
        (_index, load_index, IndexFormatError),
        (_word2vec, read_word2vec_binary, EmbeddingFormatError),
    ], ids=["checkpoint", "index", "word2vec"])
    def test_every_strict_prefix_is_a_format_error(self, tmp_path, write, load, error):
        path = tmp_path / "whole"
        write(path)
        raw = path.read_bytes()
        load(path)
        cut = tmp_path / "cut"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(error):
                load(cut)
