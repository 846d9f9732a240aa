"""Artifact writes replace the target whole or leave it untouched."""

import os

import numpy as np
import pytest

from relrank.autodiff import ParameterSet, load_params, save_params
from relrank.config import write_meta
from relrank.files import atomic_open, write_json
from relrank.trec import ranked_list_from_scores, read_run, write_run


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
        write_run(path, lists, tag="t", metadata={"seed": 0})
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
