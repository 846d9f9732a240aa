"""Each sidecar hashes what its stage read.

Every stage of the command line is run once on a small workspace whose
config sets all three splits.  For each stage, every file it opens for
reading is recorded, except the config and the artifacts the stage wrote
itself (``repeat`` reads back the checkpoints it trains); the stopword
list packaged with relrank is not user input and is left out too.  Each
such file's SHA-256 must appear in every ``.meta.json`` the stage wrote.
"""

import builtins
import hashlib
import io
import json
import os
from importlib import resources
from pathlib import Path

import pytest

from relrank.cli import main
from relrank.synthetic import generate_world, write_world

# Each stage's subcommand and the arguments after the config, run in order.
STAGES = {
    "index": ("index", ""),
    "retrieve": ("retrieve", ""),
    "train": ("train", ""),
    "rerank": ("rerank", ""),
    "rerank --oracle": ("rerank", "--oracle"),
    "eval": ("eval", "{out}/pooled-drmm-mv+extra-seed0.run {out}/bm25.run "
                     "--permutations 50"),
    "inspect --output": ("inspect", "{query} {doc} --output {root}/dump.json"),
    "xval": ("xval", "--folds 3"),
    "repeat": ("repeat", "--seeds 2"),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Recorder:
    """Records the paths opened for reading and the artifacts replaced."""

    def __init__(self):
        self.reads: set[Path] = set()
        self.written: set[Path] = set()

    def open(self, original):
        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                self.reads.add(Path(file).resolve())
            return original(file, mode, *args, **kwargs)
        return recording_open

    def replace(self, original):
        def recording_replace(src, dst, *args, **kwargs):
            self.written.add(Path(dst).resolve())
            return original(src, dst, *args, **kwargs)
        return recording_replace


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """Per stage: (files it read that are inputs, sidecars it wrote)."""
    root = tmp_path_factory.mktemp("sidecars")
    world = generate_world(seed=3, n_docs=120, n_queries=20, n_concepts=30,
                           dim=6, n_filler=15, doc_len=12, threshold_scale=1.15)
    write_world(world, root)
    qids = sorted(q["id"] for q in world.queries)
    for name, ids in (("train", qids[:12]), ("dev", qids[12:16]),
                      ("test", qids[16:])):
        (root / f"{name}.split").write_text("".join(i + "\n" for i in ids))
    config = root / "config.json"
    config.write_text(json.dumps({
        "corpus": "corpus.jsonl", "embeddings": "embeddings.txt",
        "queries": "queries.jsonl", "qrels": "qrels.txt",
        "index": "work/index.rrix", "checkpoints": "work/ckpt",
        "outputs": "work/out", "model": "pooled-drmm-mv", "n_candidates": 10,
        "train_split": "train.split", "dev_split": "dev.split",
        "eval_split": "test.split", "training": {"epochs": 1},
    }))
    names = {"root": root, "out": root / "work" / "out", "query": qids[16],
             "doc": world.documents[0]["id"]}
    stopwords = Path(str(resources.files("relrank") / "data/stopwords_en.txt"))
    not_inputs = {config.resolve(), stopwords.resolve()}
    out = {}
    for stage, (command, rest) in STAGES.items():
        args = [command, str(config)] + [a.format(**names) for a in rest.split()]
        rec = _Recorder()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(builtins, "open", rec.open(builtins.open))
            mp.setattr(io, "open", rec.open(io.open))
            mp.setattr(os, "replace", rec.replace(os.replace))
            assert main(args) == 0, stage
        inputs = rec.reads - rec.written - not_inputs
        sidecars = sorted(p for p in rec.written if p.name.endswith(".meta.json"))
        out[stage] = (inputs, sidecars)
    return out


@pytest.mark.parametrize("stage", list(STAGES))
def test_every_sidecar_hashes_every_input_its_stage_read(stages, stage):
    inputs, sidecars = stages[stage]
    assert inputs and sidecars
    for sidecar in sidecars:
        hashed = set(json.loads(sidecar.read_text())["input_hashes"].values())
        missing = sorted(p.name for p in inputs if _sha256(p) not in hashed)
        assert not missing, f"{sidecar.name} leaves out {missing}"
