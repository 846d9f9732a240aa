"""End-to-end tests of the command line interface.

A small synthetic workspace is built once per module; commands run through
``cli.main`` in-process so exit codes and console output are easy to check.
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from artifact_manifest import build, manifest, run_cli
from support import make_workspace

from relrank import training
from relrank.autodiff import save_params
from relrank.cli import main
from relrank.config import load_config
from relrank.embeddings import load_embeddings
from relrank.index import load_index, oracle_rerank, save_index
from relrank.models import build_model
from relrank.rerank import PairBuilder, rerank_candidates
from relrank.text import TextPipeline, iter_queries, process_corpus, process_queries
from relrank.trec import read_qrels, read_run, write_run


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with corpus, splits, config, index, and BM25 candidates."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = make_workspace(root)  # splits of 12 / 4 / 4 sorted query ids
    qids = sorted(qid for qid, _, _ in iter_queries(root / "queries.jsonl"))
    assert main(["index", str(cfg_path)]) == 0
    assert main(["retrieve", str(cfg_path)]) == 0
    return SimpleNamespace(root=root, cfg=str(cfg_path),
                           qids=qids, out=root / "work" / "out",
                           ckpt_dir=root / "work" / "ckpt")


@pytest.fixture(scope="module")
def trained(ws):
    assert main(["train", ws.cfg]) == 0
    ckpt = ws.ckpt_dir / "pooled-drmm-mv+extra-seed0.rrcp"
    assert ckpt.exists()
    return ckpt


def read_meta(path):
    with open(str(path) + ".meta.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestIndexCommand:
    def test_artifact_and_sidecar(self, ws):
        index_path = ws.root / "work" / "index.rrix"
        assert index_path.exists()
        meta = read_meta(index_path)
        assert meta["seed"] == 0
        assert len(meta["config_hash"]) == 64
        assert set(meta["input_hashes"]) == {"corpus"}
        assert meta["documents"] == 120

    def test_corpus_digest_is_the_sidecars(self, ws):
        index_path = ws.root / "work" / "index.rrix"
        digest = hashlib.sha256((ws.root / "corpus.jsonl").read_bytes()).hexdigest()
        assert load_index(index_path).corpus_digest == digest
        assert read_meta(index_path)["input_hashes"]["corpus"] == digest

    def test_rerun_is_byte_identical(self, ws):
        index_path = ws.root / "work" / "index.rrix"
        before = index_path.read_bytes()
        assert main(["index", ws.cfg]) == 0
        assert index_path.read_bytes() == before

    def test_empty_corpus_fails_with_config_error(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_text("")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "corpus": "corpus.jsonl", "embeddings": "e", "queries": "q",
            "qrels": "r", "index": "i", "checkpoints": "c", "outputs": "o",
        }))
        assert main(["index", str(cfg)]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_bytes(
            b'{"id": "d1", "text": "caf\xe9 aspirin"}\n')
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "corpus": "corpus.jsonl", "embeddings": "e", "queries": "q",
            "qrels": "r", "index": "i", "checkpoints": "c", "outputs": "o",
        }))
        assert main(["index", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and "corpus.jsonl:1: invalid UTF-8" in err


class TestRetrieveCommand:
    def test_run_file_shape(self, ws):
        run_path = ws.out / "bm25.run"
        lists = {rl.query_id: rl for rl in read_run(run_path)}
        assert sorted(lists) == ws.qids
        assert all(len(rl.entries) == 10 for rl in lists.values())
        meta = read_meta(run_path)
        assert meta["n_candidates"] == 10
        assert set(meta["input_hashes"]) == {"index", "queries"}

    def test_rerun_is_byte_identical(self, ws):
        run_path = ws.out / "bm25.run"
        before = run_path.read_bytes()
        assert main(["retrieve", ws.cfg]) == 0
        assert run_path.read_bytes() == before

    @pytest.mark.parametrize("field, value, message", [
        ("stemmer", "none", "built with stemmer 'none', but queries are "
                            "stemmed with 'porter'"),
        ("stopword_hash", "ab" * 32, "built with another stopword list"),
    ])
    def test_index_built_another_way_is_data_error(self, ws, tmp_path, capsys,
                                                   field, value, message):
        index = load_index(ws.root / "work" / "index.rrix")
        setattr(index, field, value)
        save_index(index, tmp_path / "other.rrix")
        out = tmp_path / "c.run"
        assert main(["retrieve", ws.cfg, "--set", f"index={tmp_path / 'other.rrix'}",
                     "--set", f"candidates={out}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data]: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,field,kind,output", [
        ("index", "corpus", "document", "index"),
        ("retrieve", "queries", "query", "candidates"),
    ])
    def test_repeated_id_is_data_error_naming_its_line(
            self, ws, tmp_path, capsys, command, field, kind, output):
        lines = (ws.root / f"{field}.jsonl").read_text().splitlines()
        first = json.loads(lines[0])["id"]
        lines[2] = json.dumps(dict(json.loads(lines[2]), id=first))
        repeated = tmp_path / f"{field}.jsonl"
        repeated.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "artifact"
        assert main([command, ws.cfg, "--set", f"{field}={repeated}",
                     "--set", f"{output}={out}"]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {repeated}:3: duplicate {kind} id {first!r}\n")
        assert not out.exists()

    def test_candidate_count_override(self, ws):
        assert main(["retrieve", ws.cfg, "--set", "candidates=pool3.run",
                     "--set", "n_candidates=3"]) == 0
        lists = read_run(ws.root / "pool3.run")
        assert all(len(rl.entries) == 3 for rl in lists)


class TestTrainCommand:
    def test_artifacts(self, ws, trained):
        log_path = trained.with_suffix(".log.jsonl")
        assert log_path.exists()
        meta = read_meta(trained)
        assert meta["model"] == "pooled-drmm-mv+extra"
        assert meta["epochs_run"] == 2
        assert 1 <= meta["best_epoch"] <= 2
        records = [json.loads(line) for line in
                   log_path.read_text().splitlines()]
        assert len(records) == 2
        assert all(set(r) == {"epoch", "train_loss", "dev_map"}
                   for r in records)

    def test_retrain_is_byte_identical(self, ws, trained, capsys):
        before = trained.read_bytes()
        log_before = trained.with_suffix(".log.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["train", ws.cfg]) == 0
        assert "queries skipped, 0 steps rejected -> " in capsys.readouterr().out
        assert trained.read_bytes() == before
        assert trained.with_suffix(".log.jsonl").read_bytes() == log_before

    def test_interrupted_retrain_keeps_previous_log(self, ws, trained,
                                                    monkeypatch):
        log_path = trained.with_suffix(".log.jsonl")
        before = log_path.read_bytes()
        evals = []

        def interrupt_second_epoch(model, data):
            evals.append(1)
            if len(evals) == 2:
                raise KeyboardInterrupt
            return 0.5

        monkeypatch.setattr(training, "dev_map", interrupt_second_epoch)
        with pytest.raises(KeyboardInterrupt):
            main(["train", ws.cfg])
        assert len(evals) == 2
        assert log_path.read_bytes() == before

    def test_embeddings_sharing_no_vocabulary_term_are_data_error(
            self, ws, tmp_path, capsys):
        header, *lines = (ws.root / "embeddings.txt").read_text().splitlines()
        emb = tmp_path / "prefixed.txt"
        emb.write_text("".join(f"{line}\n" for line in
                               [header] + ["X" + line for line in lines]))
        ckpt = tmp_path / "ckpt"
        assert main(["train", ws.cfg, "--set", f"embeddings={emb}",
                     "--set", f"checkpoints={ckpt}"]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {emb}: no token is a corpus vocabulary term\n")
        assert not ckpt.exists()

    def test_missing_split_is_config_error(self, ws, capsys):
        assert main(["train", ws.cfg, "--set", "train_split=null"]) == 2
        assert "train_split" in capsys.readouterr().err

    def test_overlapping_splits_rejected(self, ws, capsys):
        assert main(["train", ws.cfg, "--set", "dev_split=train.split"]) == 2
        assert "overlap" in capsys.readouterr().err


class TestRerankCommand:
    def test_untrained_combiner_gives_constant_scores(self, ws):
        # A fresh linear combiner has zero weights and bias, so every score
        # is 0.0 and candidates fall back to the doc-id tie-break order.
        rng = np.random.default_rng(0)
        model = build_model("bm25-extra", 6, rng)
        ckpt = ws.root / "zero.rrcp"
        save_params(ckpt, model.params)
        out = ws.root / "zero.run"
        assert main(["rerank", ws.cfg, "--set", "model=bm25-extra",
                     "--checkpoint", str(ckpt), "--output", str(out)]) == 0
        for rl in read_run(out):
            assert [c.score for c in rl.entries] == [0.0] * len(rl.entries)
            doc_ids = [c.doc_id for c in rl.entries]
            assert doc_ids == sorted(doc_ids)

    def test_oracle_flag_matches_module_oracle(self, ws):
        assert main(["rerank", ws.cfg, "--oracle"]) == 0
        qrels = read_qrels(ws.root / "qrels.txt")
        candidates = {rl.query_id: rl
                      for rl in read_run(ws.out / "bm25.run")}
        produced = {rl.query_id: rl for rl in read_run(ws.out / "oracle.run")}
        assert sorted(produced) == ws.qids[16:]  # eval split only
        for qid, rl in produced.items():
            expected = oracle_rerank(candidates[qid], qrels)
            assert [c.doc_id for c in rl.entries] == \
                [c.doc_id for c in expected.entries]

    def test_pipeline_matches_module_by_module_invocation(self, ws, trained):
        assert main(["rerank", ws.cfg]) == 0
        run_path = ws.out / "pooled-drmm-mv+extra-seed0.run"

        pipeline = TextPipeline()
        build = process_corpus(ws.root / "corpus.jsonl", pipeline)
        queries = process_queries(ws.root / "queries.jsonl", pipeline,
                                  build.vocabulary)
        emb = load_embeddings(ws.root / "embeddings.txt", build.vocabulary)
        candidates = {rl.query_id: rl
                      for rl in read_run(ws.out / "bm25.run")}
        builder = PairBuilder(queries, build.documents, candidates, emb,
                              build.idf, with_extra=True)
        model = build_model("pooled-drmm-mv", emb.dim,
                            np.random.default_rng(0), extra_features=True)
        from relrank.autodiff import load_params
        model.params.load_from(load_params(trained))
        expected = rerank_candidates(model, builder,
                                     {q: candidates[q] for q in ws.qids[16:]})
        manual = ws.root / "manual.run"
        write_run(manual, expected, tag=model.name)
        assert run_path.read_bytes() == manual.read_bytes()

    @pytest.mark.parametrize("oracle", [True, False])
    def test_eval_split_without_candidates_is_data_error(self, ws, trained,
                                                          tmp_path, capsys, oracle):
        split = tmp_path / "test.split"
        split.write_text((ws.root / "test.split").read_text() + "qZZZ\n")
        args = ["rerank", ws.cfg, "--set", f"eval_split={split}",
                "--output", str(tmp_path / "out.run")]
        assert main(args + ["--oracle"] * oracle) == 3
        assert ("error[data]: eval split names queries without candidates: "
                "['qZZZ']") in capsys.readouterr().err
        assert not (tmp_path / "out.run").exists()

    def test_missing_checkpoint_is_config_error(self, ws, capsys):
        assert main(["rerank", ws.cfg, "--seed", "77"]) == 2
        assert "checkpoint not found" in capsys.readouterr().err


class TestEvalCommand:
    def test_single_run_report(self, ws, capsys):
        run = str(ws.out / "bm25.run")
        assert main(["eval", ws.cfg, run]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "ap" in out
        payload = json.loads((ws.out / "bm25.metrics.json").read_text())
        assert payload["run"] == "bm25"
        assert set(payload["per_query"]) <= set(ws.qids[16:])
        assert (ws.out / "bm25.metrics.json.meta.json").exists()

    def test_two_runs_add_significance(self, ws, trained, capsys):
        assert main(["rerank", ws.cfg]) == 0
        capsys.readouterr()
        run = str(ws.out / "pooled-drmm-mv+extra-seed0.run")
        base = str(ws.out / "bm25.run")
        assert main(["eval", ws.cfg, run, base,
                     "--permutations", "500"]) == 0
        out = capsys.readouterr().out
        assert "map difference" in out and "permutations" in out
        payload = json.loads(
            (ws.out / "pooled-drmm-mv+extra-seed0.metrics.json").read_text())
        sig = payload["significance"]
        assert sig["permutations"] == 500
        assert 0.0 < sig["p_value"] <= 1.0
        assert payload["baseline"]["run"] == "bm25"

    @pytest.mark.parametrize("position", [0, 1])
    def test_run_without_a_split_query_is_data_error(self, ws, tmp_path,
                                                     capsys, position):
        kept = ws.qids[16]  # the first of the 4 test-split queries
        short = tmp_path / "short.run"
        write_run(short, [rl for rl in read_run(ws.out / "bm25.run")
                          if rl.query_id == kept], tag="bm25")
        runs = [str(ws.out / "bm25.run")] * 2
        runs[position] = str(short)
        assert main(["eval", ws.cfg, *runs,
                     "--set", f"outputs={tmp_path}"]) == 3
        assert capsys.readouterr().err == (
            f"error[data]: {short}: eval split names queries the run leaves "
            f"out: {ws.qids[17:20]}\n")
        assert not list(tmp_path.glob("*.metrics.json"))

    @pytest.mark.parametrize("permutations", ["0", "-5"])
    @pytest.mark.parametrize("n_runs", [1, 2])
    @pytest.mark.parametrize("missing", [[], ["--set", "qrels=absent.txt"]],
                             ids=["inputs", "no-qrels"])
    def test_permutations_below_one_rejected_before_any_input_is_read(
            self, ws, tmp_path, capsys, permutations, n_runs, missing):
        runs = [str(ws.out / "bm25.run")] * n_runs
        assert main(["eval", ws.cfg, *runs, "--permutations", permutations,
                     "--set", f"outputs={tmp_path}", *missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[config]: --permutations must be >= 1, got {permutations}\n")
        assert not list(tmp_path.iterdir())

    def test_missing_run_file(self, ws, capsys):
        assert main(["eval", ws.cfg, str(ws.out / "nope.run")]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_malformed_run_is_data_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.run"
        bad.write_text("q1 Q0 d1 1 not-a-number tag\n")
        assert main(["eval", ws.cfg, str(bad)]) == 3
        assert "error[data]" in capsys.readouterr().err


class TestInspectCommand:
    def pick_pair(self, ws):
        rl = read_run(ws.out / "bm25.run")
        by_id = {r.query_id: r for r in rl}
        qid = ws.qids[16]
        return qid, by_id[qid].entries[0].doc_id

    def test_stdout_dump(self, ws, trained, capsys):
        qid, did = self.pick_pair(ws)
        assert main(["inspect", ws.cfg, qid, did, "--budget", "6"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["query_id"] == qid and dump["doc_id"] == did
        assert dump["doc_terms_shown"] <= 6
        exact = np.array(dump["views"]["exact"])
        assert set(np.unique(exact)) <= {0.0, 1.0}
        assert len(dump["views"]["context"]) == len(dump["query_terms"])

    def test_output_file_with_sidecar(self, ws, trained):
        qid, did = self.pick_pair(ws)
        out = ws.root / "dump.json"
        assert main(["inspect", ws.cfg, qid, did,
                     "--output", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert "views" in dump
        assert read_meta(out)["seed"] == 0

    @pytest.mark.parametrize("missing", [[], ["--set", "corpus=absent.jsonl"]],
                             ids=["inputs", "no-corpus"])
    def test_budget_below_one_rejected_before_any_input_is_read(
            self, ws, trained, capsys, missing):
        qid, did = self.pick_pair(ws)
        assert main(["inspect", ws.cfg, qid, did, "--budget", "0",
                     *missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[config]: --budget must be >= 1, got 0\n"

    def test_unknown_query_is_data_error(self, ws, trained, capsys):
        assert main(["inspect", ws.cfg, "zzz", "d00001"]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_histogram_model_has_no_views(self, ws, capsys):
        rng = np.random.default_rng(0)
        model = build_model("drmm", 6, rng, extra_features=True)
        ckpt = ws.root / "hist.rrcp"
        save_params(ckpt, model.params)
        qid, did = self.pick_pair(ws)
        assert main(["inspect", ws.cfg, qid, did,
                     "--set", "model=drmm",
                     "--checkpoint", str(ckpt)]) == 2
        assert "no context encodings" in capsys.readouterr().err


class TestXvalCommand:
    def test_folds_partition_the_queries(self, ws):
        assert main(["xval", ws.cfg, "--folds", "4"]) == 0
        root = ws.out / "xval"
        seen = []
        for i in range(4):
            fold = root / f"fold{i}"
            cfg = load_config(fold / "config.json")
            train = set(Path(cfg.train_split).read_text().split())
            dev = set(Path(cfg.dev_split).read_text().split())
            test = set(Path(cfg.eval_split).read_text().split())
            assert not (train & dev) and not (train & test) and not (dev & test)
            assert train | dev | test == set(ws.qids)
            # load_config joins without normalizing: fold<i>/../../bm25.run
            assert (Path(cfg.candidates_path).resolve()
                    == (ws.out / "bm25.run").resolve())
            raw = json.loads((fold / "config.json").read_text())
            assert not [v for v in raw.values()
                        if isinstance(v, str) and Path(v).is_absolute()]
            seen.extend(sorted(test))
        assert sorted(seen) == ws.qids  # each query tests exactly once
        assert (root / "xval.meta.json").exists()

    def test_fold_config_trains(self, ws):
        fold_cfg = ws.out / "xval" / "fold0" / "config.json"
        assert main(["train", str(fold_cfg), "--set",
                     "training.epochs=1"]) == 0
        ckpts = list((ws.out / "xval" / "fold0" / "checkpoints").glob("*.rrcp"))
        assert len(ckpts) == 1

    def test_rerun_is_deterministic(self, ws):
        fold0 = ws.out / "xval" / "fold0" / "config.json"
        before = fold0.read_bytes()
        assert main(["xval", ws.cfg, "--folds", "4"]) == 0
        assert fold0.read_bytes() == before

    def test_too_few_folds(self, ws, capsys):
        assert main(["xval", ws.cfg, "--folds", "1"]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_two_folds_leave_none_to_train(self, ws, capsys):
        assert main(["xval", ws.cfg, "--folds", "2"]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "at least 3 folds" in err

    def test_more_folds_than_queries(self, ws, capsys):
        assert main(["xval", ws.cfg, "--folds", "21"]) == 3
        assert "error[data]" in capsys.readouterr().err


class TestRepeatCommand:
    def test_summary_over_seeds(self, ws, capsys):
        # Moving outputs also moves the implied candidates path, so pin it.
        assert main(["repeat", ws.cfg, "--seeds", "2",
                     "--set", "model=bm25-extra",
                     "--set", "outputs=work/repeat",
                     "--set", "candidates=work/out/bm25.run"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out and "std" in out
        folder = ws.root / "work" / "repeat"
        summary = json.loads(
            (folder / "repeat-bm25-extra.summary.json").read_text())
        assert summary["seeds"] == [0, 1]
        assert set(summary["per_seed"]) == {"0", "1"}
        for block in (summary["mean"], summary["std"]):
            assert set(block) == {"map", "p20", "ndcg20"}
        assert summary["runs"] == {s: f"bm25-extra-seed{s}.run"
                                   for s in ("0", "1")}
        for seed in ("0", "1"):
            assert (folder / summary["runs"][seed]).exists()

    def test_missing_eval_split_is_reported_as_eval_reports_it(self, ws, capsys):
        missing = ["--set", "eval_split=missing.split"]
        assert main(["eval", ws.cfg, str(ws.out / "bm25.run")] + missing) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("error[config]: input path(s) not found")
        assert main(["repeat", ws.cfg, "--seeds", "1"] + missing) == 2
        assert capsys.readouterr().err == expected

    def test_zero_seeds_rejected(self, ws, capsys):
        assert main(["repeat", ws.cfg, "--seeds", "0"]) == 2
        assert "error[config]" in capsys.readouterr().err


class TestErrorReporting:
    def test_bad_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        assert main(["index", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]:")

    def test_unknown_override_key(self, ws, capsys):
        assert main(["index", ws.cfg, "--set", "learning_rate=1"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["corpus=5", "outputs=[1]"])
    def test_path_of_another_type(self, ws, capsys, override):
        assert main(["index", ws.cfg, "--set", override]) == 2
        name = override.partition("=")[0]
        assert capsys.readouterr().err.startswith(
            f"error[config]: {name} must be a path or null")


    @pytest.mark.parametrize("override,message", [
        ('hyperparameters.k="x"',
         "hyperparameters.k of pooled-drmm-mv must be an integer, got 'x'"),
        ("hyperparameters.dropout=true",
         "hyperparameters.dropout of pooled-drmm-mv must be a number, got True"),
        ("training.epochs=true", "training.epochs must be an integer, got True"),
        ("extra_features=5", "extra_features must be true or false, got 5"),
    ])
    def test_value_of_another_type(self, ws, capsys, override, message):
        assert main(["train", ws.cfg, "--set", override]) == 2
        assert capsys.readouterr().err.startswith(f"error[config]: {message}")

    # Each of the first six once ended in a traceback, a data error about a
    # document's NaN score, or an exit 0 that saved the untrained
    # parameters.  The rest are one case per value range rule.
    BAD_VALUES = [
        (["hyperparameters.extra_features=true"],
         "unknown pooled-drmm-mv hyperparameters ['extra_features']"),
        (["hyperparameters.emb_matrix=1"],
         "unknown pooled-drmm-mv hyperparameters ['emb_matrix']"),
        (["training.learning_rate=NaN"],
         "training.learning_rate must be a finite number, got nan"),
        (["training.margin=Infinity"],
         "training.margin must be a finite number, got inf"),
        (["hyperparameters.dropout=NaN"],
         "hyperparameters.dropout of pooled-drmm-mv must be a finite number, got nan"),
        (["seed=-1"], "seed must be non-negative, got -1"),
        (["hyperparameters.gate_mode=tf"],
         "hyperparameters.gate_mode of pooled-drmm-mv must be one of "
         "('emb+idf', 'emb', 'idf'), got 'tf'"),
        (["model=drmm", "hyperparameters.buckets=0"],
         "hyperparameters.buckets of drmm must be >= 1, got 0"),
        (["hyperparameters.k=0"],
         "hyperparameters.k of pooled-drmm-mv must be >= 1, got 0"),
        (["model=pacrr", "hyperparameters.k=301"],
         "hyperparameters.k of pacrr must be in [1, max_doc_terms=300], got 301"),
        (["model=pacrr", "hyperparameters.max_kernel=1"],
         "hyperparameters.max_kernel of pacrr must be in "
         "[2, max_query_terms=30], got 1"),
        (["model=pacrr", "hyperparameters.max_kernel=5",
          "hyperparameters.max_query_terms=4"],
         "hyperparameters.max_kernel of pacrr must be in "
         "[2, max_query_terms=4], got 5"),
        (["model=pacrr", "hyperparameters.filters=0"],
         "hyperparameters.filters of pacrr must be >= 1, got 0"),
        (["hyperparameters.dropout=1.0"],
         "hyperparameters.dropout of pooled-drmm-mv must be in [0, 1), got 1.0"),
        (["hyperparameters.dropout=-0.5"],
         "hyperparameters.dropout of pooled-drmm-mv must be in [0, 1), got -0.5"),
    ]

    @staticmethod
    def flags(overrides):
        return [flag for o in overrides for flag in ("--set", o)]

    @pytest.mark.parametrize("overrides,message", BAD_VALUES)
    def test_bad_value_is_one_config_error_and_no_checkpoint(
            self, ws, capsys, overrides, message):
        ckpt = ws.root / "work" / "rejected-ckpt"
        assert main(["train", ws.cfg, *self.flags(overrides),
                     "--set", f"checkpoints={ckpt}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[config]: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("overrides,message", BAD_VALUES)
    def test_bad_value_is_reported_before_any_input_is_read(
            self, ws, capsys, overrides, message):
        assert main(["train", ws.cfg, *self.flags(overrides),
                     "--set", "corpus=absent.jsonl"]) == 2
        assert capsys.readouterr().err.startswith(f"error[config]: {message}")


class TestAnyDirectory:
    def test_every_file_is_byte_identical(self, tmp_path):
        """One workspace, built and run in two directories at different
        depths, gives the same bytes in every file, sidecars included."""
        manifests = []
        for root in (tmp_path / "a", tmp_path / "b" / "c" / "d"):
            cfg = build(root, runs=[()])
            out = root / "work" / "out"
            run = str(out / "pooled-drmm-mv+extra-seed0.run")
            run_cli("eval", cfg, run, str(out / "bm25.run"),
                    "--permutations", "100")
            top = read_run(run)[0]
            run_cli("inspect", cfg, top.query_id, top.entries[0].doc_id,
                    "--output", str(out / "dump.json"))
            run_cli("xval", cfg)
            run_cli("repeat", cfg, "--seeds", "2")
            manifests.append(manifest(root))
        # 22 files from the single run, 21 from xval's 5 folds, 8 from the
        # second seed and the summary.
        assert len(manifests[0]) == 51
        assert sum(p.endswith(".meta.json") for p in manifests[0]) == 12
        assert manifests[0] == manifests[1]
        assert manifests[0] == manifests[1]


class TestConsoleScript:
    """The ``relrank`` console entry point, run as pip's wrapper runs it.

    The target is read from ``pyproject.toml`` rather than looked up on PATH,
    so the check holds whether or not the package has been pip-installed.
    """

    SUBCOMMANDS = {"index", "retrieve", "train", "rerank", "eval",
                   "inspect", "xval", "repeat"}

    def test_help_lists_subcommands(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        # The [project.scripts] table runs up to the next table header.
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                            pyproject.read_text(), re.MULTILINE | re.DOTALL)
        assert section, "pyproject.toml has no [project.scripts] table"
        scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"',
                                  section.group(1), re.MULTILINE))
        assert "relrank" in scripts
        target = re.fullmatch(r"([\w.]+):(\w+)", scripts["relrank"])
        assert target, f"not a module:function target: {scripts['relrank']}"
        module, func = target.groups()

        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run([sys.executable, "-c", code, "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

        # The usage block ends at the first blank line; it may wrap.
        usage = proc.stdout.split("\n\n", 1)[0]
        match = re.match(r"usage: (\S+) .*?\{([^}]*)\}", usage, re.DOTALL)
        assert match, proc.stdout
        assert match.group(1) in scripts
        assert set(match.group(2).split(",")) == self.SUBCOMMANDS
