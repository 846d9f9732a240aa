"""Tests for pipeline configuration loading, overrides, and hashing."""

import json
from dataclasses import fields

import pytest

from relrank.config import (PipelineConfig, apply_override, load_config,
                            read_split)
from relrank.errors import ConfigError, DataError, check_type

MINIMAL = {
    "corpus": "corpus.jsonl",
    "embeddings": "embeddings.txt",
    "queries": "queries.jsonl",
    "qrels": "qrels.txt",
    "index": "index.rrix",
    "checkpoints": "ckpt",
    "outputs": "out",
}

PATH_FIELDS = ("corpus", "embeddings", "queries", "qrels", "index",
               "checkpoints", "outputs", "candidates", "train_split",
               "dev_split", "eval_split")

# A value other than the default for every field that is not a path.
CHANGED = {
    "model": "pacrr",
    "hyperparameters": {"k": 3},
    "extra_features": False,
    "n_candidates": 7,
    "seed": 1,
    "embedding_format": "binary",
    "date_cutoff_field": "date",
    "training": {"epochs": 9},
}


def write_config(tmp_path, extra=None, name="config.json"):
    data = dict(MINIMAL)
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoadConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.model == "pooled-drmm-mv"
        assert cfg.extra_features is True
        assert cfg.n_candidates == 100
        assert cfg.seed == 0
        assert cfg.training == {}
        assert cfg.train_split is None

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.corpus == str(tmp_path / "corpus.jsonl")
        assert cfg.candidates_path == str(tmp_path / "out" / "bm25.run")

    def test_absolute_paths_pass_through(self, tmp_path):
        path = write_config(tmp_path, {"corpus": "/data/corpus.jsonl"})
        assert load_config(path).corpus == "/data/corpus.jsonl"

    def test_explicit_candidates_wins_over_convention(self, tmp_path):
        path = write_config(tmp_path, {"candidates": "pool.run"})
        assert load_config(path).candidates_path == str(tmp_path / "pool.run")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_utf8_config(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"corpus": "caf\xe9.jsonl"}')
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"learning_rate": 0.1})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    @pytest.mark.parametrize("override, name", [
        ("corpus=5", "corpus"),
        ("outputs=[1]", "outputs"),
        ("candidates={}", "candidates"),
        ("eval_split=true", "eval_split"),
    ])
    def test_path_of_another_type_rejected(self, tmp_path, override, name):
        with pytest.raises(ConfigError, match=f"{name} must be a path or null"):
            load_config(write_config(tmp_path), [override])

    def test_path_of_another_type_in_file_rejected(self, tmp_path):
        path = write_config(tmp_path, {"outputs": [1]})
        with pytest.raises(ConfigError, match="outputs must be a path or null, got \\[1\\]"):
            load_config(path)

    def test_missing_required_path_rejected(self, tmp_path):
        data = dict(MINIMAL)
        del data["corpus"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="corpus"):
            load_config(path)


class TestOverrides:
    def test_scalar_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["seed=3"])
        assert cfg.seed == 3

    def test_nested_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["training.epochs=7"])
        assert cfg.training == {"epochs": 7}
        assert cfg.train_config().epochs == 7

    def test_non_json_value_stays_a_string(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["model=pacrr"])
        assert cfg.model == "pacrr"

    def test_boolean_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["extra_features=false"])
        assert cfg.extra_features is False

    def test_override_path_resolves_too(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["outputs=elsewhere"])
        assert cfg.outputs == str(tmp_path / "elsewhere")

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "no-equals-sign")

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigError, match="non-object"):
            apply_override({"seed": 3}, "seed.depth=1")


class TestValidation:
    def base(self, **kwargs):
        data = {k: v for k, v in MINIMAL.items()}
        data.update(kwargs)
        return PipelineConfig(**data)

    def test_valid_minimal(self):
        cfg = self.base()
        assert cfg.model == "pooled-drmm-mv"

    @pytest.mark.parametrize("field,value,message", [
        ("model", "made-up", "unknown model"),
        ("n_candidates", 0, "positive integer"),
        ("n_candidates", "10", "positive integer"),
        ("n_candidates", True, "positive integer"),
        ("seed", "abc", "seed must be"),
        ("seed", True, "seed must be"),
        ("seed", 1.0, "seed must be"),
        ("queries", 5, "queries must be a path or null"),
        ("train_split", ["a"], "train_split must be a path or null"),
        ("embedding_format", "csv", "embedding_format"),
        ("training", {"momentum": 0.9}, "unknown training keys"),
        ("training", {"epochs": 0}, "epoch budget"),
        ("hyperparameters", ["k", 3], "JSON object"),
        ("extra_features", 5, "extra_features must be true or false, got 5"),
        ("extra_features", "false", "extra_features must be true or false"),
        ("date_cutoff_field", 5, "date_cutoff_field must be a string or null, got 5"),
        ("training", 5, "training must be a JSON object"),
        ("training", {"epochs": True}, "training.epochs must be an integer, got True"),
        ("training", {"epochs": "x"}, "training.epochs must be an integer, got 'x'"),
        ("training", {"epochs": 2.0}, "training.epochs must be an integer"),
        ("training", {"batch_size": "8"}, "training.batch_size must be an integer"),
        ("training", {"learning_rate": "0.1"}, "training.learning_rate must be a number"),
        ("training", {"margin": True}, "training.margin must be a number"),
    ])
    def test_bad_values(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            self.base(**{field: value})

    @pytest.mark.parametrize("hyper,message", [
        ({"extra_features": True}, r"unknown pooled-drmm-mv hyperparameters \['extra_features'\]"),
        ({"emb_matrix": 1}, r"unknown pooled-drmm-mv hyperparameters \['emb_matrix'\]"),
        ({"k": "3"}, "hyperparameters.k of pooled-drmm-mv must be an integer"),
        ({"dropout": float("nan")}, "hyperparameters.dropout of pooled-drmm-mv "
                                    "must be a finite number, got nan"),
    ])
    def test_hyperparameters_checked_at_load(self, hyper, message):
        with pytest.raises(ConfigError, match=message):
            self.base(hyperparameters=hyper)

    def test_baseline_hyperparameters_checked_at_load(self):
        with pytest.raises(ConfigError, match="bm25-extra takes no hyperparameters"):
            self.base(model="bm25-extra", hyperparameters={"k": 3})

    def test_train_config_seed_override(self):
        cfg = self.base(training={"epochs": 4, "learning_rate": 0.01}, seed=9)
        assert cfg.train_config().seed == 9
        assert cfg.train_config(seed=2).seed == 2
        assert cfg.train_config().learning_rate == 0.01

    def test_require_inputs(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        with pytest.raises(ConfigError, match="corpus"):
            cfg.require_inputs("corpus")
        (tmp_path / "corpus.jsonl").write_text("{}")
        cfg.require_inputs("corpus")

    def test_require_unset_optional_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="train_split"):
            cfg.require_inputs("train_split")


class TestConfigHash:
    def test_stable_across_loads(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(path).config_hash == load_config(path).config_hash

    def test_fields_are_paths_or_changed_values(self):
        names = {f.name for f in fields(PipelineConfig)}
        assert names == set(PATH_FIELDS) | set(CHANGED)

    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_any_field_change_moves_the_hash(self, tmp_path, name):
        base = load_config(write_config(tmp_path)).config_hash
        changed = f"{name}={json.dumps(CHANGED[name])}"
        assert load_config(write_config(tmp_path), [changed]).config_hash != base

    @pytest.mark.parametrize("name", PATH_FIELDS)
    def test_no_path_field_moves_the_hash(self, tmp_path, name):
        base = load_config(write_config(tmp_path)).config_hash
        moved = f"{name}=elsewhere/{name}.file"
        assert load_config(write_config(tmp_path), [moved]).config_hash == base

    def test_same_config_in_another_directory_hashes_alike(self, tmp_path):
        here, there = tmp_path / "a", tmp_path / "b" / "c" / "d"
        for root in (here, there):
            root.mkdir(parents=True)
            for name in ("corpus", "embeddings", "queries", "qrels"):
                (root / MINIMAL[name]).write_text(f"{name}\n")
        assert (load_config(write_config(here)).config_hash
                == load_config(write_config(there)).config_hash)

    def test_absolute_path_to_a_copy_hashes_alike(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text("corpus\n")
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "corpus.jsonl"
        copy.write_text("corpus\n")
        relative = load_config(write_config(tmp_path))
        absolute = load_config(write_config(tmp_path, {"corpus": str(copy)}))
        assert relative.corpus != absolute.corpus
        assert relative.config_hash == absolute.config_hash

    def test_key_order_is_irrelevant(self, tmp_path):
        a = write_config(tmp_path, name="a.json")
        reordered = dict(reversed(list(json.loads(a.read_text()).items())))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(reordered))
        assert load_config(a).config_hash == load_config(b).config_hash


class TestReadSplit:
    def test_reads_ids_in_order(self, tmp_path):
        path = tmp_path / "dev.split"
        path.write_text("q2\n\nq1\n")
        assert read_split(path) == ["q2", "q1"]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dev.split"
        path.write_text("q1\nq1\n")
        with pytest.raises(DataError, match="duplicate"):
            read_split(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "dev.split"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no query ids"):
            read_split(path)


class TestCheckType:
    """The one JSON-type rule behind every config value."""

    @pytest.mark.parametrize("value,default", [
        (True, False), (3, 0), (-2, 0), (3, 0.5), (2.5, 0.5), (10**400, 0.5),
        ("x", "y"),
    ])
    def test_accepted(self, value, default):
        check_type("f", value, default)

    @pytest.mark.parametrize("value,default,want", [
        (1, False, "true or false"),
        ("true", False, "true or false"),
        (True, 0, "an integer"),
        (2.0, 0, "an integer"),
        (float("nan"), 0, "an integer"),
        (False, 0.5, "a number"),
        ("0.5", 0.5, "a number"),
        (float("nan"), 0.5, "a finite number"),
        (float("inf"), 0.5, "a finite number"),
        (-float("inf"), 0.5, "a finite number"),
        (1, "y", "a string"),
        (None, "y", "a string"),
    ])
    def test_rejected_naming_the_field(self, value, default, want):
        with pytest.raises(ConfigError) as info:
            check_type("section.field", value, default)
        assert str(info.value) == f"section.field must be {want}, got {value!r}"
