"""Pipeline configuration: one JSON file, dotted flag overrides, content hashes.

Every CLI subcommand consumes the same ``PipelineConfig``.  Artifacts written
by commands carry a ``.meta.json`` sidecar embedding the seed, the config
hash, and the SHA-256 of every input file the command read, so a run can be
audited and reproduced byte for byte, in any directory.  A command names each
input once, in :meth:`PipelineConfig.require_inputs`, and the sidecar names it
by content alone: :meth:`PipelineConfig.meta` hashes exactly those inputs.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .embeddings import FORMATS
from .errors import ConfigError, DataError, check_type
from .files import file_digest, read_lines, write_json
from .training import TrainConfig

__all__ = [
    "PipelineConfig",
    "load_config",
    "apply_override",
    "read_split",
    "write_config",
    "write_meta",
]

# Training keys that may appear in the "training" table; values fall back to
# TrainConfig defaults (the seed always comes from the top-level field).
_TRAINING_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")

_PATH_FIELDS = ("corpus", "embeddings", "queries", "qrels", "index",
                "checkpoints", "outputs", "candidates", "train_split",
                "dev_split", "eval_split")


@dataclass
class PipelineConfig:
    """Everything a pipeline invocation needs, resolved and validated.

    ``index`` is the index file, ``checkpoints`` and ``outputs`` are
    directories.  ``candidates`` names the TREC run file holding the BM25
    top-N pool; when omitted it defaults to ``<outputs>/bm25.run`` so the
    ``retrieve`` and ``train``/``rerank`` stages agree without extra flags.
    The ``*_split`` paths are optional text files with one query id per
    line restricting which queries a stage touches.
    """

    corpus: str
    embeddings: str
    queries: str
    qrels: str
    index: str
    checkpoints: str
    outputs: str
    model: str = "pooled-drmm-mv"
    hyperparameters: dict = field(default_factory=dict)
    extra_features: bool = True
    n_candidates: int = 100
    seed: int = 0
    embedding_format: str = "text"
    date_cutoff_field: str | None = None
    candidates: str | None = None
    train_split: str | None = None
    dev_split: str | None = None
    eval_split: str | None = None
    training: dict = field(default_factory=dict)

    def __post_init__(self):
        from .models import check_hyperparameters
        if type(self.n_candidates) is not int or self.n_candidates < 1:
            raise ConfigError(
                f"n_candidates must be a positive integer, got {self.n_candidates!r}")
        check_type("seed", self.seed, 0)
        check_type("extra_features", self.extra_features, True)
        if not isinstance(self.date_cutoff_field, (str, type(None))):
            raise ConfigError(f"date_cutoff_field must be a string or null, "
                              f"got {self.date_cutoff_field!r}")
        for name in _PATH_FIELDS:
            if not isinstance(value := getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path or null, got {value!r}")
        if self.embedding_format not in FORMATS:
            raise ConfigError(
                f"embedding_format must be 'text' or 'binary', "
                f"got {self.embedding_format!r}")
        if not isinstance(self.training, dict):
            raise ConfigError("training must be a JSON object")
        unknown = set(self.training) - set(_TRAINING_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown training keys {sorted(unknown)}; "
                f"accepted: {sorted(_TRAINING_KEYS)}")
        if not isinstance(self.hyperparameters, dict):
            raise ConfigError("hyperparameters must be a JSON object")
        # Validate the model and its settings eagerly, so typos fail before
        # any stage reads a file.
        check_hyperparameters(self.model, self.hyperparameters)
        self.train_config()
        # The inputs require_inputs checked, by name; not a field, so the
        # config hash and the per-fold configs xval writes leave it out.
        self._inputs: dict[str, str] = {}

    @property
    def config_hash(self) -> str:
        """SHA-256 of the non-path fields; ``meta`` names inputs by content."""
        canon = json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                            if f.name not in _PATH_FIELDS},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(seed=self.seed if seed is None else seed,
                           **self.training)

    @property
    def candidates_path(self) -> str:
        if self.candidates is not None:
            return self.candidates
        return str(Path(self.outputs) / "bm25.run")

    def require_inputs(self, *names: str) -> None:
        """Check that the named path fields are set and exist on disk.

        Every sidecar this invocation writes afterwards hashes them.
        """
        missing = []
        for name in names:
            value = self.candidates_path if name == "candidates" else getattr(self, name)
            if value is None:
                raise ConfigError(f"config is missing the {name!r} path")
            if not Path(value).exists():
                missing.append(f"{name}: {value}")
            self._inputs[name] = value
        if missing:
            raise ConfigError("input path(s) not found: " + "; ".join(missing))

    def meta(self, paths: dict | None = None, seed: int | None = None,
             **fields) -> dict:
        """The ``.meta.json`` provenance of an artifact: the seed, the config
        hash, and the SHA-256 of every input :meth:`require_inputs` checked
        plus the ``paths`` the stage took from elsewhere (a checkpoint, a
        run), followed by the stage's own ``fields``."""
        inputs = dict(self._inputs, **(paths or {}))
        return {
            "seed": self.seed if seed is None else seed,
            "config_hash": self.config_hash,
            "input_hashes": {name: file_digest(path)
                             for name, path in sorted(inputs.items())},
            **fields,
        }


def apply_override(data: dict, override: str) -> None:
    """Apply one ``key=value`` override in place; keys may be dotted.

    Values are parsed as JSON when possible (so ``seed=3`` is an int and
    ``extra_features=false`` a bool) and fall back to plain strings.
    """
    key, sep, raw = override.partition("=")
    if not sep or not key:
        raise ConfigError(f"override {override!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override {key!r} descends into non-object {part!r}")
        node = nxt
    node[parts[-1]] = value


def load_config(path, overrides=()) -> PipelineConfig:
    """Read a JSON config, apply overrides, resolve paths against its folder."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for override in overrides:
        apply_override(data, override)
    unknown = set(data) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = path.resolve().parent  # an absolute path replaces it when joined
    data.update({name: str(base / data[name]) for name in _PATH_FIELDS
                 if isinstance(data.get(name), str)})
    try:
        return PipelineConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")


def write_config(path, cfg: PipelineConfig) -> None:
    """Write ``cfg`` as a config file that names each path relative to its
    own folder, the folder :func:`load_config` resolves paths against, so
    the file does not depend on where its tree lies."""
    base = Path(path).parent
    write_json(path, {name: os.path.relpath(value, base)
                      if name in _PATH_FIELDS and value is not None else value
                      for name, value in asdict(cfg).items()})


def read_split(path) -> list[str]:
    """Read one query id per line; blank lines are skipped."""
    ids = []
    seen = set()
    for line_no, qid in read_lines(path):
        if qid in seen:
            raise DataError(f"{path}:{line_no}: duplicate query id {qid!r}")
        seen.add(qid)
        ids.append(qid)
    if not ids:
        raise DataError(f"{path}: split file lists no query ids")
    return ids


def write_meta(artifact_path, meta: dict) -> None:
    """Write the ``.meta.json`` sidecar for an artifact."""
    write_json(str(artifact_path) + ".meta.json", meta)
