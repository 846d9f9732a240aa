"""Pipeline configuration: one JSON file, dotted flag overrides, content hashes.

Every CLI subcommand consumes the same ``PipelineConfig``.  Artifacts written
by commands carry a ``.meta.json`` sidecar embedding the seed, the config
hash, and the SHA-256 of every input file the command read, so a run can be
audited and reproduced byte for byte.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, DataError
from .files import write_json
from .training import TrainConfig

__all__ = [
    "PipelineConfig",
    "load_config",
    "apply_override",
    "read_split",
    "write_meta",
]

# Training keys that may appear in the "training" table; values fall back to
# TrainConfig defaults (the seed always comes from the top-level field).
_TRAINING_KEYS = ("epochs", "batch_size", "margin", "learning_rate",
                  "patience", "clip_norm")

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
        from .models import model_names
        if self.model not in model_names():
            raise ConfigError(
                f"unknown model {self.model!r}; choose from {model_names()}")
        if not isinstance(self.n_candidates, int) or self.n_candidates < 1:
            raise ConfigError(
                f"n_candidates must be a positive integer, got {self.n_candidates!r}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.embedding_format not in ("text", "binary"):
            raise ConfigError(
                f"embedding_format must be 'text' or 'binary', "
                f"got {self.embedding_format!r}")
        unknown = set(self.training) - set(_TRAINING_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown training keys {sorted(unknown)}; "
                f"accepted: {sorted(_TRAINING_KEYS)}")
        if not isinstance(self.hyperparameters, dict):
            raise ConfigError("hyperparameters must be a JSON object")
        # Validate value ranges eagerly so typos fail before any work starts.
        self.train_config()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
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
        """Check that the named path fields are set and exist on disk."""
        missing = []
        for name in names:
            value = self.candidates_path if name == "candidates" else getattr(self, name)
            if value is None:
                raise ConfigError(f"config is missing the {name!r} path")
            if not Path(value).exists():
                missing.append(f"{name}: {value}")
        if missing:
            raise ConfigError("input path(s) not found: " + "; ".join(missing))


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for override in overrides:
        apply_override(data, override)
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    base = path.resolve().parent
    for name in _PATH_FIELDS:
        value = data.get(name)
        if value is not None and not Path(value).is_absolute():
            data[name] = str(base / value)
    try:
        return PipelineConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")


def read_split(path) -> list[str]:
    """Read one query id per line; blank lines are skipped."""
    ids = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            qid = line.strip()
            if not qid:
                continue
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
