"""Build the acceptance-7 workspace's artifacts and print their SHA-256.

    PYTHONPATH=<tree>/src python tests/artifact_manifest.py DIR

generates the workspace of acceptance 7 (``make_workspace`` in support.py)
in DIR, runs ``index`` and ``retrieve``, then ``train`` and ``rerank`` for
20 models: the 8 with the extra features, the 7 neural ones without them,
the 4 encoder models with trainable embeddings, and pooled-drmm-mv with
input dropout, the one run that draws dropout masks.  The last five share
the ``+extra`` names, so they write under ``work/trainable`` and
``work/dropout``.  It prints ``sha256  path`` for each of the 124 files
under ``DIR/work``, sorted by path.  relrank comes from PYTHONPATH, so one recipe builds any tree's
artifacts, and comparing two trees, or one tree in two directories, is one
``diff`` of two manifests.

The manifest is a check: a difference it shows is mended in the program or
explained, never hidden by editing this script.
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

from support import make_workspace

from relrank.cli import main as cli_main

NEURAL = ("attn-drmm", "attn-drmm-mv", "drmm", "pacrr", "pacrr-drmm",
          "pooled-drmm", "pooled-drmm-mv")
ENCODER = ("attn-drmm", "attn-drmm-mv", "pooled-drmm", "pooled-drmm-mv")

# The --set overrides of each train + rerank pair, on top of the config.
RUNS = (
    *((f"model={m}",) for m in ("bm25-extra", *NEURAL)),
    *((f"model={m}", "extra_features=false") for m in NEURAL),
    *((f"model={m}", "hyperparameters.trainable_embeddings=true",
       "checkpoints=work/trainable/ckpt", "outputs=work/trainable/out",
       "candidates=work/out/bm25.run") for m in ENCODER),
    ("model=pooled-drmm-mv", "hyperparameters.dropout=0.2",
     "checkpoints=work/dropout/ckpt", "outputs=work/dropout/out",
     "candidates=work/out/bm25.run"),
)


def run_cli(*argv: str) -> None:
    """Run one relrank command, its console output sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"relrank {' '.join(argv)} exited with {code}")


def build(root: Path, runs=RUNS) -> str:
    """Generate the workspace in ``root``, run ``index`` and ``retrieve``,
    then ``train`` and ``rerank`` with each of ``runs``' overrides (``()``
    runs the config's own model); return the config's path."""
    root.mkdir(parents=True, exist_ok=True)
    cfg = str(make_workspace(root))
    run_cli("index", cfg)
    run_cli("retrieve", cfg)
    for overrides in runs:
        sets = [arg for value in overrides for arg in ("--set", value)]
        run_cli("train", cfg, *sets)
        run_cli("rerank", cfg, *sets)
    return cfg


def manifest(root: Path) -> dict[str, str]:
    """The SHA-256 of every file under ``root``, by its path relative to it."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Build the acceptance-7 artifacts and print their SHA-256.")
    parser.add_argument("directory", type=Path,
                        help="where to build; missing or empty")
    root = parser.parse_args(argv).directory
    if root.exists() and any(root.iterdir()):
        parser.error(f"{root} is not empty")
    build(root)
    for path, digest in sorted(manifest(root).items()):
        if path.startswith("work/"):
            print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
