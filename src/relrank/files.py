"""Artifact writes that leave either the previous file or the whole new one.

Each write goes to a temporary file in the target's directory, which
replaces the target with ``os.replace`` only once it is complete.  A write
that raises part way removes its temporary file and leaves the target as
it was, so an interrupted stage never leaves a truncated artifact behind.
"""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing (``"w"`` for UTF-8
    text, ``"wb"`` for bytes); it replaces ``path`` when the block ends."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON and a final newline."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
