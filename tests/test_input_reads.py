"""Input files are read in one place: every read-mode ``open()``,
``read_text`` and ``read_bytes`` call in ``src/relrank`` sits in
``files.py``, which decides how inputs are decoded and how their errors
are reported, unless its function is on the allowlist below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relrank"

# Functions that read a file themselves, each for a reason of its own.
ALLOWED = {
    "config.load_config":
        "reads one JSON document, whose every error is a config error",
    "text.default_stopwords":
        "reads the stopword list packaged with relrank, not user input",
}


def _is_read(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return True
    mode = modes[0]
    # A mode src computes counts as a read.
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def _reads(node, name):
    """Yield ``name`` (extended by each enclosing def or class) per read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _reads(child, f"{name}.{child.name}")
            continue
        if isinstance(child, ast.Call) and _is_read(child):
            yield name
        yield from _reads(child, name)


def _readers():
    """Qualified names of the functions outside files.py that read a file."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "files.py":
            module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
            found.update(_reads(ast.parse(path.read_text(encoding="utf-8")), module))
    return found


def test_src_reads_input_files_only_through_files_py():
    stray = sorted(_readers() - set(ALLOWED))
    assert not stray, f"functions reading files outside relrank.files: {stray}"


def test_allowlist_names_only_functions_that_read():
    # An entry whose function stopped reading, or was deleted, goes.
    assert sorted(_readers()) == sorted(ALLOWED)
