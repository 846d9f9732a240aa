"""Src holds only what src runs: every top-level function and class in
``src/relrank``, and every method other than dunders, is referred to from
``src/relrank`` itself, unless it is a named oracle or entry point below.

A function or class counts as referred to when its name appears as an
``ast.Name`` or ``ast.Attribute`` anywhere in src; a method only when it
appears as an ``ast.Attribute`` (``obj.method``), so a local variable that
happens to share a method's name does not keep the method alive.  A
reference made from inside an oracle's definition does not count: what
only an oracle uses belongs in the oracle.  An entry point's references
count, because code outside src runs it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "relrank"

# Names src does not call, each kept for a reason of its own.
ORACLES = {
    "autodiff.grad_check":
        "finite-difference oracle behind every gradient test",
    "autodiff.GradCheckReport": "grad_check's result type",
    "autodiff.GradCheckError": "grad_check's error type",
    "index.bm25_score":
        "one-document BM25 oracle for the vectorised score_all",
    "trec.RankedList.validate":
        "oracle for the ranked-list invariants read_run promises",
    "embeddings.write_word2vec_binary":
        "writes the binary word2vec format read_word2vec_binary reads",
}
ENTRY_POINTS = {
    "synthetic.generate_world":
        "builds the synthetic world (README, perfbench)",
    "synthetic.write_world":
        "writes the synthetic world to disk (README, perfbench)",
}
ALLOWED = {**ORACLES, **ENTRY_POINTS}


def _outside_oracles(node, qualname):
    """The nodes under ``node``, leaving out each oracle's definition."""
    for child in ast.iter_child_nodes(node):
        name = qualname
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{qualname}.{child.name}"
            if name in ORACLES:
                continue
        yield child
        yield from _outside_oracles(child, name)


def _scan():
    """(qualified name, is_method) per definition, plus the names and
    attributes src refers to outside the oracles."""
    defs, names, attrs = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((f"{module}.{node.name}", False))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{m.name}", True)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__")))
        for n in _outside_oracles(tree, module):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return defs, names, attrs


def _unreferenced():
    defs, names, attrs = _scan()
    out = []
    for qualname, is_method in defs:
        leaf = qualname.rsplit(".", 1)[1]
        if leaf not in attrs and (is_method or leaf not in names):
            out.append(qualname)
    return out


def test_every_src_name_has_a_src_reference():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"src names no src code refers to: {dead}"


def test_allowlist_names_only_unreferenced_definitions():
    # An entry whose name gained a src caller, or was deleted, goes.
    assert sorted(_unreferenced()) == sorted(ALLOWED)
