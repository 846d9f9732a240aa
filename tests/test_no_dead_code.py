"""Src holds only what src runs: every top-level function and class in
``src/relrank``, and every method other than dunders, is referred to from
``src/relrank`` itself, unless it is a named oracle or entry point below.

A function or class counts as referred to when a name resolves to it through
src's own imports: its bare name in its own module, a name bound by
``from .m import f`` (followed through package re-exports such as
``models/__init__.py``), or ``m.f`` where ``m`` names a src module.  A method
is matched by name only: it counts when src calls ``obj.method(...)``, and a
property when src reads ``obj.prop``.  So a local variable that shares a
method's name does not keep the method alive, nor does a read of a field
that shares it (``c.score`` of a ``Candidate``), but a call
``obj.method(...)`` does.  A method whose name a builtin type's method also
has (``encode``, ``add``, ``items``) counts only when called from its own
module or from one that imports from it: elsewhere, as in
``text.encode("utf-8")``, the call may be the builtin's.  A reference made
from inside an oracle's definition does not count: what only an oracle uses
belongs in the oracle.  An entry point's references count, because code
outside src runs it.
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
    "models.scorers.Scorer.score": "perfbench/checks.py rescoring check",
    "encoder.BiRnnEncoder.encode":
        "perfbench/spans.py wraps it by name, and a traced run whose wrapped "
        "name is missing reads correct: false",
    "synthetic.generate_world":
        "builds the synthetic world (README, perfbench)",
    "synthetic.write_world":
        "writes the synthetic world to disk (README, perfbench)",
}
ALLOWED = {**ORACLES, **ENTRY_POINTS}
# The methods of the builtin types whose values src calls methods on.
BUILTIN_METHODS = {name for kind in (str, bytes, int, float, list, tuple, dict,
                                     set, frozenset) for name in dir(kind)}


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


def _parse(planted=None):
    """Module name (``models.scorers``; a package by its own name) -> tree,
    plus the ``planted`` modules (name -> source) a test adds."""
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        trees[".".join(parts)] = (ast.parse(path.read_text(encoding="utf-8")),
                                  path.name == "__init__.py")
    for module, source in (planted or {}).items():
        trees[module] = (ast.parse(source), False)
    return trees


def _bindings(trees):
    """Per module, each name it imports from src: ("module", m) for a
    module, ("symbol", (m, name)) for a name another module binds."""
    bound = {}
    for module, (tree, is_package) in trees.items():
        package = module if is_package else module.rpartition(".")[0]
        names = bound[module] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            base = package.split(".") if package else []
            base = base[:len(base) - (node.level - 1)]
            source = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                sub = f"{source}.{alias.name}".lstrip(".")
                names[alias.asname or alias.name] = (
                    ("module", sub) if sub in trees else
                    ("symbol", (source, alias.name)))
    return bound


def _scan(planted=None):
    """(qualified name, kind) per definition, the kind None for a function
    or class, True for a property and False for another method; then the
    definitions src's names resolve to, the modules that call each
    attribute name, the attribute names src reads, all outside the
    oracles, and per module the modules it imports from."""
    trees = _parse(planted)
    bound = _bindings(trees)
    defs, top = [], set()
    for module, (tree, _) in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs.append((f"{module}.{node.name}", None))
            top.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{m.name}", _is_property(m))
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__")))

    def resolve(module, name):
        """The definition ``name`` denotes in ``module``, or None."""
        while f"{module}.{name}" not in top:  # each step, one re-export
            kind, target = bound.get(module, {}).get(name, (None, None))
            if kind != "symbol":
                return None
            module, name = target
        return f"{module}.{name}"

    def source(kind, target):
        """The module an import binding's name comes from, past re-exports."""
        if kind == "module":
            return target
        found = resolve(*target)
        return found.rpartition(".")[0] if found else target[0]

    imports = {module: {source(*binding) for binding in names.values()}
               for module, names in bound.items()}
    referenced, called, read = set(), {}, set()
    for module, (tree, _) in trees.items():
        for n in _outside_oracles(tree, module):
            if isinstance(n, ast.Name):
                referenced.add(resolve(module, n.id))
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                called.setdefault(n.func.attr, set()).add(module)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
                if isinstance(n.value, ast.Name):
                    kind, target = bound[module].get(n.value.id, (None, None))
                    if kind == "module":
                        referenced.add(resolve(target, n.attr))
    return defs, referenced, called, read, imports


def _is_property(method) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               or isinstance(d, ast.Attribute) and d.attr == "setter"
               for d in method.decorator_list)


def _unreferenced(planted=None):
    defs, referenced, called, read, imports = _scan(planted)

    def used(qualname, kind):
        if kind is None:
            return qualname in referenced
        module, _, method = qualname.rsplit(".", 2)
        if kind:
            return method in read
        callers = called.get(method, set())
        if method not in BUILTIN_METHODS:
            return bool(callers)
        return any(c == module or module in imports[c] for c in callers)

    return [qualname for qualname, kind in defs if not used(qualname, kind)]


def test_every_src_name_has_a_src_reference():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"src names no src code refers to: {dead}"


def test_allowlist_names_only_unreferenced_definitions():
    # An entry whose name gained a src caller, or was deleted, goes.
    assert sorted(_unreferenced()) == sorted(ALLOWED)


def test_a_field_read_keeps_no_method_of_its_name_alive():
    # ``c.score`` and ``cand.score`` read the ``score`` field of a
    # ``Candidate``; under a rule that matched any ``obj.score`` they would
    # keep this unused method alive.
    reads = {module for module, (tree, _) in _parse().items()
             for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "score"
             and isinstance(n.ctx, ast.Load)}
    assert {"models.features", "trec"} <= reads
    planted = {"planted": "class Planted:\n"
                          "    def score(self):\n"
                          "        return 0.0\n"}
    assert "planted.Planted.score" in _unreferenced(planted)
    called = {"planted": planted["planted"] + "\n\nPlanted().score()\n"}
    assert "planted.Planted.score" not in _unreferenced(called)


def test_a_builtin_method_call_keeps_no_method_of_its_name_alive():
    # src calls ``str.encode``; under a rule that matched any
    # ``obj.encode(...)`` those calls would keep this unused method alive.
    calls = {module for module, (tree, _) in _parse().items()
             for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "encode"}
    assert {"config", "files", "text"} <= calls
    planted = {"planted": "class Planted:\n"
                          "    def encode(self):\n"
                          "        return b''\n"}
    assert "planted.Planted.encode" in _unreferenced(planted)
    user = {**planted, "user": "from .planted import Planted\n\n"
                               "Planted().encode()\n"}
    assert "planted.Planted.encode" not in _unreferenced(user)
