"""Leftovers in the package source: imports a module never uses, private
top-level functions or classes that nothing in the package references, public
ones that nothing outside their module names, private names imported from
another module, and scipy imported when a module loads."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kinfluence"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_unused_imports():
    # __init__.py imports to re-export
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_no_unreferenced_private_definitions():
    refs = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
    orphans = [f"{name}: {node.name}" for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in refs]
    assert orphans == []


def test_no_private_names_imported_across_modules():
    # a name another module needs is part of its defining module's interface
    found = [f"{name}:{node.lineno}: {alias.name}" for name, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "kinfluence")
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def test_scipy_imported_only_inside_functions():
    # scipy brings its own OpenBLAS; only the Kronecker factor's calls load it
    local = {id(node) for tree in TREES.values() for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(f)}
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items() for node in ast.walk(tree)
             if id(node) not in local and (
                 isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                      for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] == "scipy")]
    assert found == []


def test_no_unreferenced_public_definitions():
    # a public top-level function or class that no other module, test,
    # benchmark script or the README names is dead code
    root = SRC.parent.parent
    others = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
              *(root / "perfbench").glob("*.py"), root / "README.md"]
    texts = {path: path.read_text() for path in others}
    orphans = [f"{name}: {node.name}" for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and not any(re.search(rf"\b{node.name}\b", text)
                           for path, text in texts.items() if path != SRC / name)]
    assert orphans == []
