"""No module under ``src/repro`` imports a name it never reads.

The scan is syntactic: a name bound by ``import``/``from ... import``
must appear as a loaded name somewhere in the module, string
annotations included.  ``__init__.py`` files (re-export surfaces),
names listed in ``__all__`` and import lines marked ``# noqa`` (kept on
purpose, e.g. as wrap targets) are exempt.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set, Tuple

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def _modules() -> Iterator[str]:
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(dirpath, name)


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _read_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # A quoted annotation ("List[str]") reads the names inside it.
    for note in annotations:
        for const in ast.walk(note) if note is not None else ():
            if isinstance(const, ast.Constant) and isinstance(
                    const.value, str):
                try:
                    inner = ast.parse(const.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(inner)
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for every name ``path`` imports and never reads."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    used = _read_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                unused.append((alias.lineno, bound))
    return unused


def test_no_unused_imports_in_src():
    found = [
        f"{os.path.relpath(path, SRC)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path)
    ]
    assert not found, "imported and never read:\n" + "\n".join(found)


def test_scan_sees_through_quoted_annotations_and_noqa(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Dict, List, Set\n"
        "__all__ = ['Set']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(str(module)) == [(1, "os"), (3, "Dict")]
