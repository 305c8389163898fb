"""List the public module-level names of ``src/rnaloop`` that nothing references.

A public name is a function, class or assigned variable bound at the top
level of a module, whose name does not start with ``_``. It counts as
referenced when a module of ``src/rnaloop`` or ``perfbench/`` loads it as a
bare name (``ast.Name``), reads it as an attribute (``ast.Attribute``:
``module.name``, ``obj.name``) or imports it. Strings, such as the entries
of ``__all__``, do not count, and tests (``perfbench/tests``) are not
callers. Names are matched without their module, so a name that another
module also uses is left out.

This is a report: it prints ``module.name`` for each unreferenced name and
always exits 0.

Usage: ``python tools/uncalled.py [repo_root]`` (default: the parent of
this script's directory).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def public_names(tree: ast.Module) -> list[str]:
    """Public names bound at module level, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def references(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    package = root / "src" / "rnaloop"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (package, root / "perfbench") for path in sorted(folder.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    for path in sorted(package.glob("*.py")):
        for name in public_names(trees[path]):
            if name not in used:
                print(f"{path.stem}.{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
