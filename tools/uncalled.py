"""List the public module-level names of ``src/rnaloop`` that nothing
references, the public methods of its classes that nothing calls, and the
defaulted parameters that no call passes.

A public name is a function, class or assigned variable bound at the top
level of a module, whose name does not start with ``_``. It counts as
referenced when a module of ``src/rnaloop``, ``perfbench/`` or
``perfbench/tests`` loads it as a bare name (``ast.Name``), reads it as an
attribute (``ast.Attribute``: ``module.name``, ``obj.name``) or imports it.
Strings, such as the entries of ``__all__``, do not count. The benchmark's
own tests count as callers, because what they call is pinned until the
benchmark's next version; the package's tests (``tests/``) are not callers.
Names are matched without their module, so a name that another module also
uses is left out.

A public method is a method of a class defined at the top level of a
module, whose name does not start with ``_``. It counts as called when a
call in those folders calls its name (``obj.name(...)`` or ``name(...)``);
a property counts as called when a module reads it as an attribute. Like
names, methods are matched without their class, so a method whose name
another object's method shares (``ParamSet.get``, ``dict.get``) is left out.

A defaulted parameter is one of a function defined at the top level of a
module, or of a method of a class defined there (``self`` or ``cls`` left
out), that has a default value. It counts as passed when a call in
those folders to a function or method of that name (``name(...)``,
``obj.name(...)``; a class name calls its ``__init__``) gives it by
keyword, or by position: ``f(a, b)`` passes the first two. A call with
``*args`` passes every position, and one with ``**kwargs`` every keyword.
The defaulted fields of a dataclass (a class decorated with ``dataclass``)
count as parameters of its ``__init__``, in field order, and a keyword
given to ``replace(obj, ...)`` (``dataclasses.replace``) passes the field
of that name. A field declared ``field(..., init=False)`` is
state, not a parameter: it is neither reported nor given a position.

This is a report: it prints ``module.name`` for each unreferenced name,
then ``module.Class.method`` for each method that nothing calls, then
``module.function(param)`` (``module.Class.method(param)`` for a
method, ``module.Class.__init__(field)`` for a dataclass field) for each
defaulted parameter that no call passes, and always exits 0.

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


def public_methods(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(``Class.method``, method name, whether it is a property) for each
    public method of a top-level class, in source order."""
    return [(f"{cls.name}.{node.name}", node.name,
             any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list))
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


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


def calls(trees) -> dict[str, list[tuple[float, set[str] | None]]]:
    """For each name called in ``trees``, one (positional count, keywords)
    per call; inf positions for ``*args``, None keywords for ``**kwargs``."""
    out: dict[str, list] = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            out.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), None if None in keywords else keywords))
    return out


def dataclass_fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    """The ``__init__`` fields of ``cls`` in order, or [] unless it is a
    dataclass."""
    decorators = [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list]
    if not any(d.rsplit(".", 1)[-1] == "dataclass" for d in decorators):
        return []
    return [node for node in cls.body if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name) and "ClassVar" not in ast.unparse(node.annotation)
            and not _init_false(node.value)]


def _init_false(value: ast.expr | None) -> bool:
    """Whether a field's value is a call such as ``field(init=False)``."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def defaulted_params(tree: ast.Module):
    """(label, called name, position or None, parameter, name of a call that
    passes it by keyword only, or None) for each defaulted parameter of a
    top-level function or of a method of a top-level class, and for each
    defaulted field of a top-level dataclass; the position counts from the
    first argument a caller writes, and is None for a keyword-only
    parameter."""
    funcs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs += [(cls.name, node) for node in cls.body if isinstance(node, ast.FunctionDef)]
        for i, node in enumerate(dataclass_fields(cls)):
            if node.value is not None:
                yield f"{cls.name}.__init__", cls.name, i, node.target.id, "replace"
    for owner, func in funcs:
        args = func.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
        if owner is not None and not static:
            positional = positional[1:]
        label = func.name if owner is None else f"{owner}.{func.name}"
        called = owner if func.name == "__init__" else func.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield label, called, i, arg.arg, None
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, called, None, arg.arg, None


def passed(position, param: str, seen) -> bool:
    """Whether one of the calls ``seen`` gives ``param``, at ``position``
    or by keyword."""
    return any((position is not None and n > position) or k is None or param in k for n, k in seen)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    package = root / "src" / "rnaloop"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (package, root / "perfbench", root / "perfbench" / "tests")
             for path in sorted(folder.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    seen = calls(trees.values())
    modules = sorted(package.glob("*.py"))
    for path in modules:
        for name in public_names(trees[path]):
            if name not in used:
                print(f"{path.stem}.{name}")
    for path in modules:
        for label, name, is_property in public_methods(trees[path]):
            if name not in (used if is_property else seen):
                print(f"{path.stem}.{label}")
    for path in modules:
        for label, called, position, param, by_keyword in defaulted_params(trees[path]):
            found = seen.get(called, []) + [(0, k) for _, k in seen.get(by_keyword, [])]
            if not passed(position, param, found):
                print(f"{path.stem}.{label}({param})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
