"""Count the code lines of Python files and their total.

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the string statement that
opens a module, class or function). Blank lines, comment-only lines and
docstring lines are left out.

After the table it prints the settable values of the same files: the
named parameters of every function and method (``self``, ``cls``,
``*args`` and ``**kwargs`` left out), the fields of every dataclass (a
class decorated with ``dataclass``, ``ClassVar`` annotations left out),
and the defaults of both. Each is a value a caller can set.

Usage: ``python tools/code_lines.py PATH [PATH ...]``. A directory counts
its ``*.py`` files (not those of its subdirectories); a file counts as
given. For example ``python tools/code_lines.py src/rnaloop
perfbench/workloads.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def settable_values(source: str) -> tuple[int, int, int]:
    """(parameters, dataclass fields, defaults) in ``source``."""
    params = fields = defaults = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs
            params += sum(a.arg not in ("self", "cls") for a in named)
            defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d).rsplit(".", 1)[-1] == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)):
                    fields += 1
                    defaults += item.value is not None
    return params, fields, defaults


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    files = []
    for arg in argv[1:]:
        path = Path(arg)
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    width = max((len(str(f)) for f in files), default=len("total"))
    total = 0
    settable = [0, 0, 0]
    for path in files:
        source = path.read_text(encoding="utf-8")
        n = code_lines(source)
        total += n
        settable = [a + b for a, b in zip(settable, settable_values(source))]
        print(f"{str(path):<{width}} {n:>5}")
    print(f"{'total':<{width}} {total:>5}")
    params, fields, defaults = settable
    print(f"settable values: {params} parameters, {fields} fields, {defaults} defaults"
          f" ({params + fields + defaults})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
