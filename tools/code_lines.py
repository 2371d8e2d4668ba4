"""Count the code lines of the kumfib package, per module and in total.

A code line is a non-blank line that is not a comment and lies outside every
docstring (of a module, class or function).  Standard library only:

    python3 tools/code_lines.py [package directory, default src/kumfib]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by the docstrings in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "kumfib"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
