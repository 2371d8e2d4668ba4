"""The repository's own tools."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return text
'''
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    # import, class, def, the two lines of the string, return
    assert load("code_lines").code_lines(path) == 6
