"""The README's library quick tour runs, and uses exactly what the package exports."""

import ast
import re
import types
from pathlib import Path

import kumfib

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    module = ast.parse(quick_tour())
    last = module.body.pop()  # kf.analyze_branch_data(data)[0].h11, printed as 59
    namespace: dict = {}
    exec(compile(module, str(README), "exec"), namespace)
    h11 = eval(compile(ast.Expression(last.value), str(README), "eval"), namespace)
    assert h11 == 59


def test_package_exports_what_the_tour_uses():
    exported = {
        name
        for name, value in vars(kumfib).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(re.findall(r"\bkf\.(\w+)", quick_tour()))
