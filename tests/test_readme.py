"""The "Library example" block of README.md runs and gives its commented results."""

import ast
import math
from fractions import Fraction
from pathlib import Path

from momentpoly import Surd, exact_sqrt

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_results():
    """Run the block statement by statement and keep the value of each bare
    expression, the lines whose results the README states in a comment."""
    namespace: dict = {}
    values = []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    a2, p2_at_zero, parseval = values
    assert a2 == (0, 1, 2, 3, 4)
    assert isinstance(p2_at_zero, Surd) and p2_at_zero == -1 / exact_sqrt(Fraction(2))
    assert abs(parseval - 32 / (3 * math.pi**2)) < 1e-6
