"""A ratchet on the package's settable values.

Every parameter with a default and every dataclass field is a value a
caller can set. Each one is a variant the code has to keep working. The
count below is exact: a change that adds one raises it in its own diff,
and a change that removes one lowers it, so the slack a removal leaves
cannot be refilled unnoticed.
"""

import ast
from pathlib import Path

import tailcast

MAX_SETTABLE_VALUES = 124


def settable_values(source: str) -> int:
    """Parameters with a default plus fields of ``@dataclass`` classes."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_counter_sees_defaults_and_dataclass_fields():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def m(self, z=3): pass\n"
        "class Plain:\n"
        "    w: int = 0\n"
    )
    assert settable_values(source) == 6


def test_settable_values_do_not_grow():
    package = Path(tailcast.__file__).parent
    total = sum(settable_values(path.read_text(encoding="utf-8"))
                for path in sorted(package.glob("*.py")))
    assert total == MAX_SETTABLE_VALUES
