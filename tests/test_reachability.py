"""A ratchet on the package's definitions that the command line never reaches.

A definition is a module-level function or class, or a method of a
module-level class. The walk starts at ``cli.main`` and goes by name: a
reached body, or any module-level statement (a table, a constant), that
mentions a name as a variable or an attribute reaches every function and
class of that name, and every method of that name on a reached class. The
dunder methods of a reached class are reached with it. Matching by name
over-approximates, so what the walk leaves out no path through the command
line can call. The list below is exact: it may only shrink, and a change
that leaves new code unreached fails here.
"""

import ast
from pathlib import Path

import tailcast

# reached only by tests and the benchmark harness
UNREACHED = {
    "fusion.predict_latency",
    "simulator.SimRequest",
    "simulator.SimulationResult.requests",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def mentioned(nodes) -> set[str]:
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def unreached(sources: dict[str, str], entry: str) -> set[str]:
    """Definitions in ``sources`` (module name -> text) that ``entry`` never reaches."""
    defs = {}  # qualified name -> (short name, owning class or None, the parts to walk)
    names = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                names |= mentioned([stmt])
                continue
            qualified = f"{module}.{stmt.name}"
            if isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, FUNCTIONS)]
                for method in methods:
                    defs[f"{qualified}.{method.name}"] = (method.name, qualified, [method])
                header = [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
                          *(s for s in stmt.body if s not in methods)]
                defs[qualified] = (stmt.name, None, header)
            else:
                defs[qualified] = (stmt.name, None, [stmt])
    reached = set()
    grew = True
    while grew:
        grew = False
        for qualified, (name, owner, parts) in defs.items():
            if qualified in reached:
                continue
            if owner is None:
                hit = qualified == entry or name in names
            else:
                dunder = name.startswith("__") and name.endswith("__")
                hit = owner in reached and (dunder or name in names)
            if hit:
                reached.add(qualified)
                names |= mentioned(parts)
                grew = True
    return set(defs) - reached


def test_walk_follows_names_attributes_tables_and_dunders():
    sources = {
        "a": (
            "def main():\n"
            "    return b.helper(Box())\n"
            "def orphan():\n"
            "    return spare()\n"
            "TABLE = {'x': listed}\n"
            "def listed(): pass\n"
        ),
        "b": (
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def used(self): pass\n"
            "    def unused(self): pass\n"
            "def helper(box):\n"
            "    return box.used()\n"
            "def spare(): pass\n"
            "class Lonely:\n"
            "    def __init__(self): pass\n"
        ),
    }
    assert unreached(sources, "a.main") == {
        "a.orphan", "b.Box.unused", "b.spare", "b.Lonely", "b.Lonely.__init__"}


def test_unreached_definitions_only_shrink():
    package = Path(tailcast.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert unreached(sources, "cli.main") == UNREACHED
