"""No function or method in ``src/repro`` goes unreferenced.

A definition counts as used when its name appears anywhere in
``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` as a variable
(``ast.Name``), an attribute (``ast.Attribute``) or a word inside a
string constant (``__all__`` entries, ``getattr`` names, CLI handler
tables).  Dunder methods are called by the interpreter and are exempt.
There is no allowlist: delete dead code, or give it a caller.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "tests")
WORD = re.compile(r"\w+")


def _trees():
    me = Path(__file__).resolve()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() != me:
                yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_src_def_is_referenced():
    defs, used = [], set()
    src = ROOT / "src" / "repro"
    for path, tree in _trees():
        in_src = src in path.parents
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.update(WORD.findall(node.value))
            elif (in_src and isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))):
                defs.append((path.relative_to(ROOT), node.lineno, node.name))
    dead = [f"{p}:{line}: {name}" for p, line, name in defs
            if name not in used]
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)
