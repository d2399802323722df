"""Every function, class and method of the library has a caller in the
library itself.

The check reads src/ultragrade/*.py with `ast`: a definition counts as
used when its name occurs anywhere in the library as a name, an attribute
or an imported name.  It works on names alone, so two definitions that
share a name share their uses; dunder methods are called by Python and
are skipped.  Code that only tests call belongs in the tests."""

from __future__ import annotations

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ultragrade"


def _unreferenced(root: Path = LIBRARY) -> list[str]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return sorted(f"{name} ({', '.join(where)})" for name, where in defined.items() if name not in used)


def test_every_definition_has_a_caller_in_the_library():
    assert _unreferenced() == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Used:\n"
        "    def __repr__(self):\n"
        "        return helper()\n"
        "    def orphan(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Used\n"
    )
    assert _unreferenced(tmp_path) == ["orphan (mod.py:4)"]
