"""Every function, class and method of the library has a caller in the
library itself.

The check reads src/ultragrade/*.py with `ast`.  A function or class
counts as used when its name occurs anywhere in the library as a name, an
attribute or an imported name.  A method counts as used through an
attribute whose receiver names its class, or a library base of it: `self`
inside a method, the class name itself, a parameter annotated with the
class, or a loop target typed by a class-level annotation such as
`parts: tuple[tuple[str, IndexSet], ...]`.  An attribute on any other
receiver counts for every definition of that name.  Dunder methods are
called by Python and are skipped.  Code that only tests call belongs in
the tests."""

from __future__ import annotations

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ultragrade"

# Names that only the benchmark's span layer keeps alive: perfbench/spans.py
# wraps each of them by name, and its wrapper fails without them.
SPAN_LAYER_ONLY = {
    # perfbench/spans.py LAYER_FUNCTIONS; delete with the next benchmark change
    "all_paths",
    # perfbench/spans.py INDEXSET_OPS; delete with the next benchmark change
    "IndexSet.complement",
}
# Names kept without a call in the library, each for the reason given.
KEPT = {
    # the constructor that IndexSet.__repr__ prints, so that a printed set
    # evaluates back to itself; the tests build their sets with it
    "IndexSet.make",
}


def _annotated_class(node, classes) -> str | None:
    """The library class an annotation names, plain or quoted."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Name) and node.id in classes:
        return node.id
    return None


def _row_types(node, classes) -> list[str | None] | None:
    """The classes of a row of an annotation tuple[tuple[A, B, ...], ...]."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return None
    row = node.slice.elts[0]
    if not (isinstance(row, ast.Subscript) and isinstance(row.slice, ast.Tuple)):
        return None
    return [_annotated_class(t, classes) for t in row.slice.elts]


class _Uses(ast.NodeVisitor):
    def __init__(self, classes: dict[str, ast.ClassDef], rows: dict[str, list]):
        self.classes = classes
        self.rows = rows  # attribute name -> the classes of its rows
        self.names: set[str] = set()
        self.qualified: set[str] = set()
        self.owner: list[str] = []  # the class whose methods are visited
        self.env: list[dict[str, str]] = [{}]  # variable -> library class

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.owner.append(node.name)
        self.generic_visit(node)
        self.owner.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        env = dict(self.env[-1])
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for i, arg in enumerate(params):
            cls = _annotated_class(arg.annotation, self.classes)
            if i == 0 and self.owner and arg.arg == "self":
                cls = self.owner[-1]
            if cls is not None:
                env[arg.arg] = cls
        self.env.append(env)
        self.generic_visit(node)
        self.env.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _bind_row(self, target, source) -> None:
        if isinstance(target, ast.Tuple) and isinstance(source, ast.Attribute):
            row = self.rows.get(source.attr)
            if row is not None and len(row) == len(target.elts):
                for name, cls in zip(target.elts, row):
                    if isinstance(name, ast.Name) and cls is not None:
                        self.env[-1][name.id] = cls

    def visit_For(self, node: ast.For) -> None:
        self._bind_row(node.target, node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node) -> None:
        # the targets are bound before the element that reads them
        for gen in node.generators:
            self._bind_row(gen.target, gen.iter)
        self.generic_visit(node)

    visit_SetComp = visit_GeneratorExp = visit_DictComp = visit_ListComp

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_alias(self, node: ast.alias) -> None:
        self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = node.value
        cls = None
        if isinstance(receiver, ast.Name):
            cls = self.env[-1].get(receiver.id)
            if cls is None and receiver.id in self.classes:
                cls = receiver.id
        if cls is None:
            self.names.add(node.attr)
        else:
            self.qualified.update(f"{c}.{node.attr}" for c in self._lineage(cls))
        self.generic_visit(node)

    def _lineage(self, cls: str) -> list[str]:
        """cls and its library bases."""
        out = [cls]
        for base in self.classes[cls].bases:
            if isinstance(base, ast.Name) and base.id in self.classes:
                out += self._lineage(base.id)
        return out


def _unreferenced(root: Path = LIBRARY) -> list[str]:
    trees = [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(root.glob("*.py"))]
    classes = {n.name: n for _, tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    rows: dict[str, list] = {}
    for cls in classes.values():
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                row = _row_types(stmt.annotation, classes)
                if row is not None:
                    rows[stmt.target.id] = row
    defined: dict[tuple[str, str], list[str]] = {}  # (qualified, bare) -> where
    uses = _Uses(classes, rows)
    for fname, tree in trees:
        methods = {
            id(stmt): cls.name
            for cls in classes.values()
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    owner = methods.get(id(node))
                    qualified = node.name if owner is None else f"{owner}.{node.name}"
                    defined.setdefault((qualified, node.name), []).append(f"{fname}:{node.lineno}")
        uses.visit(tree)
    return sorted(
        f"{qualified} ({', '.join(where)})"
        for (qualified, bare), where in defined.items()
        if bare not in uses.names and qualified not in uses.qualified
    )


def test_every_definition_has_a_caller_in_the_library():
    flagged = [line.split(" (", 1)[0] for line in _unreferenced()]
    assert flagged == sorted(SPAN_LAYER_ONLY | KEPT)


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
    assert _unreferenced(tmp_path) == ["Used.orphan (mod.py:4)"]


def test_the_check_resolves_qualified_receivers(tmp_path):
    """A method that shares its name with a called one is still found
    unused, whichever way the receiver of the call is evident."""
    (tmp_path / "mod.py").write_text(
        "class Base:\n"
        "    def inherited(self):\n"
        "        pass\n"
        "class Part:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def grow(self):\n"
        "        return self.size()\n"
        "class Whole(Base):\n"
        "    rows: tuple[tuple[str, Part], ...]\n"
        "    def size(self):\n"
        "        return sum(p.size() for _, p in self.rows)\n"
        "    def grow(self):\n"
        "        return Part.grow(self.rows[0][1])\n"
        "    def shared(self):\n"
        "        self.inherited()\n"
        "def total(w: 'Whole'):\n"
        "    return w.shared()\n"
        "def loose(x):\n"
        "    return x.anything()\n"
        "def first(w: Whole):\n"
        "    for name, part in w.rows:\n"
        "        return name, part.size()\n"
    )
    assert _unreferenced(tmp_path) == [
        "Whole.grow (mod.py:13)",
        "Whole.size (mod.py:11)",
        "first (mod.py:21)",
        "loose (mod.py:19)",
        "total (mod.py:17)",
    ]
