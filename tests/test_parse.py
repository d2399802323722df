"""Reading presentations and expressions.

A table of bad lines and bad expressions pins each error's class, line
and message.  The scanner is checked against the regex parser it
replaced, kept here as the oracle.  Expressions read back what the
library prints, and the library compiles no regex."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CORPUS, FINITE_CORPUS, load, random_path, random_vertex_set
from ultragrade.algebra import AlgebraElement, parse_element, pretty
from ultragrade.cli import run_cli
from ultragrade.errors import DanglingReference, EmptyRange, ParseError
from ultragrade.indexset import IndexSet
from ultragrade.model import (
    Affine,
    Edge,
    EdgeFamily,
    EdgeInst,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
    VertexTemplate,
    parse_presentation,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# Four declarations, so that the line under test is line 5.
HEAD = "ultragraph g\nvertex u\nvertex_family v finite 3\nvertex_family w infinite\n"


def outcome(text: str):
    """None when text parses, else the error's class name, line and message."""
    try:
        parse_presentation(text)
    except Exception as exc:
        return type(exc).__name__, getattr(exc, "line_no", None), getattr(exc, "message", str(exc))
    return None


def unrecognized(line: str):
    return "ParseError", 5, f"unrecognized line: {line!r}"


BAD_LINES = [
    # vertex
    ("vertex", unrecognized("vertex")),
    ("vertex 1x", unrecognized("vertex 1x")),
    ("vertex u", ("ParseError", 5, "duplicate vertex family 'u'")),
    ("vertex u # a comment", ("ParseError", 5, "duplicate vertex family 'u'")),
    ("vertex\tx", None),
    # vertex_family
    ("vertex_family x finite", unrecognized("vertex_family x finite")),
    ("vertex_family x finite -1", unrecognized("vertex_family x finite -1")),
    ("vertex_family x countable", unrecognized("vertex_family x countable")),
    ("vertex_family v infinite", ("ParseError", 5, "duplicate vertex family 'v'")),
    ("vertex_family x\tfinite\t2", None),
    ("vertex_family x finite ٣", unrecognized("vertex_family x finite ٣")),
    # edge: the separators
    ("edge e u -> { v[0] }", unrecognized("edge e u -> { v[0] }")),
    ("edge e : u { v[0] }", unrecognized("edge e : u { v[0] }")),
    ("edge e : u -> v[0]", unrecognized("edge e : u -> v[0]")),
    ("edge e : u -> { v[0] } trailing", unrecognized("edge e : u -> { v[0] } trailing")),
    ("edge e :-> { v[0] }", ("ParseError", 5, "bad vertex reference ''")),
    ("edge 1e : u -> { v[0] }", unrecognized("edge 1e : u -> { v[0] }")),
    ("edge e:u->{v[0]}", None),
    ("edge\te\t:\tu\t->\t{\tv[0]\t}", None),
    ("edge e : -> { v[0] }", ("ParseError", 5, "bad vertex reference ''")),
    ("edge e : u -> x -> { v[0] }", unrecognized("edge e : u -> x -> { v[0] }")),
    # edge: the source
    ("edge e : x -> { v[0] }", ("DanglingReference", 5, "unknown vertex family 'x'")),
    ("edge e : v -> { u }", ("ParseError", 5, "'v' is a family; an index is required")),
    ("edge e : v[5] -> { v[0] }", ("DanglingReference", 5, "index 5 beyond family 'v'")),
    ("edge e : u[0] -> { v[0] }", None),
    # edge: the range
    ("edge e : u -> { v[0], }", None),
    ("edge e : u -> { , }", ("EmptyRange", 5, "edge 'e' has empty range")),
    ("edge e : u -> { }", ("EmptyRange", 5, "edge 'e' has empty range")),
    ("edge e : u -> { v[1, 2] }", ("ParseError", 5, "bad vertex reference 'v[1, 2]'")),
    ("edge e : u -> { v [0] }", ("ParseError", 5, "bad vertex reference 'v [0]'")),
    ("edge e : u -> { x[0] }", ("DanglingReference", 5, "unknown vertex family 'x'")),
    ("edge e : u -> { v[3] }", ("DanglingReference", 5, "index 3 beyond family 'v'")),
    ("edge e : u -> { v }", ("ParseError", 5, "'v' is a family; an index is required")),
    ("edge e : u -> { v[٣] }", ("ParseError", 5, "bad vertex reference 'v[٣]'")),
    ("edge e : u -> { w[٣] }", ("ParseError", 5, "bad vertex reference 'w[٣]'")),
    ("edge e : u -> { w[*], v[*] }", None),
    ("edge e : u -> { x[*] }", ("DanglingReference", 5, "unknown vertex family 'x'")),
    # edge: progressions
    ("edge e : u -> { w[2*n+1 for n>=0] }", None),
    ("edge e : u -> { v[n for n>=0] }", ("ParseError", 5, "progression into finite family 'v'")),
    ("edge e : u -> { x[n for n>=0] }", ("DanglingReference", 5, "unknown vertex family 'x'")),
    ("edge e : u -> { w[n+ for n>=0] }", ("ParseError", 5, "bad affine expression 'n+'")),
    ("edge e : u -> { w[n for n >= x] }", ("ParseError", 5, "bad vertex reference 'w[n for n >= x]'")),
    (
        "edge e : u -> { w[ n + 1 for n >= 2 ] }",
        ("ParseError", 5, "bad vertex reference 'w[ n + 1 for n >= 2 ]'"),
    ),
    (
        "edge e : u -> { w[n-5 for n>=0] }",
        ("ParseError", 5, "progression 'w[n-5 for n>=0]' leaves the naturals"),
    ),
    # edge_family
    ("edge_family f[n] (n >= 0) : w[n] -> { w[n+1] }", None),
    ("edge_family f[n](n>=0):w[n]->{w[n+1]}", None),
    ("edge_family f[n] (n >= 0) : w[2*n + 1] -> { w[ 3 ], u }", None),
    ("edge_family f[n] (n >= 0) : u -> { w[n] }", None),
    ("edge_family f (n >= 0) : w[n] -> { w[n+1] }", unrecognized("edge_family f (n >= 0) : w[n] -> { w[n+1] }")),
    (
        "edge_family f[n] (n > 0) : w[n] -> { w[n+1] }",
        unrecognized("edge_family f[n] (n > 0) : w[n] -> { w[n+1] }"),
    ),
    ("edge_family f[n] (n >= ٣) : w[n] -> { w[n] }", unrecognized("edge_family f[n] (n >= ٣) : w[n] -> { w[n] }")),
    ("edge_family f[n] (n >= 0) : w[n] -> { w[n*2] }", ("ParseError", 5, "bad affine expression 'n*2'")),
    ("edge_family f[n] (n >= 0) : w[n] -> { w[*] }", ("ParseError", 5, "bad affine expression '*'")),
    ("edge_family f[n] (n >= 0) : w[²] -> { w[n] }", ("ParseError", 5, "bad affine expression '²'")),
    ("edge_family f[n] (n >= 0) : w[] -> { w[n] }", ("ParseError", 5, "bad vertex template 'w[]'")),
    ("edge_family f[n] (n >= 0) : x[n] -> { w[n] }", ("DanglingReference", 5, "unknown vertex family 'x'")),
    ("edge_family f[n] (n >= 0) : w -> { w[n] }", ("ParseError", 5, "'w' is a family; an index is required")),
    ("edge_family f[n] (n >= 0) : w[n] -> { }", ("EmptyRange", 5, "edge_family 'f' has empty range")),
    # edge_family: the checks of the whole family, at its line (validate()
    # makes them at line 0 on a presentation built by hand)
    (
        "edge_family f[n] (n >= 0) : v[n] -> { w[n] }",
        ("DanglingReference", 5, "edge_family f: affine index into finite family v"),
    ),
    ("edge_family f[n] (n >= 0) : w[n-1] -> { w[n] }", ("DanglingReference", 5, "edge_family f: negative index at n=0")),
    ("edge_family f[n] (n >= 0) : w[n] -> { v[5] }", ("DanglingReference", 5, "edge_family f: index beyond family v")),
    # anything else
    ("what is this", unrecognized("what is this")),
]


@pytest.mark.parametrize("line, expected", BAD_LINES, ids=[repr(line) for line, _ in BAD_LINES])
def test_bad_line_table(line, expected):
    assert outcome(HEAD + line + "\n") == expected


def test_validate_makes_the_family_checks_at_line_0(monkeypatch):
    """A presentation built by hand gets the scanner's checks of a whole
    edge family from validate(), at line 0; parse_presentation makes them
    at the family's line and never calls validate()."""
    templates = [
        (VertexTemplate("v", Affine(1, 0)), VertexTemplate("w", Affine(1, 0))),
        (VertexTemplate("w", Affine(1, -1)), VertexTemplate("w", Affine(1, 0))),
        (VertexTemplate("w", Affine(1, 0)), VertexTemplate("v", Affine(0, 5))),
    ]
    for (line, expected), (src, atom) in zip(BAD_LINES[-4:-1], templates):
        pres = parse_presentation(HEAD)
        pres.edge_families["f"] = EdgeFamily("f", 0, src, (atom,))
        with pytest.raises(DanglingReference) as raised:
            pres.validate()
        assert (raised.value.line_no, raised.value.message) == (0, expected[2]), line
    monkeypatch.setattr(UltragraphPresentation, "validate", lambda self: pytest.fail("validate() was called"))
    for path in sorted(CORPUS.glob("*.ug")):
        parse_presentation(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", ("ParseError", 1, "empty presentation")),
        ("# only a comment\n\n", ("ParseError", 1, "empty presentation")),
        ("vertex u\n", ("ParseError", 1, "expected 'ultragraph <name>' header")),
        ("ultragraph 9g\n", ("ParseError", 1, "expected 'ultragraph <name>' header")),
        ("ultragraph\n", ("ParseError", 1, "expected 'ultragraph <name>' header")),
        ("ultragraph g h\n", ("ParseError", 1, "expected 'ultragraph <name>' header")),
        (HEAD + "edge e : u -> { u }\nedge e : u -> { u }\n", ("ParseError", 6, "duplicate edge id 'e'")),
        (
            HEAD + "edge e : u -> { u }\nedge_family e[n] (n >= 0) : w[n] -> { w[n] }\n",
            ("ParseError", 6, "duplicate edge id 'e'"),
        ),
    ],
)
def test_bad_presentation_table(text, expected):
    assert outcome(text) == expected


BAD_EXPRESSIONS = [
    # on corpus/ef.ug: u, v, e : u -> { v }, f : v -> { v }
    ("s(nope)", 2, "error: unknown edge 'nope'\n"),
    ("s(f[1])", 2, "error: unknown edge 'f[1]'\n"),
    ("s(e[x])", 2, "error: bad edge reference 'e[x]'\n"),
    ("s()", 2, "error: empty edge list\n"),
    ("s(e", 2, "error: unexpected input at 's(e'\n"),
    ("s(e) $", 2, "error: unexpected input at ' $'\n"),
    ("- 1", 2, "error: unexpected input at '- 1'\n"),
    ("s(e))", 2, "error: trailing input in expression\n"),
    ("(s(e)", 2, "error: missing closing parenthesis\n"),
    ("s(e) *", 2, "error: expected a factor\n"),
    ("s(e)+", 2, "error: expected a factor\n"),
    ("", 2, "error: expected a factor\n"),
    ("p{x}", 2, "error: line 1: unknown vertex family 'x'\n"),
    ("p{v[1]}", 2, "error: line 1: index 1 beyond family 'v'\n"),
    ("s(f e)", 2, "error: not a path: f e\n"),
    ("٣", 2, "error: unexpected input at '٣'\n"),
    ("s(e) s(f)", 0, ""),
    ("-1 s(e)", 0, ""),
    ("p{v} st(e f) s(e f) p{v}", 0, ""),
    # fractions, as pretty prints them
    ("1/2 s(e) + 1/2 s(e)", 0, ""),
    ("1/0 s(e)", 2, "error: zero denominator in '1/0'\n"),
    ("1/ s(e)", 2, "error: unexpected input at '/ s(e)'\n"),
]


@pytest.mark.parametrize("expr, code, err", BAD_EXPRESSIONS, ids=[repr(e) for e, _, _ in BAD_EXPRESSIONS])
def test_bad_expression_table(capsys, expr, code, err):
    assert run_cli(["eval", str(CORPUS / "ef.ug"), expr]) == code
    assert capsys.readouterr().err == err


# -- the regex parser this scanner replaced, kept as the oracle ------------

_ID = r"[A-Za-z_][A-Za-z0-9_@.]*"
_RE_HEADER = re.compile(rf"^ultragraph\s+({_ID})$")
_RE_VERTEX = re.compile(rf"^vertex\s+({_ID})$")
_RE_VFAMILY = re.compile(rf"^vertex_family\s+({_ID})\s+(infinite|finite\s+\d+)$")
_RE_EDGE = re.compile(rf"^edge\s+({_ID})\s*:\s*(.+?)\s*->\s*\{{(.*)\}}$")
_RE_EFAMILY = re.compile(
    rf"^edge_family\s+({_ID})\[n\]\s*\(\s*n\s*>=\s*(\d+)\s*\)\s*:\s*(.+?)\s*->\s*\{{(.*)\}}$"
)
_RE_VREF = re.compile(rf"^({_ID})(?:\[(\d+)\])?$")
_RE_STAR = re.compile(rf"^({_ID})\[\*\]$")
_RE_PROG = re.compile(rf"^({_ID})\[(.+?)\s+for\s+n\s*>=\s*(\d+)\]$")
_RE_TEMPLATE = re.compile(rf"^({_ID})(?:\[(.+?)\])?$")
_RE_AFFINE = re.compile(r"^(?:(\d+)\s*\*\s*)?n(?:\s*([+-])\s*(\d+))?$|^(\d+)$")


def _old_affine(text, line_no):
    m = _RE_AFFINE.match(text.strip())
    if not m:
        raise ParseError(line_no, f"bad affine expression {text!r}")
    if m.group(4) is not None:
        return Affine(0, int(m.group(4)))
    a = int(m.group(1)) if m.group(1) else 1
    b = int(m.group(3)) if m.group(3) else 0
    if m.group(2) == "-":
        b = -b
    return Affine(a, b)


def _old_vref(text, line_no, families):
    m = _RE_VREF.match(text.strip())
    if not m:
        raise ParseError(line_no, f"bad vertex reference {text!r}")
    fam, idx = m.group(1), int(m.group(2) or 0)
    if fam not in families:
        raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
    card = families[fam]
    if m.group(2) is None and card != 1:
        raise ParseError(line_no, f"{fam!r} is a family; an index is required")
    if card is not None and idx >= card:
        raise DanglingReference(line_no, f"index {idx} beyond family {fam!r}")
    return VertexRef(fam, idx)


def _old_split_items(body):
    items, depth, cur = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        items.append("".join(cur))
    return [s.strip() for s in items if s.strip()]


def _old_vset(body, line_no, pres):
    families = pres.vertex_families
    parts = []
    for item in _old_split_items(body):
        m = _RE_STAR.match(item)
        if m:
            fam = m.group(1)
            if fam not in families:
                raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
            parts.append((fam, pres.family_universe(fam)))
            continue
        m = _RE_PROG.match(item)
        if m:
            fam, aff_text, n0 = m.group(1), m.group(2), int(m.group(3))
            if fam not in families:
                raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
            aff = _old_affine(aff_text, line_no)
            if families[fam] is not None:
                raise ParseError(line_no, f"progression into finite family {fam!r}")
            parts.append((fam, IndexSet.progression(aff.a, aff.b, int(n0))))
            continue
        v = _old_vref(item, line_no, families)
        parts.append((v.family, IndexSet.from_indices([v.index])))
    return VertexSet.make(parts)


def _old_template(text, line_no, families):
    m = _RE_TEMPLATE.match(text.strip())
    if not m:
        raise ParseError(line_no, f"bad vertex template {text!r}")
    fam = m.group(1)
    if fam not in families:
        raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
    if m.group(2) is None:
        if families[fam] != 1:
            raise ParseError(line_no, f"{fam!r} is a family; an index is required")
        return VertexTemplate(fam, Affine(0, 0))
    inner = m.group(2).strip()
    if inner.isdigit():
        return VertexTemplate(fam, Affine(0, int(inner)))
    return VertexTemplate(fam, _old_affine(inner, line_no))


def old_parse_presentation(text):
    pres = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if pres is None:
            m = _RE_HEADER.match(line)
            if not m:
                raise ParseError(line_no, "expected 'ultragraph <name>' header")
            pres = UltragraphPresentation(m.group(1), {})
            continue
        m = _RE_VERTEX.match(line)
        if m:
            name = m.group(1)
            if name in pres.vertex_families:
                raise ParseError(line_no, f"duplicate vertex family {name!r}")
            pres.vertex_families[name] = 1
            pres.atoms.add(name)
            continue
        m = _RE_VFAMILY.match(line)
        if m:
            name, kind = m.group(1), m.group(2)
            if name in pres.vertex_families:
                raise ParseError(line_no, f"duplicate vertex family {name!r}")
            pres.vertex_families[name] = None if kind == "infinite" else int(kind.split()[1])
            continue
        m = _RE_EDGE.match(line)
        if m:
            eid, src_text, body = m.group(1), m.group(2), m.group(3)
            if eid in pres.edges or eid in pres.edge_families:
                raise ParseError(line_no, f"duplicate edge id {eid!r}")
            src = _old_vref(src_text, line_no, pres.vertex_families)
            rng = _old_vset(body, line_no, pres)
            if rng.is_empty():
                raise EmptyRange(line_no, f"edge {eid!r} has empty range")
            pres.edges[eid] = Edge(eid, src, rng)
            continue
        m = _RE_EFAMILY.match(line)
        if m:
            name, n0, src_text, body = m.group(1), int(m.group(2)), m.group(3), m.group(4)
            if name in pres.edges or name in pres.edge_families:
                raise ParseError(line_no, f"duplicate edge id {name!r}")
            src = _old_template(src_text, line_no, pres.vertex_families)
            atoms = tuple(_old_template(item, line_no, pres.vertex_families) for item in _old_split_items(body))
            if not atoms:
                raise EmptyRange(line_no, f"edge_family {name!r} has empty range")
            pres.edge_families[name] = EdgeFamily(name, n0, src, atoms)
            continue
        raise ParseError(line_no, f"unrecognized line: {line!r}")
    if pres is None:
        raise ParseError(1, "empty presentation")
    pres.validate()
    return pres


# -- random presentation text --------------------------------------------


def _gap(rng, required=False):
    """Whitespace, odd on purpose: none (unless required), spaces, tabs."""
    return rng.choice([" ", "  ", "\t", " \t "] + ([] if required else ["", ""]))


def _affine_text(rng, a, b):
    g = lambda: _gap(rng)  # noqa: E731
    if a == 0:
        return str(b)
    head = "n" if a == 1 and rng.random() < 0.5 else f"{a}{g()}*{g()}n"
    if b == 0 and rng.random() < 0.5:
        return head
    return f"{head}{g()}{'-' if b < 0 else '+'}{g()}{abs(b)}"


def random_text(rng: random.Random) -> str:
    """A presentation with named vertices, finite and infinite families,
    edges whose ranges mix vertices, whole families and progressions, and
    edge families, written with odd whitespace, comments and blank lines."""
    g = lambda: _gap(rng)  # noqa: E731
    s = lambda: _gap(rng, required=True)  # noqa: E731
    named = [f"a{i}" for i in range(rng.randint(0, 2))]
    finite = {f"v{i}": rng.randint(1, 5) for i in range(rng.randint(0, 2))}
    infinite = [f"w.{i}" for i in range(rng.randint(0, 2))] or ([] if named or finite else ["w"])
    decls = [f"vertex{s()}{a}" for a in named]
    decls += [f"vertex_family{s()}{v}{s()}finite{s()}{k}" for v, k in finite.items()]
    decls += [f"vertex_family{s()}{w}{s()}infinite" for w in infinite]
    rng.shuffle(decls)

    def vertex():
        choice = rng.choice(named + list(finite) + infinite)
        if choice in named or finite.get(choice) == 1 and rng.random() < 0.5:
            return choice
        return f"{choice}[{rng.randrange(finite.get(choice) or 9)}]"

    def item():
        r = rng.random()
        if r < 0.15:
            return f"{rng.choice(named + list(finite) + infinite)}[*]"
        if r < 0.35 and infinite:
            a, n0 = rng.randint(0, 3), rng.randint(0, 3)
            b = rng.randint(-a * n0, 5)
            return f"{rng.choice(infinite)}[{_affine_text(rng, a, b)}{s()}for{s()}n{g()}>={g()}{n0}]"
        return vertex()

    edges = []
    for i in range(rng.randint(1, 6)):
        items = [item() for _ in range(rng.randint(1, 4))]
        body = f",{g()}".join(items) + ("," if rng.random() < 0.1 else "")
        edges.append(f"edge{s()}e{i}{g()}:{g()}{vertex()}{g()}->{g()}{{{g()}{body}{g()}}}")
    for i in range(rng.randint(0, 3) if infinite else 0):
        n0 = rng.randint(0, 3)

        def template(source):
            r = rng.random()
            if r < 0.5 or source and r < 0.7:
                a = rng.randint(1, 3)
                return f"{rng.choice(infinite)}[{_affine_text(rng, a, rng.randint(-a * n0, 4))}]"
            if r < 0.8 and named:
                return rng.choice(named)
            return vertex()

        atoms = f",{g()}".join(template(False) for _ in range(rng.randint(1, 3)))
        edges.append(
            f"edge_family{s()}f{i}[n]{g()}({g()}n{g()}>={g()}{n0}{g()}){g()}:{g()}{template(True)}{g()}->{g()}{{{g()}{atoms}{g()}}}"
        )
    rng.shuffle(edges)
    lines = [f"{g()}ultragraph{s()}r{rng.randrange(1000)}{g()}", *decls, *edges]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", g(), "# a comment", f"{g()}# {vertex()}"]))
    return "\n".join(line + (f"{g()}# note" if rng.random() < 0.1 else "") for line in lines) + "\n"


# -- the benchmark's shapes, written out here -------------------------------


def workload_shapes(rng: random.Random) -> list[str]:
    """Texts of the shapes the benchmark generates: random graphs over one
    family, cycles with a source, layered DAGs and clique rays."""
    out = []
    for _ in range(20):
        nv = rng.randint(1, 6)
        edges = [
            f"edge e{i} : v[{rng.randrange(nv)}] -> {{ "
            + ", ".join(f"v[{j}]" for j in rng.sample(range(nv), rng.randint(1, min(3, nv))))
            + " }"
            for i in range(rng.randint(1, 8))
        ]
        out.append("\n".join([f"ultragraph rnd", f"vertex_family v finite {nv}", *edges]) + "\n")
    for n in (4, 10, 30):
        edges = ["edge feed : src -> { c[0] }"] + [f"edge e{i} : c[{i}] -> {{ c[{(i + 1) % n}] }}" for i in range(n)]
        out.append("\n".join([f"ultragraph cycle{n}", "vertex src", f"vertex_family c finite {n}", *edges]) + "\n")
    for w, d in ((2, 4), (3, 7)):
        head = [f"ultragraph dag{w}x{d}"] + [f"vertex_family l{i} finite {w}" for i in range(d + 1)]
        edges = [
            f"edge g{i}_{j} : l{i}[{j}] -> {{ l{i + 1}[{j}], l{i + 1}[{(j + 1) % w}] }}"
            for i in range(d)
            for j in range(w)
        ]
        out.append("\n".join(head + edges) + "\n")
    for k in (3, 6):
        edges = ["edge feed : src -> { q[0] }", f"edge out : q[{k - 1}] -> {{ r[0] }}"]
        edges += [f"edge c{i}_{j} : q[{i}] -> {{ q[{j}] }}" for i in range(k) for j in range(k) if i != j]
        head = [f"ultragraph clique{k}", "vertex src", f"vertex_family q finite {k}", "vertex_family r infinite"]
        out.append("\n".join(head + edges + ["edge_family f[n] (n >= 1) : r[n-1] -> { r[n] }"]) + "\n")
    return out


def fields(pres):
    return (
        pres.name,
        list(pres.vertex_families.items()),
        pres.atoms,
        list(pres.edges.items()),
        list(pres.edge_families.items()),
    )


# What the regex parser left to validate(), and so reported at line 0, and
# the scanner reports at the line that declares the edge family.
FAMILY_CHECKS = ("affine index into finite family", "negative index at n=", "index beyond family")


def _declaring_line(text, name):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        word, _, rest = raw.partition("#")[0].strip().partition(" ")
        if word == "edge_family" and rest.lstrip().startswith(f"{name}["):
            return line_no
    return None


def both_outcomes(text):
    """What the scanner and the regex parser make of text: the fields of
    the presentation, or the error's class, line and message.  The one
    difference allowed: a check of a whole edge family that the regex
    parser's validate() reported at line 0 is expected at the family's
    line."""
    got = []
    for parse in (parse_presentation, old_parse_presentation):
        try:
            got.append(fields(parse(text)))
        except ParseError as exc:
            got.append((type(exc).__name__, exc.line_no, exc.message))
    kind, line, message = got[1] if len(got[1]) == 3 else (None, None, "")
    if (kind, line) == ("DanglingReference", 0) and any(f": {check}" in message for check in FAMILY_CHECKS):
        got[1] = (kind, _declaring_line(text, message.split()[1].rstrip(":")), message)
    return got


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ug")))
def test_scanner_matches_the_regex_parser_on_the_corpus(name):
    new, old = both_outcomes((CORPUS / name).read_text(encoding="utf-8"))
    assert new == old and len(new) == 5


def test_scanner_matches_the_regex_parser_on_random_text():
    rng = random.Random(2024)
    texts = [random_text(rng) for _ in range(600)] + workload_shapes(rng)
    parsed = 0
    for text in texts:
        new, old = both_outcomes(text)
        assert new == old, text
        parsed += len(new) == 5
    shapes = ("[*]", "for", "edge_family", "\t", "#", "vertex ")
    assert all(any(mark in text for text in texts) for mark in shapes)
    assert parsed >= 500, parsed


# -- expressions read what the library prints --------------------------------


def test_eval_reads_juxtaposed_products(capsys):
    # p_v s_τ* s_τ p_v for the path τ = e f into v of ef.ug
    assert run_cli(["eval", str(CORPUS / "ef.ug"), "p{v} st(e f) s(e f) p{v}"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "normal form: p{v}"


def strong_z_certificates():
    """(presentation, certificate) of every corpus file whose golden
    report holds a strong-Z certificate."""
    out = []
    for golden in sorted(GOLDEN.glob("*.json")):
        cert = json.loads(golden.read_text(encoding="utf-8"))["gradings"]["strong_z"].get("certificate")
        if cert:
            out.append((parse_presentation((CORPUS / f"{golden.stem}.ug").read_text(encoding="utf-8")), cert))
    return out


def _type_of(pres, name):
    """The set A of a node D(m, A) by the name of its type, V or r(e)."""
    label = name[name.index(", ") + 2 : -1]
    return pres.g0_universe() if label == "V" else pres.edge_range(EdgeInst(label[2:-1]))


def test_full_nodes_evaluate_to_their_split_vertices():
    """Each degree 1 sum of a corpus strong-Z certificate is the sum of
    s_e s_e* over the out-edges of its vertex; and each node D(m, A) is
    full as printed: with each child D(m', B) read as p{B}, its line
    evaluates to its head plus the printed degree 1 sums of the vertices
    of A outside the head."""
    nodes = 0
    for pres, cert in strong_z_certificates():
        labels = {v.family if v.family in pres.atoms else v.label(): v for v in pres.all_vertices()}
        printed = {v: label for label, v in labels.items()}
        sums = {label: parse_element(pres, text) for label, text in cert["vertices"].items()}
        for vertex, total in sums.items():
            split = AlgebraElement.zero(pres)
            for e in pres.out_edges(labels[vertex]):
                split = split + AlgebraElement.s(pres, (e,)) * AlgebraElement.s_star(pres, (e,))
            assert total == split, (pres.name, vertex)
        for name, line in cert["nodes"].items():
            got, head = AlgebraElement.zero(pres), VertexSet.empty()
            for bit in line.split(" + "):
                if bit.startswith("p{"):
                    got = parse_element(pres, bit)
                    head = got.terms[(), ()][0][1]
                    continue
                child = bit[bit.index("D(") : bit.index(") st(") + 1]
                s_e, st_e = bit[: bit.index(" D(")], bit[bit.index(" st(") + 1 :]
                p_child = AlgebraElement.projection(pres, _type_of(pres, child))
                got = got + parse_element(pres, s_e) * p_child * parse_element(pres, st_e)
            expected = AlgebraElement.projection(pres, head)
            for u in _type_of(pres, name).difference(head).vertices():
                expected = expected + sums[printed[u]]
            assert got == expected, (pres.name, name)
            nodes += 1
    assert nodes >= 100, nodes


def printed_elements():
    """The elements the corpus certificates print and the ones
    tests/test_cli.py evaluates, with random combinations of monomials on
    the finite corpus, their coefficients integers and fractions."""
    out = []
    for pres, cert in strong_z_certificates():
        texts = list(cert["vertices"].values()) + [line.split(" + ")[0] for line in cert["nodes"].values()]
        out += [parse_element(pres, t) for t in texts if not t.startswith("s(")]
    ef = parse_presentation((CORPUS / "ef.ug").read_text(encoding="utf-8"))
    out += [parse_element(ef, t) for t in ("s(e) * s(f)", "st(e) * s(f)", "s(e) * st(f)", "s(f) + 2 st(f) + -3 p{u}")]
    chain = parse_presentation((CORPUS / "source_chain64.ug").read_text(encoding="utf-8"))
    out.append(parse_element(chain, "s(" + " ".join(f"a{i}" for i in range(64)) + ") * s(loop)"))
    rng = random.Random(5)
    for name in FINITE_CORPUS:
        pres = load(name)
        for _ in range(40):
            x = AlgebraElement.zero(pres)
            for _ in range(rng.randint(1, 3)):
                alpha, beta = random_path(rng, pres), random_path(rng, pres)
                coeff = rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 3)])
                x = x + AlgebraElement.monomial(pres, alpha, random_vertex_set(rng, pres), beta, coeff)
            out.append(x)
    return out


def test_pretty_reads_back():
    elements = printed_elements()
    assert sum(not x.is_zero() for x in elements) >= 150
    fractions = [x for x in elements if any(c.denominator > 1 for pieces in x.terms.values() for c, _ in pieces)]
    assert len(fractions) >= 50, len(fractions)
    for x in elements:
        assert pretty(parse_element(x.pres, pretty(x))) == pretty(x), pretty(x)


def test_unit_certificate_sets_read_back():
    # the unit of degree 0 is p{V}, and each node prints its set first
    read = 0
    for golden in sorted(GOLDEN.glob("*.json")):
        cert = json.loads(golden.read_text(encoding="utf-8"))["gradings"]["eps_strong_z"].get("certificate")
        if not cert:
            continue
        pres = parse_presentation((CORPUS / f"{golden.stem}.ug").read_text(encoding="utf-8"))
        assert parse_element(pres, cert["units"]["0"]) == AlgebraElement.projection(pres, pres.g0_universe())
        for name, line in cert["nodes"].items():
            head = line.split(" + ")[0]
            if name.startswith("D(") and head.startswith("p{"):
                assert pretty(parse_element(pres, head)) == head, (golden.stem, head)
                read += 1
    assert read >= 10


# -- the library compiles no regex -----------------------------------------

NO_REGEX = """
import re, sys
def refuse(*args, **kwargs):
    raise AssertionError(f"a regex was compiled: {args[:1]!r}")
re.compile = re._compile = refuse
sys.path.insert(0, sys.argv[1])
import ultragrade.grading, ultragrade.partial_action
from ultragrade.algebra import parse_element, pretty
from ultragrade.model import parse_presentation
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
print(pretty(parse_element(pres, "p{v} st(e f) s(e f) p{v}")))
"""


@pytest.mark.dash_o
def test_the_library_compiles_no_regex():
    # ULTRAGRADE_PYTHON names another interpreter to run the library
    # under, as CI does for the oldest supported Python
    python = os.environ.get("ULTRAGRADE_PYTHON", sys.executable)
    corpus = [str(p) for p in sorted(CORPUS.glob("*.ug")) if p.name != "ef.ug"] + [str(CORPUS / "ef.ug")]
    flags = ["-I", "-O"] if sys.flags.optimize else ["-I"]  # -O when the suite runs under -O
    proc = subprocess.run(
        [python, *flags, "-c", NO_REGEX, str(CORPUS.parent / "src"), *corpus], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "p{v}\n"
