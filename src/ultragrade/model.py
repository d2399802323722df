"""Ultragraph presentations: vertex families, edges, edge families, paths.

An ultragraph has countable vertex and edge sets; here both are given by
finitely many families so that all the set arithmetic stays decidable.
Vertex families are indexed by an initial segment of the naturals (or all
of them), edge families by a tail {n : n >= n0} with affine source/range
templates.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    DanglingReference,
    EmptyRange,
    InfiniteEmitter,
    NotFinite,
    ParseError,
)
from .indexset import IndexSet


class VertexRef(NamedTuple):
    family: str
    index: int

    def label(self) -> str:
        return f"{self.family}[{self.index}]"


class Affine(NamedTuple):
    """The map n -> a*n + b."""

    a: int
    b: int

    def value(self, n: int) -> int:
        return self.a * n + self.b

    def solve(self, value: int, n0: int) -> Optional[int]:
        """The unique n >= n0 with a*n + b == value, if any (a >= 1)."""
        if self.a == 0:
            return None
        q, r = divmod(value - self.b, self.a)
        if r != 0 or q < n0:
            return None
        return q


class VertexTemplate(NamedTuple):
    """An n-dependent vertex reference family[a*n+b]; a == 0 is constant."""

    family: str
    aff: Affine

    def at(self, n: int) -> VertexRef:
        return VertexRef(self.family, self.aff.value(n))

    def is_constant(self) -> bool:
        return self.aff.a == 0


class EdgeInst(NamedTuple):
    """A concrete edge: an individually specified edge (n is None) or the
    n-th member of an edge family."""

    name: str
    n: Optional[int] = None

    def label(self) -> str:
        return self.name if self.n is None else f"{self.name}[{self.n}]"

    def sort_key(self):
        return (self.name, -1 if self.n is None else self.n)


FinitePath = tuple  # tuple[EdgeInst, ...]; a length-0 path is a VertexSet


class VertexSet:
    """Per-family eventually periodic subset of the vertices.

    Values are immutable, like IndexSet's: build them with the static
    constructors or the Boolean operations, never by assigning to `parts`.
    The hash is computed on first use and kept.  It is hash((parts,)): a
    set of vertex sets iterates in an order that depends on the hash, so
    another hash could reorder what is built from such a set."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple[tuple[str, IndexSet], ...]):
        self.parts = parts  # sorted, no empty components
        self._hash = None

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not VertexSet:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.parts,))
        return h

    def __repr__(self) -> str:
        return f"VertexSet(parts={self.parts!r})"

    def __reduce__(self):
        # string hashes differ between processes, so the kept hash is not
        # carried along
        return VertexSet, (self.parts,)

    @staticmethod
    def make(parts: Iterable[tuple[str, IndexSet]]) -> "VertexSet":
        """The union of the (family, index set) pairs: a family that
        repeats gets the union of its sets, so n pairs cost at most n IndexSet
        unions however many families they name."""
        by_family: dict[str, IndexSet] = {}
        for fam, s in parts:
            if fam in by_family:
                s = by_family[fam].union(s)
            by_family[fam] = s
        return VertexSet(tuple(sorted((fam, s) for fam, s in by_family.items() if not s.is_empty())))

    @staticmethod
    def empty() -> "VertexSet":
        return VertexSet(())

    @staticmethod
    def of(*vrefs: VertexRef) -> "VertexSet":
        if len(vrefs) == 1:
            fam, i = vrefs[0]
            if i < 0:
                raise ValueError("indices must be nonnegative")
            # the finite set {i} in IndexSet's canonical form
            return VertexSet(((fam, IndexSet(i + 1, 1 << i, 1, 0)),))
        parts: dict[str, set[int]] = {}
        for v in vrefs:
            parts.setdefault(v.family, set()).add(v.index)
        return VertexSet(tuple(sorted((fam, IndexSet.from_indices(s)) for fam, s in parts.items())))

    def _merge(self, other: "VertexSet", op, keep_self: bool, keep_other: bool) -> "VertexSet":
        """Walk both sorted part lists at once: `op` combines the families
        they share, and a family on one side only is kept as it is or
        dropped."""
        a, b = self.parts, other.parts
        if a is b:
            # op(s, s) is s for union and intersection, empty for difference
            return self if keep_self == keep_other else VertexSet(())
        if not b:
            return self if keep_self else other
        if not a:
            return other if keep_other else self
        if len(a) == 1 and len(b) == 1 and a[0][0] == b[0][0]:
            s = op(a[0][1], b[0][1])
            return VertexSet(((a[0][0], s),) if s else ())
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            fa, fb = a[i][0], b[j][0]
            if fa == fb:
                s = op(a[i][1], b[j][1])
                if s:
                    out.append((fa, s))
                i += 1
                j += 1
            elif fa < fb:
                if keep_self:
                    out.append(a[i])
                i += 1
            else:
                if keep_other:
                    out.append(b[j])
                j += 1
        if keep_self:
            out.extend(a[i:])
        if keep_other:
            out.extend(b[j:])
        return VertexSet(tuple(out))

    def union(self, other: "VertexSet") -> "VertexSet":
        return self._merge(other, IndexSet.union, True, True)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        return self._merge(other, IndexSet.intersection, False, False)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return self._merge(other, IndexSet.difference, True, False)

    def member(self, v: VertexRef) -> bool:
        for fam, s in self.parts:
            if fam == v.family:
                return s.member(v.index)
        return False

    def is_empty(self) -> bool:
        return not self.parts

    def is_finite(self) -> bool:
        return all(s.is_finite() for _, s in self.parts)

    def subset_of(self, other: "VertexSet") -> bool:
        theirs = other.parts
        j = 0
        for fam, s in self.parts:
            while j < len(theirs) and theirs[j][0] < fam:
                j += 1
            if j == len(theirs) or theirs[j][0] != fam or not s.subset_of(theirs[j][1]):
                return False
            j += 1
        return True

    def iter_vertices(self, bound: int | None = None) -> Iterator[VertexRef]:
        for fam, s in self.parts:
            for i in s.iter_elements(bound=bound):
                yield VertexRef(fam, i)

    def vertices(self) -> list[VertexRef]:
        if not self.is_finite():
            raise NotFinite("infinite vertex set")
        return list(self.iter_vertices())

    @staticmethod
    def refine(sets: Iterable["VertexSet"]) -> list[tuple["VertexSet", tuple[int, ...]]]:
        """The atoms of the Boolean algebra that `sets` generate inside
        their union, each with the indices of the sets that hold it.  An
        atom is all the vertices held by exactly those sets, so no two
        atoms carry the same indices.

        The atoms are found by signature, one family at a time.  Let p be
        the longest prefix and q the lcm of the periods among the family's
        parts.  Every part has prefix_len <= p and a period dividing q, so
        it holds an index i >= p iff it holds p + (i - p) mod q.  So the
        signature of i, the indices of the sets that hold it, is the
        signature of a position in the window [0, p + q), and each
        signature's positions in the window, read as a prefix of p bits
        and a period of q bits, are exactly the indices that carry it.
        The atom of a signature gathers its classes over every family.
        One pass over each part's set bits in the window gives every
        signature (partition refinement by signature, as in Paige and
        Tarjan, SIAM J. Comput. 1987).  The cost grows with the window: a
        family whose parts have many coprime periods has a window as
        long as their lcm."""
        by_family: dict[str, list[tuple[int, IndexSet]]] = {}
        for i, vs in enumerate(sets):
            for fam, s in vs.parts:
                by_family.setdefault(fam, []).append((i, s))
        atoms: dict[tuple[int, ...], list[tuple[str, IndexSet]]] = {}
        for fam in sorted(by_family):
            parts = by_family[fam]
            p = max(s.prefix_len for _, s in parts)
            q = lcm(*(s.period_len for _, s in parts))
            signature: dict[int, list[int]] = {}
            for i, s in parts:
                bits = s.bits_below(p + q)
                while bits:
                    low = bits & -bits
                    signature.setdefault(low.bit_length() - 1, []).append(i)
                    bits ^= low
            positions: dict[tuple[int, ...], int] = {}
            for j, held in signature.items():
                key = tuple(held)
                positions[key] = positions.get(key, 0) | 1 << j
            for key, bits in positions.items():
                atoms.setdefault(key, []).append((fam, IndexSet.from_window(p, q, bits)))
        return [(VertexSet(tuple(parts)), key) for key, parts in atoms.items()]

    def __bool__(self) -> bool:
        return not self.is_empty()


class Edge(NamedTuple):
    id: str
    source: VertexRef
    range: VertexSet


class EdgeFamily(NamedTuple):
    name: str
    n0: int
    source: VertexTemplate  # affine with a >= 1, or constant
    range_atoms: tuple[VertexTemplate, ...]  # nonempty; finite per member

    def member_source(self, n: int) -> VertexRef:
        return self.source.at(n)

    def member_range(self, n: int) -> VertexSet:
        return VertexSet.of(*(t.at(n) for t in self.range_atoms))


# -- infinite path representations -------------------------------------


class CycleTail(NamedTuple):
    edges: tuple[EdgeInst, ...]  # nonempty, cyclically composable


class FamilyTail(NamedTuple):
    family: str
    start: int


class InfinitePathRep(NamedTuple):
    prefix: tuple[EdgeInst, ...]
    tail: Union[CycleTail, FamilyTail]

    def unroll(self, depth: int) -> list[EdgeInst]:
        rest = depth - len(self.prefix)
        if rest <= 0:
            return list(self.prefix[:depth])
        if isinstance(self.tail, CycleTail):
            cyc = self.tail.edges
            return [*self.prefix, *(cyc * (rest // len(cyc) + 1))[:rest]]
        start = self.tail.start
        return [*self.prefix, *(EdgeInst(self.tail.family, n) for n in range(start, start + rest))]

    def label(self) -> str:
        pre = " ".join(e.label() for e in self.prefix)
        if isinstance(self.tail, CycleTail):
            t = "(" + " ".join(e.label() for e in self.tail.edges) + ")^inf"
        else:
            t = f"{self.tail.family}[{self.tail.start}..]"
        return (pre + " " + t).strip()


# -- the presentation ---------------------------------------------------


def _edge_ids_by_source(pres: "UltragraphPresentation") -> dict[VertexRef, list[str]]:
    by_source: dict[VertexRef, list[str]] = {}
    for eid, e in pres.edges.items():
        by_source.setdefault(e.source, []).append(eid)
    return by_source


class UltragraphPresentation:
    """A presentation; it compares and hashes by identity."""

    def __init__(self, name: str, vertex_families: dict[str, int | None], atoms: set[str] | None = None):
        self.name = name
        self.vertex_families = vertex_families  # cardinality; None = countably infinite
        self.atoms = set() if atoms is None else atoms  # families declared via `vertex`
        self.edges: dict[str, Edge] = {}
        self.edge_families: dict[str, EdgeFamily] = {}
        # Facts derived from the fields above, each built on first use by
        # derived().  validate() empties it, so a presentation changed and
        # validated again never sees stale facts.
        self._derived: dict = {}

    def derived(self, key: str, build):
        """The fact `key`, computed once as build(self) and shared by every
        later caller.  A fact keeps no reference to the presentation, so
        the two form no reference cycle."""
        try:
            return self._derived[key]
        except KeyError:
            got = self._derived[key] = build(self)
            return got

    # -- family / vertex helpers ----------------------------------------

    def family_universe(self, fam: str) -> IndexSet:
        card = self.vertex_families[fam]
        if card is None:
            return IndexSet.full()
        return IndexSet(card, (1 << card) - 1, 1, 0)  # {0, ..., card-1}, a canonical finite set

    def g0_universe(self) -> VertexSet:
        return self.derived(
            "g0_universe", lambda p: VertexSet.make((fam, p.family_universe(fam)) for fam in p.vertex_families)
        )

    def complement(self, vs: VertexSet) -> VertexSet:
        return self.g0_universe().difference(vs)

    def has_vertex(self, v: VertexRef) -> bool:
        card = self.vertex_families.get(v.family)
        if card is None and v.family in self.vertex_families:
            return v.index >= 0
        return card is not None and 0 <= v.index < card

    @property
    def is_finite(self) -> bool:
        return not self.edge_families and all(
            c is not None for c in self.vertex_families.values()
        )

    def all_vertices(self) -> list[VertexRef]:
        if not self.is_finite:
            raise NotFinite("presentation has infinite families")
        return [
            VertexRef(fam, i)
            for fam, card in self.vertex_families.items()
            for i in range(card)
        ]

    # -- edge helpers ----------------------------------------------------

    def all_edge_insts(self) -> list[EdgeInst]:
        if self.edge_families:
            raise NotFinite("presentation has edge families")
        return [EdgeInst(eid) for eid in self.edges]

    def edge_source(self, e: EdgeInst) -> VertexRef:
        if e.n is None:
            return self.edges[e.name].source
        return self.edge_families[e.name].member_source(e.n)

    def edge_range(self, e: EdgeInst) -> VertexSet:
        if e.n is None:
            return self.edges[e.name].range
        return self.edge_families[e.name].member_range(e.n)

    def resolves(self, e: EdgeInst) -> bool:
        if e.n is None:
            return e.name in self.edges
        fam = self.edge_families.get(e.name)
        return fam is not None and e.n >= fam.n0

    def out_edges(self, v: VertexRef) -> list[EdgeInst]:
        """Edges emitted by v; raises InfiniteEmitter when a constant-source
        edge family sits at v.  The individually specified edges come from
        an index by source, built once per presentation."""
        by_source = self.derived("edge_ids_by_source", _edge_ids_by_source)
        out = [EdgeInst(eid) for eid in by_source.get(v, ())]
        for name, fam in self.edge_families.items():
            if fam.source.is_constant():
                if fam.source.at(fam.n0) == v:
                    raise InfiniteEmitter(v.label())
            elif fam.source.family == v.family:
                n = fam.source.aff.solve(v.index, fam.n0)
                if n is not None:
                    out.append(EdgeInst(name, n))
        return sorted(out, key=EdgeInst.sort_key)

    def out_edge_map(self) -> dict[VertexRef, tuple[EdgeInst, ...]]:
        """Every vertex's sorted out-edges, asked of out_edges once per
        vertex and built once per presentation; finite presentations
        only."""
        return self.derived("out_edges", lambda p: {v: tuple(p.out_edges(v)) for v in p.all_vertices()})

    def in_edges(self, v: VertexRef, cap: int = 64) -> tuple[list[EdgeInst], bool]:
        """Edges whose range contains v, with a completeness flag (constant
        range atoms over affine sources yield infinitely many; enumeration is
        then truncated at `cap` members per family)."""
        out = [
            EdgeInst(eid) for eid, e in self.edges.items() if e.range.member(v)
        ]
        complete = True
        for name, fam in self.edge_families.items():
            hits: set[int] = set()
            truncated = False
            for atom in fam.range_atoms:
                if atom.family != v.family:
                    continue
                if atom.aff.a == 0:
                    if atom.aff.b == v.index:
                        hits.update(range(fam.n0, fam.n0 + cap))
                        truncated = True
                else:
                    n = atom.aff.solve(v.index, fam.n0)
                    if n is not None:
                        hits.add(n)
            out.extend(EdgeInst(name, n) for n in sorted(hits))
            complete = complete and not truncated
        return sorted(out, key=EdgeInst.sort_key), complete

    # -- paths -------------------------------------------------------------

    def is_path(self, seq: Iterable[EdgeInst]) -> bool:
        prev_range: VertexSet | None = None
        for e in seq:
            if not self.resolves(e):
                return False
            if prev_range is not None and not prev_range.member(self.edge_source(e)):
                return False
            prev_range = self.edge_range(e)
        return True

    def valid_infinite_path(self, p: InfinitePathRep, depth: int = 50) -> bool:
        return self.is_path(p.unroll(depth))

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        self._derived.clear()
        for eid, e in self.edges.items():
            if not self.has_vertex(e.source):
                raise DanglingReference(0, f"edge {eid}: unknown source {e.source.label()}")
            for fam, _ in e.range.parts:
                if fam not in self.vertex_families:
                    raise DanglingReference(0, f"edge {eid}: unknown family {fam}")
            for fam, s in e.range.parts:
                if not s.subset_of(self.family_universe(fam)):
                    raise DanglingReference(0, f"edge {eid}: index beyond family {fam}")
            if e.range.is_empty():
                raise EmptyRange(0, f"edge {eid} has empty range")
        for name, fam in self.edge_families.items():
            for t in (fam.source, *fam.range_atoms):
                if t.family not in self.vertex_families:
                    raise DanglingReference(0, f"edge_family {name}: unknown family {t.family}")
                card = self.vertex_families[t.family]
                if t.aff.a >= 1 and card is not None:
                    raise DanglingReference(
                        0, f"edge_family {name}: affine index into finite family {t.family}"
                    )
                if t.aff.value(fam.n0) < 0:
                    raise DanglingReference(0, f"edge_family {name}: negative index at n={fam.n0}")
                if t.aff.a == 0 and card is not None and t.aff.b >= card:
                    raise DanglingReference(0, f"edge_family {name}: index beyond family {t.family}")
            if fam.source.aff.a < 0:
                raise DanglingReference(0, f"edge_family {name}: source map must be affine with a >= 0")
            if not fam.range_atoms:
                raise EmptyRange(0, f"edge_family {name} has empty range")


# -- parsing -------------------------------------------------------------

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


def _parse_affine(text: str, line_no: int) -> Affine:
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


def _parse_vref(text: str, line_no: int, families: dict[str, int | None]) -> VertexRef:
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


def _split_items(body: str) -> list[str]:
    """Split a vset body on commas outside brackets."""
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


def _parse_vset(body: str, line_no: int, pres: UltragraphPresentation) -> VertexSet:
    families = pres.vertex_families
    parts: list[tuple[str, IndexSet]] = []
    for item in _split_items(body):
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
            aff = _parse_affine(aff_text, line_no)
            if families[fam] is not None:
                raise ParseError(line_no, f"progression into finite family {fam!r}")
            parts.append((fam, IndexSet.progression(aff.a, aff.b, int(n0))))
            continue
        v = _parse_vref(item, line_no, families)
        parts.append((v.family, IndexSet.from_indices([v.index])))
    return VertexSet.make(parts)


def _parse_template(text: str, line_no: int, families: dict[str, int | None]) -> VertexTemplate:
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
    return VertexTemplate(fam, _parse_affine(inner, line_no))


def parse_presentation(text: str) -> UltragraphPresentation:
    pres: UltragraphPresentation | None = None
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
            src = _parse_vref(src_text, line_no, pres.vertex_families)
            rng = _parse_vset(body, line_no, pres)
            if rng.is_empty():
                raise EmptyRange(line_no, f"edge {eid!r} has empty range")
            pres.edges[eid] = Edge(eid, src, rng)
            continue
        m = _RE_EFAMILY.match(line)
        if m:
            name, n0, src_text, body = m.group(1), int(m.group(2)), m.group(3), m.group(4)
            if name in pres.edges or name in pres.edge_families:
                raise ParseError(line_no, f"duplicate edge id {name!r}")
            src = _parse_template(src_text, line_no, pres.vertex_families)
            atoms = tuple(
                _parse_template(item, line_no, pres.vertex_families)
                for item in _split_items(body)
            )
            if not atoms:
                raise EmptyRange(line_no, f"edge_family {name!r} has empty range")
            pres.edge_families[name] = EdgeFamily(name, n0, src, atoms)
            continue
        raise ParseError(line_no, f"unrecognized line: {line!r}")
    if pres is None:
        raise ParseError(1, "empty presentation")
    pres.validate()
    return pres


# -- printing -------------------------------------------------------------


def _print_affine(aff: Affine) -> str:
    if aff.a == 0:
        return str(aff.b)
    head = "n" if aff.a == 1 else f"{aff.a}*n"
    if aff.b > 0:
        return f"{head}+{aff.b}"
    if aff.b < 0:
        return f"{head}-{-aff.b}"
    return head


def _print_vref(pres: UltragraphPresentation, v: VertexRef) -> str:
    if v.family in pres.atoms and v.index == 0:
        return v.family
    return v.label()


def _print_vset(pres: UltragraphPresentation, vs: VertexSet) -> str:
    items: list[str] = []
    for fam, s in vs.parts:
        card = pres.vertex_families[fam]
        if fam in pres.atoms and card == 1 and s.member(0):
            items.append(fam)
            continue
        if s == pres.family_universe(fam):
            items.append(f"{fam}[*]")
            continue
        for i in s.iter_elements(bound=s.prefix_len):
            items.append(_print_vref(pres, VertexRef(fam, i)))
        if not s.is_finite():
            base, step = s.prefix_len, s.period_len
            for j, b in enumerate(s.period):
                if b:
                    items.append(f"{fam}[{_print_affine(Affine(step, base + j))} for n>=0]")
    return ", ".join(items)


def _print_template(pres: UltragraphPresentation, t: VertexTemplate) -> str:
    if t.aff.a == 0:
        return _print_vref(pres, VertexRef(t.family, t.aff.b))
    return f"{t.family}[{_print_affine(t.aff)}]"


def print_presentation(pres: UltragraphPresentation) -> str:
    lines = [f"ultragraph {pres.name}"]
    for fam, card in pres.vertex_families.items():
        if fam in pres.atoms and card == 1:
            lines.append(f"vertex {fam}")
        elif card is None:
            lines.append(f"vertex_family {fam} infinite")
        else:
            lines.append(f"vertex_family {fam} finite {card}")
    for eid, e in pres.edges.items():
        lines.append(
            f"edge {eid} : {_print_vref(pres, e.source)} -> {{ {_print_vset(pres, e.range)} }}"
        )
    for name, fam in pres.edge_families.items():
        atoms = ", ".join(_print_template(pres, t) for t in fam.range_atoms)
        lines.append(
            f"edge_family {name}[n] (n >= {fam.n0}) : "
            f"{_print_template(pres, fam.source)} -> {{ {atoms} }}"
        )
    return "\n".join(lines) + "\n"
