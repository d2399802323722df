"""Ultragraph presentations: vertex families, edges, edge families, paths.

An ultragraph has countable vertex and edge sets; here both are given by
finitely many families so that all the set arithmetic stays decidable.
Vertex families are indexed by an initial segment of the naturals (or all
of them), edge families by a tail {n : n >= n0} with affine source/range
templates.
"""

from __future__ import annotations

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
            _check_templates(fam, self.vertex_families, 0)
            if fam.source.aff.a < 0:
                raise DanglingReference(0, f"edge_family {name}: source map must be affine with a >= 0")
            if not fam.range_atoms:
                raise EmptyRange(0, f"edge_family {name} has empty range")


def _check_templates(fam: EdgeFamily, families: dict[str, int | None], line_no: int) -> None:
    """Each template of an edge family names a declared family, a finite
    family takes no affine index, no index is negative at n0, and a
    constant index lies in its family; raised at line_no (0 in validate)."""
    for t in (fam.source, *fam.range_atoms):
        if t.family not in families:
            raise DanglingReference(line_no, f"edge_family {fam.name}: unknown family {t.family}")
        card = families[t.family]
        if t.aff.a >= 1 and card is not None:
            raise DanglingReference(line_no, f"edge_family {fam.name}: affine index into finite family {t.family}")
        if t.aff.value(fam.n0) < 0:
            raise DanglingReference(line_no, f"edge_family {fam.name}: negative index at n={fam.n0}")
        if t.aff.a == 0 and card is not None and t.aff.b >= card:
            raise DanglingReference(line_no, f"edge_family {fam.name}: index beyond family {t.family}")


# -- parsing -------------------------------------------------------------
#
# A hand-written scanner over str methods for the grammar in grammar.ebnf.
# A line is read by its first word.  A vertex set gathers the plain
# indices of each family into one mask, so each family costs one IndexSet;
# a family name that was declared is not checked again.

_ID_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_ID_CHARS = _ID_START + "0123456789@."


def _is_id(text: str) -> bool:
    return text != "" and text[0] in _ID_START and not text.strip(_ID_CHARS)


def _is_number(text: str) -> bool:
    """An integer of ASCII digits: grammar.ebnf's digit is 0-9 only."""
    return text.isdigit() and text.isascii()


def _lead(text: str, chars: str) -> str:
    """The longest prefix of text made of `chars`."""
    return text[: len(text) - len(text.lstrip(chars))]


def _expect(text: str, *words: str) -> str:
    """text past each of `words` in turn and the whitespace after each, or
    "" when one of them is missing."""
    for word in words:
        if not text.startswith(word):
            return ""
        text = text[len(word) :].lstrip()
    return text


def _parse_affine(text: str, line_no: int) -> Affine:
    """integer | [integer '*'] 'n' [('+' | '-') integer]"""
    t = text.strip()
    if _is_number(t):
        return Affine(0, int(t))
    head, n, tail = t.partition("n")
    coef, star, gap = head.partition("*")
    sign, digits = tail.lstrip()[:1], tail.lstrip()[1:].lstrip()
    if not n or head and not (star and not gap.strip() and _is_number(coef.rstrip())) or sign and not (
        sign in "+-" and _is_number(digits)
    ):
        raise ParseError(line_no, f"bad affine expression {text!r}")
    b = int(digits) if sign else 0
    return Affine(int(coef) if head else 1, -b if sign == "-" else b)


def _parse_ref(text: str, line_no: int, families: dict[str, int | None], template: bool = False):
    """The VertexRef of fam[index], or with `template` the VertexTemplate of
    fam[affine]; a one-vertex family may stand without brackets."""
    fam, bracket, rest = text.partition("[")
    inner = rest[:-1]
    shaped = not bracket or rest[-1:] == "]" and (inner if template else _is_number(inner))
    if not shaped or fam not in families and not _is_id(fam):
        raise ParseError(line_no, f"bad vertex {'template' if template else 'reference'} {text!r}")
    if fam not in families:
        raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
    card = families[fam]
    if not bracket and card != 1:
        raise ParseError(line_no, f"{fam!r} is a family; an index is required")
    if template:
        return VertexTemplate(fam, _parse_affine(inner.strip(), line_no) if bracket else Affine(0, 0))
    idx = int(inner) if bracket else 0
    if card is not None and idx >= card:
        raise DanglingReference(line_no, f"index {idx} beyond family {fam!r}")
    return VertexRef(fam, idx)


def _split_items(body: str) -> list[str]:
    """Split a set body on the commas outside brackets; the items are
    stripped and empty ones dropped."""
    if "," not in body:
        return [body.strip()] if body.strip() else []
    items, depth = [], 0
    for piece in body.split(","):
        if depth:
            items[-1] += "," + piece
        else:
            items.append(piece)
        depth += piece.count("[") - piece.count("]")
    return [item for item in map(str.strip, items) if item]


def _parse_family_part(item: str, line_no: int, pres: UltragraphPresentation) -> Optional[IndexSet]:
    """The indices of fam[*] or of the progression fam[affine for n>=n0],
    or None when item is neither, so that it is read as a vertex."""
    fam, _, rest = item.partition("[")
    aff_text, _, cond = rest[:-1].rpartition("for")
    spaced = aff_text[-1:].isspace() and cond[:1].isspace() and aff_text.strip()
    n0 = _expect(cond.lstrip(), "n", ">=") if spaced else ""
    star = rest == "*]"
    if not (star or _is_number(n0)) or fam not in pres.vertex_families and not _is_id(fam):
        return None
    if fam not in pres.vertex_families:
        raise DanglingReference(line_no, f"unknown vertex family {fam!r}")
    if star:
        return pres.family_universe(fam)
    aff = _parse_affine(aff_text.rstrip(), line_no)
    if pres.vertex_families[fam] is not None:
        raise ParseError(line_no, f"progression into finite family {fam!r}")
    if aff.value(int(n0)) < 0:
        raise ParseError(line_no, f"progression {item!r} leaves the naturals")
    return IndexSet.progression(aff.a, aff.b, int(n0))


def _parse_vset(body: str, line_no: int, pres: UltragraphPresentation) -> VertexSet:
    families = pres.vertex_families
    masks: dict[str, int] = {}
    sets: dict[str, IndexSet] = {}
    for item in _split_items(body):
        fam, _, rest = item.partition("[")
        index, card = rest[:-1], families.get(fam, 0)
        if rest[-1:] == "]" and index.isdigit() and index.isascii() and (card is None or int(index) < card):
            masks[fam] = masks.get(fam, 0) | 1 << int(index)  # a vertex of a declared family
            continue
        part = _parse_family_part(item, line_no, pres) if rest[-1:] == "]" else None
        if part is None:
            fam, i = _parse_ref(item, line_no, families)
            masks[fam] = masks.get(fam, 0) | 1 << i
        elif part:
            sets[fam] = sets[fam].union(part) if fam in sets else part
    for fam, mask in masks.items():
        part = IndexSet(mask.bit_length(), mask, 1, 0)  # the finite set, in canonical form
        sets[fam] = sets[fam].union(part) if fam in sets else part
    return VertexSet(tuple(sorted(sets.items())))


def _read_declaration(pres: UltragraphPresentation, word: str, rest: str, line_no: int) -> bool:
    """Add the declaration `word rest` to pres; False when it is none."""
    families = pres.vertex_families
    if word == "vertex" or word == "vertex_family":
        name, *kind = rest.split() or [""]
        finite = len(kind) == 2 and kind[0] == "finite" and _is_number(kind[1])
        if not (_is_id(name) and (not kind if word == "vertex" else kind == ["infinite"] or finite)):
            return False
        card = 1 if word == "vertex" else int(kind[1]) if finite else None
        if name in families:
            raise ParseError(line_no, f"duplicate vertex family {name!r}")
        families[name] = card
        if word == "vertex":
            pres.atoms.add(name)
        return True
    if word == "edge":
        name, colon, after = rest.partition(":")
        name, n0 = name.rstrip(), "0"
    elif word == "edge_family":
        name, _, after = rest.partition("[")
        after = _expect(after, "n]", "(", "n", ">=")
        n0 = _lead(after, "0123456789")
        after = _expect(after[len(n0) :].lstrip(), ")")
        colon, after = after[:1], after[1:]
    else:
        return False
    src_text, arrow, body = after.partition("->")  # the source ends at the first arrow
    body = body.lstrip()
    if not (colon == ":" and arrow and body[:1] == "{" and body.endswith("}") and n0 and _is_id(name)):
        return False
    if name in pres.edges or name in pres.edge_families:
        raise ParseError(line_no, f"duplicate edge id {name!r}")
    src_text, body = src_text.strip(), body[1:-1]
    if word == "edge":
        src = _parse_ref(src_text, line_no, families)
        rng = _parse_vset(body, line_no, pres)
        if rng.is_empty():
            raise EmptyRange(line_no, f"edge {name!r} has empty range")
        pres.edges[name] = Edge(name, src, rng)
        return True
    src = _parse_ref(src_text, line_no, families, template=True)
    atoms = tuple(_parse_ref(item, line_no, families, template=True) for item in _split_items(body))
    if not atoms:
        raise EmptyRange(line_no, f"edge_family {name!r} has empty range")
    fam = EdgeFamily(name, int(n0), src, atoms)
    _check_templates(fam, families, line_no)
    pres.edge_families[name] = fam
    return True


def parse_presentation(text: str) -> UltragraphPresentation:
    pres: UltragraphPresentation | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        word, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        if pres is None:
            if word != "ultragraph" or not _is_id(rest):
                raise ParseError(line_no, "expected 'ultragraph <name>' header")
            pres = UltragraphPresentation(rest, {})
        elif not _read_declaration(pres, word, rest, line_no):
            raise ParseError(line_no, f"unrecognized line: {line!r}")
    if pres is None:
        raise ParseError(1, "empty presentation")
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
