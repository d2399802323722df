"""The path-space partial action and the skew-product model.

The space X consists of infinite paths, pairs (α, v) with v a sink in
r(α), and isolated sinks (v, v).  The free group on the edges acts
partially by erasing and prepending path prefixes; functions on X that
are constant on cylinder/sink-pair/sink atoms form the coefficient
algebra D, and the skew product of D with the free group reproduces the
Leavitt path algebra through the map
p_A ↦ 1_A δ₀, s_e ↦ 1_e δ_e, s_e* ↦ 1_{e⁻¹} δ_{e⁻¹}.

Everything here requires a finite presentation: atoms are enumerated
exhaustively per refinement depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import CertificateError, NotFinite, NotInDomain, NotInIdeal
from .freegroup import FreeWord
from .model import (
    CycleTail,
    EdgeInst,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
    shift_path,
)

Coeff = Union[int, Fraction]


# -- points ---------------------------------------------------------------


@dataclass(frozen=True)
class Infinite:
    rep: InfinitePathRep


@dataclass(frozen=True)
class SinkPath:
    alpha: tuple[EdgeInst, ...]  # nonempty
    v: VertexRef


@dataclass(frozen=True)
class SinkVertex:
    v: VertexRef


PathPoint = Union[Infinite, SinkPath, SinkVertex]


def _require_finite(pres: UltragraphPresentation) -> None:
    if not pres.is_finite:
        raise NotFinite("the partial-action model needs a finite presentation")


def point_length(x: PathPoint) -> Optional[int]:
    """None encodes infinite length."""
    if isinstance(x, Infinite):
        return None
    if isinstance(x, SinkPath):
        return len(x.alpha)
    return 0


def point_prefix(x: PathPoint, k: int) -> Optional[tuple[EdgeInst, ...]]:
    """First k edges, or None when |x| < k."""
    if k == 0:
        return ()
    if isinstance(x, Infinite):
        return tuple(x.rep.unroll(k))
    if isinstance(x, SinkPath) and len(x.alpha) >= k:
        return x.alpha[:k]
    return None


def point_source(pres: UltragraphPresentation, x: PathPoint) -> VertexRef:
    if isinstance(x, Infinite):
        return pres.edge_source(x.rep.unroll(1)[0])
    if isinstance(x, SinkPath):
        return pres.edge_source(x.alpha[0])
    return x.v


def valid_point(pres: UltragraphPresentation, x: PathPoint) -> bool:
    if isinstance(x, Infinite):
        return pres.valid_infinite_path(x.rep, depth=30)
    if isinstance(x, SinkPath):
        return (
            len(x.alpha) >= 1
            and pres.is_path(x.alpha)
            and _path_space(pres).is_sink(x.v)
            and pres.edge_range(x.alpha[-1]).member(x.v)
        )
    return _path_space(pres).is_sink(x.v)


# -- membership in the X_t / X_A / X_{bA} sets ----------------------------


def point_in_word(pres: UltragraphPresentation, x: PathPoint, t: FreeWord) -> bool:
    if t.is_identity():
        return True
    split = t.positive_negative_split()
    if split is None:
        return False
    a, b = split
    if a and not pres.is_path(a):
        return False
    if b and not pres.is_path(b):
        return False
    if a and not b:
        return point_prefix(x, len(a)) == a
    if b and not a:
        return pres.edge_range(b[-1]).member(point_source(pres, x))
    meet = pres.edge_range(a[-1]).intersection(pres.edge_range(b[-1]))
    if meet.is_empty():
        # shapes with disjoint range intersection denote the empty set
        return False
    if isinstance(x, SinkPath) and x.alpha == a:
        return meet.member(x.v)
    nxt = point_prefix(x, len(a) + 1)
    return nxt is not None and nxt[: len(a)] == a and meet.member(pres.edge_source(nxt[-1]))


def point_in_vertex_set(
    pres: UltragraphPresentation, x: PathPoint, vset: VertexSet
) -> bool:
    return vset.member(point_source(pres, x))


# -- the partial action on points ------------------------------------------


def _strip(pres: UltragraphPresentation, x: PathPoint, b: tuple[EdgeInst, ...]) -> PathPoint:
    if not b:
        return x
    if isinstance(x, Infinite):
        rep = x.rep
        for _ in b:
            rep = shift_path(rep)
        return Infinite(rep)
    if not (isinstance(x, SinkPath) and x.alpha[: len(b)] == b):
        raise ValueError("the point does not begin with the path to strip")
    rest = x.alpha[len(b):]
    return SinkPath(rest, x.v) if rest else SinkVertex(x.v)


def _prepend(x: PathPoint, a: tuple[EdgeInst, ...]) -> PathPoint:
    if not a:
        return x
    if isinstance(x, Infinite):
        return Infinite(InfinitePathRep(a + x.rep.prefix, x.rep.tail))
    if isinstance(x, SinkPath):
        return SinkPath(a + x.alpha, x.v)
    return SinkPath(a, x.v)


def theta(pres: UltragraphPresentation, t: FreeWord, x: PathPoint) -> PathPoint:
    """θ_t, defined on X_{t⁻¹}: erase the negative part, prepend the
    positive part."""
    if t.is_identity():
        return x
    if not point_in_word(pres, x, t.inverse()):
        raise NotInDomain(f"point outside the domain of theta_{t.label()}")
    split = t.positive_negative_split()
    if split is None:
        raise CertificateError(
            f"{t.label()} has no positive-negative split but its domain admitted a point"
        )
    a, b = split
    return _prepend(_strip(pres, x, b), a)


# -- atoms ------------------------------------------------------------------


class _PathSpace:
    """What the model reads about X for one finite presentation, each
    fact computed on first use: every vertex's sorted out-edges (asked of
    `out_edges` once per vertex) and so its sink flag, the atoms per
    depth, each cylinder's children, each atom's refinement to a depth,
    and each atom's representative point.

    It is a derived fact of the presentation (see
    UltragraphPresentation.derived), so it keeps the edge ranges rather
    than the presentation.  The lists it hands out are shared: callers do
    not mutate them."""

    def __init__(self, pres: UltragraphPresentation):
        _require_finite(pres)
        self.out = {v: tuple(pres.out_edges(v)) for v in pres.all_vertices()}
        self.range = {e: pres.edge_range(e) for e in pres.all_edge_insts()}
        self._atoms: dict[int, list[tuple]] = {}
        self._children: dict[tuple, list[tuple]] = {}
        self._leaves: dict[tuple[tuple, int], list[tuple]] = {}
        self._points: dict[tuple, PathPoint] = {}

    def is_sink(self, v: VertexRef) -> bool:
        # a vertex outside the presentation emits no edge, as in out_edges
        return not self.out.get(v)

    def children(self, key: tuple) -> list[tuple]:
        """The atoms one edge deeper inside a cylinder."""
        kids = self._children.get(key)
        if kids is None:
            alpha = key[1]
            kids = []
            for u in self.range[alpha[-1]].vertices():
                out = self.out.get(u)
                if out:
                    kids.extend(("cyl", alpha + (e,)) for e in out)
                else:
                    kids.append(("sp", alpha, u))
            self._children[key] = kids
        return kids

    def leaves(self, key: tuple, depth: int) -> list[tuple]:
        """The atoms at refinement depth `depth` inside `key`, in the order
        of a depth-first walk that visits the last child first."""
        if key[0] != "cyl" or len(key[1]) >= depth:
            return [key]
        got = self._leaves.get((key, depth))
        if got is None:
            got = [
                leaf
                for child in reversed(self.children(key))
                for leaf in self.leaves(child, depth)
            ]
            self._leaves[(key, depth)] = got
        return got

    def atoms(self, depth: int) -> list[tuple]:
        got = self._atoms.get(depth)
        if got is None:
            level: list[tuple] = [("cyl", (e,)) for e in self.range]
            level += [("sv", v) for v in self.out if self.is_sink(v)]
            got = sorted(
                (leaf for key in level for leaf in self.leaves(key, depth)),
                key=_atom_sort_key,
            )
            self._atoms[depth] = got
        return got

    def point(self, key: tuple) -> PathPoint:
        x = self._points.get(key)
        if x is None:
            x = self._points[key] = self._representative(key)
        return x

    def _representative(self, key: tuple) -> PathPoint:
        if key[0] == "sv":
            return SinkVertex(key[1])
        if key[0] == "sp":
            return SinkPath(key[1], key[2])
        alpha = key[1]
        ext: list[EdgeInst] = []
        seen: dict[EdgeInst, int] = {}
        rng = self.range[alpha[-1]]
        while True:
            candidates: list[EdgeInst] = []
            sink: Optional[VertexRef] = None
            for u in sorted(rng.vertices()):
                out = self.out.get(u)
                if out:
                    candidates.extend(out)
                else:
                    sink = sink or u
            if not candidates:
                if sink is None:
                    raise CertificateError("no edge and no sink continues the atom's path")
                return SinkPath(alpha + tuple(ext), sink)
            e = min(candidates, key=EdgeInst.sort_key)
            if e in seen:
                j = seen[e]
                return Infinite(
                    InfinitePathRep(alpha + tuple(ext[:j]), CycleTail(tuple(ext[j:])))
                )
            seen[e] = len(ext)
            ext.append(e)
            rng = self.range[e]


def _path_space(pres: UltragraphPresentation) -> _PathSpace:
    return pres.derived("path_space", _PathSpace)


def atoms(pres: UltragraphPresentation, depth: int) -> list[tuple]:
    """The canonical partition of X at a refinement depth m >= 1: one
    cylinder per length-m path, one singleton per shorter sink-pair, one
    singleton per isolated sink."""
    _require_finite(pres)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return list(_path_space(pres).atoms(depth))


def _atom_sort_key(key: tuple):
    if key[0] == "cyl":
        return (0, tuple(e.sort_key() for e in key[1]))
    if key[0] == "sp":
        return (1, tuple(e.sort_key() for e in key[1]), key[2])
    return (2, key[1])


def atom_point(pres: UltragraphPresentation, key: tuple) -> PathPoint:
    """A concrete representative of an atom."""
    return _path_space(pres).point(key)


def _point_atom(pres: UltragraphPresentation, x: PathPoint, depth: int) -> tuple:
    n = point_length(x)
    if n is None or n >= depth:
        return ("cyl", point_prefix(x, depth))
    if isinstance(x, SinkPath):
        return ("sp", x.alpha, x.v)
    if not isinstance(x, SinkVertex):
        raise ValueError(f"not a path point: {x!r}")
    return ("sv", x.v)


# -- the coefficient algebra D ---------------------------------------------


class DElement:
    """Function on X, constant on the atoms at a fixed refinement depth.

    Never mutated after construction: every operation returns a new
    element, so one element may be shared, as the memoized generator
    images are."""

    __slots__ = ("pres", "depth", "values")

    def __init__(self, pres: UltragraphPresentation, depth: int, values: dict):
        self.pres = pres
        self.depth = depth
        self.values = {k: c for k, c in values.items() if c != 0}

    @staticmethod
    def zero(pres: UltragraphPresentation, depth: int = 1) -> "DElement":
        return DElement(pres, depth, {})

    @staticmethod
    def from_indicator(
        pres: UltragraphPresentation, depth: int, member: Callable[[PathPoint], bool]
    ) -> "DElement":
        space = _path_space(pres)
        values = {key: 1 for key in space.atoms(depth) if member(space.point(key))}
        return DElement(pres, depth, values)

    def refine_to(self, depth: int) -> "DElement":
        if depth <= self.depth:
            return self
        space = _path_space(self.pres)
        values: dict = {}
        for key, c in self.values.items():
            for leaf in space.leaves(key, depth):
                values[leaf] = c
        return DElement(self.pres, depth, values)

    def _aligned(self, other: "DElement") -> tuple["DElement", "DElement"]:
        m = max(self.depth, other.depth)
        return self.refine_to(m), other.refine_to(m)

    def __add__(self, other: "DElement") -> "DElement":
        a, b = self._aligned(other)
        values = dict(a.values)
        for k, c in b.values.items():
            values[k] = values.get(k, 0) + c
        return DElement(self.pres, a.depth, values)

    def __mul__(self, other: "DElement") -> "DElement":
        a, b = self._aligned(other)
        values = {
            k: a.values[k] * b.values[k] for k in a.values.keys() & b.values.keys()
        }
        return DElement(self.pres, a.depth, values)

    def scale(self, c: Coeff) -> "DElement":
        return DElement(self.pres, self.depth, {k: c * v for k, v in self.values.items()})

    def __sub__(self, other: "DElement") -> "DElement":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DElement):
            return NotImplemented
        a, b = self._aligned(other)
        return a.values == b.values

    def __hash__(self):
        raise TypeError("DElement is unhashable")

    def is_zero(self) -> bool:
        return not self.values

    def eval_point(self, x: PathPoint) -> Coeff:
        return self.values.get(_point_atom(self.pres, x, self.depth), 0)

    def supported_in(self, t: FreeWord) -> bool:
        need = max(self.depth, _word_depth(t))
        refined = self.refine_to(need)
        space = _path_space(self.pres)
        return all(point_in_word(self.pres, space.point(k), t) for k in refined.values)

    def __repr__(self):
        return f"DElement(depth={self.depth}, {self.values!r})"


def _word_depth(t: FreeWord) -> int:
    split = t.positive_negative_split()
    if split is None or t.is_identity():
        return 1
    a, b = split
    if a and b:
        return len(a) + 1
    return max(1, len(a))


def indicator_word(pres: UltragraphPresentation, t: FreeWord) -> DElement:
    """1_t, the indicator of X_t."""
    _require_finite(pres)
    return DElement.from_indicator(
        pres, _word_depth(t), lambda x: point_in_word(pres, x, t)
    )


def indicator_vertex_set(pres: UltragraphPresentation, vset: VertexSet) -> DElement:
    """1_A, the indicator of {x : s(x) ∈ A}."""
    _require_finite(pres)
    return DElement.from_indicator(
        pres, 1, lambda x: point_in_vertex_set(pres, x, vset)
    )


def beta(pres: UltragraphPresentation, t: FreeWord, f: DElement) -> DElement:
    """β_t(f) = f ∘ θ_{t⁻¹}, for f supported in X_{t⁻¹}."""
    if t.is_identity():
        return f
    tinv = t.inverse()
    if not f.supported_in(tinv):
        raise NotInIdeal(f"the function is not supported in X_{tinv.label()}")
    split = t.positive_negative_split()
    if split is None:
        if f.is_zero():
            return DElement.zero(pres)
        raise NotInIdeal(f"X_{tinv.label()} is empty")
    a, b = split
    depth = max(1, len(a) + 1, len(a) + f.depth - len(b))

    def value(x: PathPoint) -> Coeff:
        if not point_in_word(pres, x, t):
            return 0
        return f.eval_point(theta(pres, tinv, x))

    space = _path_space(pres)
    values = {}
    for key in space.atoms(depth):
        c = value(space.point(key))
        if c != 0:
            values[key] = c
    return DElement(pres, depth, values)


# -- the skew product -------------------------------------------------------


class SkewElement:
    """Finite sum Σ f_t δ_t with f_t ∈ D_t.

    Never mutated after construction, like DElement."""

    __slots__ = ("pres", "comps")

    def __init__(self, pres: UltragraphPresentation, comps: dict):
        self.pres = pres
        self.comps = {t: f for t, f in comps.items() if not f.is_zero()}

    @staticmethod
    def zero(pres: UltragraphPresentation) -> "SkewElement":
        return SkewElement(pres, {})

    @staticmethod
    def of(pres: UltragraphPresentation, t: FreeWord, f: DElement) -> "SkewElement":
        return SkewElement(pres, {t: f})

    def __add__(self, other: "SkewElement") -> "SkewElement":
        comps = dict(self.comps)
        for t, f in other.comps.items():
            comps[t] = comps[t] + f if t in comps else f
        return SkewElement(self.pres, comps)

    def scale(self, c: Coeff) -> "SkewElement":
        return SkewElement(self.pres, {t: f.scale(c) for t, f in self.comps.items()})

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + other.scale(-1)

    def __mul__(self, other: "SkewElement") -> "SkewElement":
        return skew_multiply(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewElement):
            return NotImplemented
        keys = set(self.comps) | set(other.comps)
        zero = DElement.zero(self.pres)
        return all(
            self.comps.get(t, zero) == other.comps.get(t, zero) for t in keys
        )

    def __hash__(self):
        raise TypeError("SkewElement is unhashable")

    def is_zero(self) -> bool:
        return not self.comps

    def grading_tags(self) -> list[FreeWord]:
        return sorted(self.comps, key=lambda w: (len(w), w.label()))

    def check_supports(self) -> bool:
        return all(f.supported_in(t) for t, f in self.comps.items())

    def __repr__(self):
        bits = [f"({f!r}) d_{t.label()}" for t, f in self.comps.items()]
        return "SkewElement(" + " + ".join(bits) + ")" if bits else "SkewElement(0)"


def skew_multiply(u: SkewElement, v: SkewElement) -> SkewElement:
    """(f δ_g)(h δ_t) = β_g(β_{g⁻¹}(f)·h) δ_{gt}, extended bilinearly; each
    component is checked to land in its ideal."""
    pres = u.pres
    out = SkewElement.zero(pres)
    for g, f in u.comps.items():
        pulled = beta(pres, g.inverse(), f)
        for t, h in v.comps.items():
            prod = pulled * h
            if prod.is_zero():
                continue
            term = beta(pres, g, prod)
            gt = g * t
            if not term.supported_in(gt):
                raise CertificateError("skew product left its graded component")
            out = out + SkewElement.of(pres, gt, term)
    return out


# -- the isomorphism with the Leavitt path algebra --------------------------


def phi_image(pres: UltragraphPresentation, kind: str, payload) -> SkewElement:
    """Images of the generators: p_A ↦ 1_A δ₀, s_e ↦ 1_e δ_e,
    s_e* ↦ 1_{e⁻¹} δ_{e⁻¹}."""
    if kind == "p":
        return SkewElement.of(pres, FreeWord.identity(), indicator_vertex_set(pres, payload))
    if kind == "s":
        w = FreeWord([(payload, 1)])
        return SkewElement.of(pres, w, indicator_word(pres, w))
    if kind == "st":
        w = FreeWord([(payload, -1)])
        return SkewElement.of(pres, w, indicator_word(pres, w))
    raise ValueError(f"unknown generator kind {kind!r}")


def phi_of_element(pres: UltragraphPresentation, x) -> SkewElement:
    """Multiplicative extension of the generator images to any element of
    the symbolic algebra."""
    images = _GeneratorImages(pres, phi_image)
    return images.of_element(x)


class _GeneratorImages:
    """Generator-image map, injectable so tests can sabotage it.  Each
    image is computed once per (kind, payload) and shared for the map's
    lifetime."""

    def __init__(self, pres: UltragraphPresentation, image=phi_image):
        self.pres = pres
        self.image = image
        self._memo: dict[tuple, SkewElement] = {}

    def _of(self, kind: str, payload) -> SkewElement:
        got = self._memo.get((kind, payload))
        if got is None:
            got = self._memo[kind, payload] = self.image(self.pres, kind, payload)
        return got

    def p(self, vset: VertexSet) -> SkewElement:
        return self._of("p", vset)

    def s(self, e: EdgeInst) -> SkewElement:
        return self._of("s", e)

    def st(self, e: EdgeInst) -> SkewElement:
        return self._of("st", e)

    def of_monomial(self, alpha, vset, beta, coeff) -> SkewElement:
        out = None
        for e in alpha:
            out = self.s(e) if out is None else out * self.s(e)
        mid = self.p(vset)
        out = mid if out is None else out * mid
        for e in reversed(beta):
            out = out * self.st(e)
        return out.scale(coeff)

    def of_element(self, x) -> SkewElement:
        total = SkewElement.zero(self.pres)
        for (alpha, beta), pieces in x.terms.items():
            for c, vs in pieces:
                total = total + self.of_monomial(alpha, vs, beta, c)
        return total


def verify_generator_relations(
    pres: UltragraphPresentation, depth: int = 3, image=phi_image
) -> dict:
    """Check that the generator images satisfy the defining relations of
    the algebra, compared as functions at the given refinement depth."""
    _require_finite(pres)
    gen = _GeneratorImages(pres, image)
    edges = [EdgeInst(eid) for eid in sorted(pres.edges)]
    pool: list[VertexSet] = [VertexSet.of(v) for v in pres.all_vertices()]
    pool += [pres.edges[eid].range for eid in sorted(pres.edges)]
    pool.append(pres.g0_universe())
    failures: list[str] = []

    def eq(a: SkewElement, b: SkewElement) -> bool:
        ra = SkewElement(pres, {t: f.refine_to(depth) for t, f in a.comps.items()})
        rb = SkewElement(pres, {t: f.refine_to(depth) for t, f in b.comps.items()})
        return ra == rb

    # relation 1: the projections respect the set lattice
    rel1 = True
    if not eq(gen.p(VertexSet.empty()), SkewElement.zero(pres)):
        rel1 = False
        failures.append("p of the empty set is nonzero")
    for a_set in pool:
        for b_set in pool:
            lhs = gen.p(a_set) * gen.p(b_set)
            if not eq(lhs, gen.p(a_set.intersection(b_set))):
                rel1 = False
                failures.append("projection product disagrees with intersection")
            union = gen.p(a_set) + gen.p(b_set) - gen.p(a_set.intersection(b_set))
            if not eq(gen.p(a_set.union(b_set)), union):
                rel1 = False
                failures.append("projection sum disagrees with union")
    # relation 2: source/range absorption
    rel2 = True
    for e in edges:
        src = VertexSet.of(pres.edge_source(e))
        rng = pres.edge_range(e)
        se, st = gen.s(e), gen.st(e)
        if not (eq(gen.p(src) * se, se) and eq(se * gen.p(rng), se)):
            rel2 = False
            failures.append(f"absorption fails for s_{e.label()}")
        if not (eq(gen.p(rng) * st, st) and eq(st * gen.p(src), st)):
            rel2 = False
            failures.append(f"absorption fails for s_{e.label()}*")
    # relation 3: s_e* s_f = delta p_r(e)
    rel3 = True
    for e in edges:
        for f in edges:
            prod = gen.st(e) * gen.s(f)
            want = gen.p(pres.edge_range(e)) if e == f else SkewElement.zero(pres)
            if not eq(prod, want):
                rel3 = False
                failures.append(f"s_{e.label()}* s_{f.label()} incorrect")
    # relation 4: vertex splitting at regular vertices
    rel4 = True
    space = _path_space(pres)
    for v in pres.all_vertices():
        out_edges = space.out[v]
        if not out_edges:
            continue
        total = SkewElement.zero(pres)
        for e in out_edges:
            total = total + gen.s(e) * gen.st(e)
        if not eq(gen.p(VertexSet.of(v)), total):
            rel4 = False
            failures.append(f"vertex splitting fails at {v.label()}")
    return {
        "relation1": rel1,
        "relation2": rel2,
        "relation3": rel3,
        "relation4": rel4,
        "all_pass": rel1 and rel2 and rel3 and rel4,
        "failures": failures,
    }
