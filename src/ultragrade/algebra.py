"""Symbolic computation in the Leavitt path algebra of an ultragraph.

Elements are finite sums of monomials c·s_α p_A s_β*.  The normal form
keeps, for each path pair (α, β), a middle layer of disjoint vertex sets
with distinct coefficients (a Boolean-atom refinement of the occurring
sets), so syntactic equality decides equality modulo the purely
set-theoretic relations.  The vertex-splitting relation
p_v = Σ_{s(e)=v} s_e s_e* is applied only by explicit expansion or
contraction, never implicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .condition_y import _edge_successors, incoming_length_profile
from .errors import (
    CertificateError,
    MixedPresentation,
    NotFinite,
    NotFiniteEdges,
    NotHomogeneous,
    NotStronglyGraded,
    NotUnital,
    TermCountCap,
)
from .freegroup import FreeWord
from .lattice import is_unital
from .model import EdgeInst, UltragraphPresentation, VertexRef, VertexSet
from .structure import structural_report

TERM_COUNT_CAP = 10**4

Coeff = Union[int, Fraction]
Path = tuple


def _check_coeff(c) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be exact int or Fraction, got {type(c).__name__}")
    return c


def _atomize(pairs: list[tuple[Coeff, VertexSet]]) -> tuple:
    """Canonical middle layer: disjoint sets grouped by coefficient."""
    pairs = [(c, vs) for c, vs in pairs if c != 0 and not vs.is_empty()]
    if len(pairs) == 1:
        return tuple(pairs)  # one piece is its own atom
    by_coeff: dict[Coeff, VertexSet] = {}
    for atom, held in VertexSet.refine(vs for _, vs in pairs):
        total: Coeff = 0
        for i in held:
            total += pairs[i][0]
        if total != 0:
            by_coeff[total] = by_coeff.get(total, VertexSet.empty()).union(atom)
    return tuple(sorted(by_coeff.items(), key=lambda p: _vset_sort_key(p[1])))


def _normal_terms(raw: dict) -> dict:
    """The normal form of a raw sum, key -> pieces: each key's pieces
    atomized, and the keys whose pieces cancel dropped."""
    terms = {}
    for key, pieces in raw.items():
        canon = _atomize(pieces)
        if canon:
            terms[key] = canon
    return terms


def _vset_sort_key(vs: VertexSet):
    return tuple((fam, s.sort_key()) for fam, s in vs.parts)


class AlgebraElement:
    """A finite sum of monomials c·s_α p_A s_β*, kept in normal form.

    Invariant: every term is cut to its ranges, its middle set inside
    r(α[-1]) when α is nonempty and inside r(β[-1]) when β is, so that
    s_α p_A s_β* is never rewritten by s_e = s_e p_{r(e)}.  Every maker of
    elements keeps it: monomial cuts its middle; addition and scaling
    reuse the sets of terms that are cut; multiply combines cut terms into
    cut terms (proof in multiply), also when both factors have one term
    and the one product term is built directly; _atomize only splits sets
    into atoms inside them; the checks of verify_epsilon build s_e, s_e* and
    s_e p_{r(e)} s_e* with the middle r(e), and p_P with no path; and
    strong_factorization builds its monomials already cut, with the
    middle r(e) under e and {u} under paths into u (proof there), which
    verify_factorization re-checks."""

    __slots__ = ("pres", "terms", "_index")

    def __init__(self, pres: UltragraphPresentation, terms: dict):
        self.pres = pres
        self.terms = terms  # (alpha, beta) -> tuple[(coeff, VertexSet), ...]
        self._index = None  # _prefix_index per side, built on demand

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_raw(pres: UltragraphPresentation, raw: dict) -> "AlgebraElement":
        terms = _normal_terms(raw)
        if len(terms) > TERM_COUNT_CAP:
            raise TermCountCap(f"{len(terms)} terms exceed the cap {TERM_COUNT_CAP}")
        return AlgebraElement(pres, terms)

    @staticmethod
    def zero(pres: UltragraphPresentation) -> "AlgebraElement":
        return AlgebraElement(pres, {})

    @staticmethod
    def monomial(
        pres: UltragraphPresentation,
        alpha: Path,
        middle: VertexSet,
        beta: Path,
        coeff: Coeff = 1,
    ) -> "AlgebraElement":
        _check_coeff(coeff)
        alpha, beta = tuple(alpha), tuple(beta)
        for path in (alpha, beta):
            if not pres.is_path(path):
                raise ValueError(f"not a path: {' '.join(e.label() for e in path)}")
        vs = middle
        if alpha:
            vs = vs.intersection(pres.edge_range(alpha[-1]))
        if beta:
            vs = vs.intersection(pres.edge_range(beta[-1]))
        if vs.is_empty() or coeff == 0:
            return AlgebraElement.zero(pres)
        return AlgebraElement._from_raw(pres, {(alpha, beta): [(coeff, vs)]})

    @staticmethod
    def projection(pres: UltragraphPresentation, vset: VertexSet) -> "AlgebraElement":
        return AlgebraElement.monomial(pres, (), vset, ())

    @staticmethod
    def s(pres: UltragraphPresentation, path: Iterable[EdgeInst]) -> "AlgebraElement":
        path = tuple(path)
        if not path:
            raise ValueError("s() needs a nonempty path")
        return AlgebraElement.monomial(pres, path, pres.edge_range(path[-1]), ())

    @staticmethod
    def s_star(pres: UltragraphPresentation, path: Iterable[EdgeInst]) -> "AlgebraElement":
        path = tuple(path)
        if not path:
            raise ValueError("s_star() needs a nonempty path")
        return AlgebraElement.monomial(pres, (), pres.edge_range(path[-1]), path)

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.pres is not other.pres:
            raise MixedPresentation("elements belong to different presentations")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        raw: dict = {}
        for src in (self.terms, other.terms):
            for key, pairs in src.items():
                raw.setdefault(key, []).extend(pairs)
        return AlgebraElement._from_raw(self.pres, raw)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: Coeff) -> "AlgebraElement":
        _check_coeff(c)
        raw = {k: [(c * cc, vs) for cc, vs in pairs] for k, pairs in self.terms.items()}
        return AlgebraElement._from_raw(self.pres, raw)

    def __rmul__(self, c: Coeff) -> "AlgebraElement":
        return self.scale(c)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return multiply(self, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"AlgebraElement({pretty(self)})"


def _prefix_index(x: AlgebraElement, side: int) -> tuple[dict, dict]:
    """x's terms keyed by their path on one side (0: α, 1: β), and keyed by
    every proper prefix of that path; built once per element and side and
    dropped with the element."""
    if x._index is None:
        x._index = [None, None]
    index = x._index[side]
    if index is None:
        exact: dict = {}
        proper: dict = {}
        for term in x.terms.items():
            path = term[0][side]
            exact.setdefault(path, []).append(term)
            for k in range(len(path)):
                proper.setdefault(path[:k], []).append(term)
        index = x._index[side] = (exact, proper)
    return index


def _combine(pres: UltragraphPresentation, xt: tuple, yt: tuple) -> tuple[tuple, list]:
    """The key and the raw pieces of the product of a term of x and a term
    of y, (s_α · s_β*)(s_γ · s_δ*), whose inner paths β and γ are
    compatible: one is a prefix of the other."""
    (alpha, beta), xp = xt
    (gamma, delta), yp = yt
    nb, ng = len(beta), len(gamma)
    if nb == ng:
        return (alpha, delta), [(c * d, a_set.intersection(b_set)) for c, a_set in xp for d, b_set in yp]
    if nb < ng:
        rest = gamma[nb:]
        v = pres.edge_source(rest[0])
        return (alpha + rest, delta), [(c * d, b_set) for c, a_set in xp if a_set.member(v) for d, b_set in yp]
    rest = beta[ng:]
    v = pres.edge_source(rest[0])
    return (alpha, delta + rest), [(c * d, a_set) for d, b_set in yp if b_set.member(v) for c, a_set in xp]


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The product, paired through a prefix index of the larger factor.

    s_β* s_γ is zero unless one of β, γ is a prefix of the other, so only
    such pairs of terms (s_α · s_β*)(s_γ · s_δ*) contribute.  Walk the
    terms of the factor with fewer terms; say it is x, with inner path β
    (the case of y, with inner path γ, is the mirror image).  The y terms
    with γ a prefix of β are those whose γ equals one of the len(β) + 1
    prefixes of β, found in y's exact index; those with β a proper prefix
    of γ are listed under β in y's proper-prefix index.  The two cases
    are disjoint and cover every compatible pair, so each contributing
    pair is combined exactly once, and no other pair is looked at.

    When both factors have one term, as every pair of the strong-Z
    certificate has, no index is built: the one pair of terms is combined
    exactly when β and γ agree on the shorter of their lengths, that is
    when they are compatible.  A product with one piece is its own normal
    form, a nonzero coefficient (a product of nonzero ones) on a nonempty
    set; an empty set gives 0, and more pieces are atomized.

    Every combined term is already cut to its ranges, given that both
    factors are (AlgebraElement): with inner paths of equal length the
    middle is A ∩ B, A inside r(α[-1]) and B inside r(δ[-1]); when β is a
    proper prefix of γ = β ρ, the middle is B, inside r(γ[-1]) = r(ρ[-1])
    and r(δ[-1]); and the mirror case keeps A.  Empty middles are dropped
    by _atomize, or by the one-term case."""
    x._require_same(y)
    pres = x.pres
    if len(x.terms) == 1 == len(y.terms):
        ((xt,), (yt,)) = x.terms.items(), y.terms.items()
        beta, gamma = xt[0][1], yt[0][0]
        k = min(len(beta), len(gamma))
        if beta[:k] != gamma[:k]:
            return AlgebraElement(pres, {})
        key, pieces = _combine(pres, xt, yt)
        if len(pieces) != 1:
            return AlgebraElement._from_raw(pres, {key: pieces})
        return AlgebraElement(pres, {key: tuple(pieces)} if pieces[0][1].parts else {})
    raw: dict = {}

    def combine(xt, yt) -> None:
        key, pieces = _combine(pres, xt, yt)
        if pieces:
            raw.setdefault(key, []).extend(pieces)

    if len(x.terms) <= len(y.terms):
        exact, proper = _prefix_index(y, 0)
        for xt in x.terms.items():
            beta = xt[0][1]
            for k in range(len(beta) + 1):
                for yt in exact.get(beta[:k], ()):
                    combine(xt, yt)
            for yt in proper.get(beta, ()):
                combine(xt, yt)
    else:
        exact, proper = _prefix_index(x, 1)
        for yt in y.terms.items():
            gamma = yt[0][0]
            for k in range(len(gamma) + 1):
                for xt in exact.get(gamma[:k], ()):
                    combine(xt, yt)
            for xt in proper.get(gamma, ()):
                combine(xt, yt)
    return AlgebraElement._from_raw(pres, raw)


# -- degrees -------------------------------------------------------------


def z_degree(x: AlgebraElement) -> int:
    degrees = {len(a) - len(b) for a, b in x.terms}
    if len(degrees) > 1:
        raise NotHomogeneous(f"mixed z-degrees {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def f_degree(x: AlgebraElement) -> FreeWord:
    words = {
        FreeWord.from_path(a) * FreeWord.from_path(b, sign=-1) for a, b in x.terms
    }
    if len(words) > 1:
        raise NotHomogeneous("mixed free-group degrees")
    return words.pop() if words else FreeWord.identity()


def monomial_degrees(x: AlgebraElement) -> list[tuple[int, FreeWord]]:
    out = []
    for a, b in sorted(x.terms):
        out.append((len(a) - len(b), FreeWord.from_path(a) * FreeWord.from_path(b, sign=-1)))
    return out


# -- path enumeration ----------------------------------------------------


def edge_successors(pres: UltragraphPresentation) -> dict[EdgeInst, list[EdgeInst]]:
    """e ↦ the edges f with s(f) ∈ r(e), over a finite edge set, keys and
    lists in sorted edge-id order; built once per presentation."""
    if pres.edge_families:
        raise NotFiniteEdges("the edge set is infinite")
    return _edge_successors(pres)


def all_paths(pres: UltragraphPresentation, length: int) -> list[Path]:
    """The paths of the given length, in lexicographic edge-id order.  Each
    length is built once per presentation, by extending the paths one edge
    shorter through edge_successors; the caller gets a copy."""
    succ = edge_successors(pres)
    levels = pres.derived("paths_by_length", lambda _: [[()], [(e,) for e in succ]])
    while len(levels) <= length:
        levels.append([p + (f,) for p in levels[-1] for f in succ[p[-1]]])
    return list(levels[length])


# -- epsilon units -------------------------------------------------------


class EpsilonUnits(NamedTuple):
    """The units ε_n of all degrees n, over a finite edge set with a unit,
    as one finite certificate with no horizon.  R(l) is reached(l) and L
    the profile's settle length, so R(l) = R(L) for every l >= L.

    zero is ε_0 = p_V, V all vertices.

    n > 0: ε_n = Σ_{|α|=n} s_α p_{r(α)} s_α*.  Over the range types A, V
    and each r(e), put N(0, A) = p_A and N(k, A) = Σ_{s(e)∈A} s_e
    N(k − 1, r(e)) s_e* for k >= 1.  Then N(k, A) is the same sum over the
    paths α of length k with s(α) ∈ A, and ε_n = N(n, V).  `positive`
    maps each type A, V first, to its out-edges, the e with s(e) ∈ A, in
    id order: one node per type stands for every k, and an empty sum is
    0, so no length, root or height enters.

    n = −m < 0: put D(m, A) = p_{A∩R(m)} + Σ s_e D(m + 1, r(e)) s_e*, the
    sum over the e with s(e) ∈ A∖R(m), each m read as min(m, L); then
    ε_{−m} = D(m, V).  `negative` maps each nonzero node (m, A),
    1 <= m <= L, to (A ∩ R(m), children), the children the pairs
    (e, (min(m + 1, L), r(e))), in id order, whose node is nonzero.  A zero
    node is left out together with every pointer to it, and so is a zero
    root (m, V).  The proofs are in verify_epsilon."""

    zero: AlgebraElement
    positive: dict
    negative: dict


def _type_out_edges(pres: UltragraphPresentation) -> dict[VertexSet, tuple[EdgeInst, ...]]:
    """Each range type A, V first, with the edges whose source lies in A,
    in id order: every edge for V, and edge_successors(e) for r(e); built
    once per presentation."""

    def build(p: UltragraphPresentation) -> dict[VertexSet, tuple[EdgeInst, ...]]:
        succ = edge_successors(p)
        out = {p.g0_universe(): tuple(succ)}
        for e, nxt in succ.items():
            out.setdefault(p.edge_range(e), tuple(nxt))
        return out

    return pres.derived("type_out_edges", build)


def _relevance_bounds(pres: UltragraphPresentation) -> dict[EdgeInst, float]:
    """B(e) for each edge, in id order: the edge e begins the path part of
    a nonzero monomial of degree ±m, some path e … g of length j >= 1
    having r(g) meet reached(j + m), iff B(e) >= m.

    Let ind(u) be the largest depth of an edge whose range holds u, with
    depth None read as ∞.  reached(l) is the union of the ranges of the
    edges of depth at least l or None, so u is in reached(l) iff
    ind(u) >= l, and r(g) meets reached(j + m) iff R(g) >= j + m, where
    R(g) = max_{u∈r(g)} ind(u).  So e qualifies iff
    B(e) = sup over the paths e … g of (R(g) − |e … g|) is at least m.
    Splitting off the first edge gives
    B(e) = max(R(e), max_{f∈succ(e)} B(f)) − 1.  An edge of depth None
    has R at least its own depth, so B(e) = ∞ once e reaches one.
    Otherwise every edge that e reaches has a finite depth, one more at
    least along each step, so the paths from e are finitely many, the sup
    is a max, and the recursion, taken in decreasing depth, meets each
    successor first.  A finite depth is below the settle length L, so a
    finite B(e) is at most L − 2.  ind is read off the atoms of the ranges
    (VertexSet.refine), so an infinite range needs no listing."""
    depth = incoming_length_profile(pres).depth
    succ = edge_successors(pres)
    edges = list(succ)
    d = {e: math.inf if depth[e.name] is None else depth[e.name] for e in edges}
    top = dict.fromkeys(edges, 0)  # R(e)
    for _, held in VertexSet.refine(pres.edge_range(e) for e in edges):
        ind = max(d[edges[i]] for i in held)
        for i in held:
            top[edges[i]] = max(top[edges[i]], ind)
    bound: dict[EdgeInst, float] = {}
    for e in sorted(edges, key=d.__getitem__, reverse=True):
        b = top[e]
        if b != math.inf:
            b = max([b] + [bound[f] for f in succ[e]])
        bound[e] = b - 1
    return {e: bound[e] for e in edges}


def _unit_levels(pres: UltragraphPresentation) -> dict[EdgeInst, tuple[float, float]]:
    """(I(e), B(e)) for each edge e, in id order; built once per
    presentation.  I(e) is the largest depth of an edge f with s(e) in
    r(f), math.inf for depth None and 0 when s(e) lies in no range, so
    s(e) ∈ reached(m) iff m <= I(e): reached(m) is the union of the ranges
    of the edges of depth at least m or None (LengthProfile).  B(e) is
    _relevance_bounds'."""

    def build(p: UltragraphPresentation) -> dict[EdgeInst, tuple[float, float]]:
        depth = incoming_length_profile(p).depth
        succ = edge_successors(p)
        inward = dict.fromkeys(succ, 0)
        for f, nxt in succ.items():
            d = math.inf if depth[f.name] is None else depth[f.name]
            for e in nxt:
                inward[e] = max(inward[e], d)
        bound = _relevance_bounds(p)
        return {e: (inward[e], bound[e]) for e in succ}

    return pres.derived("unit_levels", build)


def _negative_node(pres: UltragraphPresentation, key: tuple) -> Optional[tuple]:
    """The node (m, A), 1 <= m <= L, by its rule: (A ∩ R(m), children), or
    None when it is zero.  The children are the pairs
    (e, (min(m + 1, L), r(e))) over the out-edges e of A, in id order,
    with I(e) < m <= B(e): s(e) lies outside R(m), and the child node is
    nonzero (proof in verify_epsilon)."""
    m, a = key
    profile = incoming_length_profile(pres)
    levels = _unit_levels(pres)
    below = min(m + 1, profile.settle)
    kids = tuple(
        (e, (below, pres.edge_range(e)))
        for e in _type_out_edges(pres)[a]
        if levels[e][0] < m <= levels[e][1]
    )
    head = a.intersection(profile.reached(m))
    if head.is_empty() and not kids:
        return None
    return head, kids


def epsilon_candidate(pres: UltragraphPresentation) -> EpsilonUnits:
    """The units of every degree: p_V, a copy of the type table, and the
    nodes D(m, A) that the roots (m, V), 1 <= m <= L, reach, each built
    once by its rule."""
    if pres.edge_families:
        raise NotFiniteEdges("epsilon units need a finite edge set")
    if not is_unital(pres):
        raise NotUnital("the algebra has no unit")
    universe = pres.g0_universe()
    negative: dict = {}
    work = [(m, universe) for m in range(incoming_length_profile(pres).settle, 0, -1)]
    while work:
        key = work.pop()
        if key not in negative:
            node = _negative_node(pres, key)
            if node is not None:
                negative[key] = node
                work.extend(child for _, child in node[1])
    zero = AlgebraElement.projection(pres, universe)
    return EpsilonUnits(zero, dict(_type_out_edges(pres)), negative)


def _edge_sum(pres: UltragraphPresentation, head: VertexSet, edges, star: bool) -> AlgebraElement:
    """p_head + Σ s_e over the edges, or p_head + Σ s_e* when star."""
    raw = {((), ()): [(1, head)]}
    for e in edges:
        raw[((), (e,)) if star else ((e,), ())] = [(1, pres.edge_range(e))]
    return AlgebraElement._from_raw(pres, raw)


def _is_unit_on(pres: UltragraphPresentation, level: AlgebraElement, head: VertexSet, edges) -> bool:
    """level y = y and y* level = y* for y = p_head + Σ s_e over the edges."""
    y, y_star = _edge_sum(pres, head, edges, False), _edge_sum(pres, head, edges, True)
    return multiply(level, y) == y and multiply(y_star, level) == y_star


def verify_epsilon(pres: UltragraphPresentation, units: EpsilonUnits) -> bool:
    """Whether units, in the shape epsilon_candidate builds, certifies that
    the ℤ-grading is epsilon-strong: ε_n must lie in L_n L_{−n}, be a left
    identity on the degree-n component and a right identity on the
    degree-(−n) component, for every n.

    What is checked.  ε_0 is p_V.  The type table is _type_out_edges:
    every type, with all of its out-edges in id order.  Each node of
    `negative` equals its rule (_negative_node), so it is nonzero, its set
    is A ∩ R(m) and its children are re-derived from the profile and the
    levels; each child it points at is listed, and the root (m, V) of
    each m <= L is listed unless its rule is zero.  Then the products:
    L(V) = Σ_e s_e p_{r(e)} s_e* must give L(V) S = S and S* L(V) = S*,
    S = Σ_e s_e over all edges; and once per distinct one-level element
    Λ = p_P + Σ_{children e} s_e p_{r(e)} s_e* of a node (m, A),
    P = A ∩ R(m), Λ (p_P + S_A) = p_P + K and (p_P + S_A*) Λ = p_P + K*,
    with S_A the sum of s_e over A's out-edges and K over the kept ones:
    those with s(e) ∈ P, that is m <= I(e), and the children.

    Batching by the free group.  The algebra is graded by the free group
    F on the edges, s_α p_A s_β* having degree α β⁻¹, and the normal form
    keeps the grading key by key: the key (α, β) has degree α β⁻¹, and
    multiply combines keys of degrees g and h into keys of degree g h.
    L(V) and Λ have degree 1, and p_P and the s_e have the distinct
    degrees 1 and e, so Λ (p_P + S_A) = p_P + K in normal form iff
    Λ p_P = p_P, Λ s_e = s_e for each kept e and Λ s_e = 0 for the other
    out-edges of A; the same holds on the other side through the degrees
    e⁻¹.  So each product stands for one identity per edge.  These
    identities follow from the relations s_f* s_e = δ_{fe} p_{r(e)},
    p_X s_e = s_e for s(e) ∈ X and 0 otherwise, p_X p_Y = p_{X∩Y} and
    s_e p_{r(e)} = s_e, with their adjoints, which the proofs below use;
    the products re-multiply in the normal form exactly the instances
    that the proofs use, so that the library's product agrees with them.

    Reduction to paths.  Every degree-n monomial, n > 0, left-factors as
    s_β w with |β| = n and w of degree 0, and every degree-(−n) monomial
    right-factors as w s_β*.  For m > 0, a monomial y = s_α p_X s_β* of
    degree −m has |β| = |α| + m and X ⊆ r(α) ∩ r(β), with
    r(β) ⊆ R(|α| + m), so y = x p_X s_β* for
    x = s_α p_{r(α)∩R(|α|+m)}, where α may be empty with r(()) = V; and a
    monomial of degree m is y* = s_β p_X x*.  So it is enough that
    ε_n s_β = s_β and s_β* ε_n = s_β* for every path β of length n, and
    c_m x = x and x* c_m = x* for every such x, c_m = ε_{−m}.  Membership:
    each term of ε_n is y y* with y = s_α p_{r(α)} of degree n; each term
    s_α p_X s_α* of D(m, V), X = r(α) ∩ R(|α| + m), is the sum of
    y_i y_i* for y_i = s_α p_{X_i} s_{β_i}* over pieces X_i of X, each in
    the range of a path β_i of length |α| + m; and ε_0 = p_V is the unit.

    Claim (n > 0): for every type A, k >= 1 and path β of length k with
    s(β) ∈ A, N(k, A) s_β = s_β and s_β* N(k, A) = s_β*.  By induction on
    k.  Write β = e β'; e is an out-edge of A, so A's list holds it.
    Since s_f* s_e = δ_{fe} p_{r(e)},
    N(k, A) s_β = s_e N(k − 1, r(e)) p_{r(e)} s_β'.  At k = 1 that is
    s_e p_{r(e)} s_e* s_e, the one term of L(V) s_e, checked to be s_e.
    At k > 1, p_{r(e)} s_β' = s_β' because s(β') ∈ r(e), and
    N(k − 1, r(e)) s_β' = s_β' by induction, so N(k, A) s_β = s_β.  The
    adjoint computation gives s_β* N(k, A) = s_β*, and A = V gives ε_n.

    D is well founded.  Follow child pointers from any node: the edges
    e_1, e_2, … met form a path, as the node of a child has type r(e_i)
    and its own children start in it; and each s(e_i) lies outside
    R(m_i) ⊇ R(L).  An edge of depth None ends paths of every length, so
    its range lies in R(L), and only the last edge of such a path can have
    depth None; the others have finite depths, below L and rising along
    the path.  So a chain of pointers has at most L edges: the recursion
    never goes around a cycle, and for m > L, D(m, A) = D(L, A), since
    R(m) = R(L).

    The dropped children are the zero ones.  D(m + 1, r(e)) is nonzero iff
    some path e … g of length j >= 1 has r(g) meeting R(m + j): the
    shortest such path has each source after e outside the R it is tested
    against, or a shorter one would do, so D expands along it to a nonzero
    term, and its terms, all with coefficient 1, are pairwise orthogonal
    projections, so none cancels.  That is B(e) >= m.  At the cap, a
    finite B(e) is at most L − 2, so B(e) >= L iff B(e) >= m for every
    m >= L, and the pointer to (L, r(e)) is right for every such m.

    Claim (n < 0): for every m >= 1, type A and x = s_α p_{r(α)∩R(|α|+m)},
    α a path with s(α) ∈ A or α = () with r(()) = A,
    D(m, A) x = x and x* D(m, A) = x*, every m read as min(m, L).  By
    induction on |α|.  D(m, A) = p_P + Σ_{children e} s_e D_e s_e*, with
    D_e = D(m + 1, r(e)) and p_{r(e)} D_e = D_e = D_e p_{r(e)}, as every
    path of D_e starts in r(e) and its set lies in r(e).
      * α = (): x = p_P.  A child e has s(e) ∉ P, so s_e* p_P = 0, and
        D(m, A) p_P = p_P p_P = p_P, which is Λ p_P = p_P.
      * α = e α' with s(e) ∈ P: no child is e, so D(m, A) s_e = p_P s_e =
        s_e, which is Λ s_e = s_e, and D(m, A) x = x.
      * e is a child: D(m, A) s_e = s_e D_e p_{r(e)} = s_e D_e, the
        identity Λ s_e = s_e with p_{r(e)} in place of D_e, and
        x = s_e x' with x' = s_α' p_{r(α')∩R(|α'|+m+1)}, where α' starts
        in r(e), or α' = () and x' = p_{r(e)∩R(m+1)}.  By induction
        D_e x' = x', so D(m, A) x = s_e x' = x.
      * otherwise s(e) ∉ R(m) and B(e) < m: no path e … g of length j
        has r(g) meeting R(m + j), so x = 0 = D(m, A) x.
    The adjoint computation gives x* D(m, A) = x*, and A = V gives c_m.
    """
    if pres.edge_families:
        raise NotFiniteEdges("epsilon verification needs a finite edge set")
    universe = pres.g0_universe()
    out = _type_out_edges(pres)
    if units.zero != AlgebraElement.projection(pres, universe) or units.positive != out:
        return False
    settle = incoming_length_profile(pres).settle
    nodes = units.negative
    if any((m, universe) not in nodes and _negative_node(pres, (m, universe)) for m in range(1, settle + 1)):
        return False
    for (m, a), node in nodes.items():
        if not 1 <= m <= settle or a not in out or node != _negative_node(pres, (m, a)):
            return False
        if any(child not in nodes for _, child in node[1]):
            return False
    rng = pres.edge_range
    edges = out[universe]
    level = AlgebraElement._from_raw(pres, {((e,), (e,)): [(1, rng(e))] for e in edges})
    if not _is_unit_on(pres, level, VertexSet.empty(), edges):
        return False
    levels = _unit_levels(pres)
    seen = set()
    for (m, a), (head, kids) in nodes.items():
        children = tuple(e for e, _ in kids)
        if (a, head, children) in seen:
            continue
        seen.add((a, head, children))
        raw = {((e,), (e,)): [(1, rng(e))] for e in children}
        raw[((), ())] = [(1, head)]
        level = AlgebraElement._from_raw(pres, raw)
        kept = [e for e in out[a] if m <= levels[e][0] or e in children]
        if not _is_unit_on(pres, level, head, kept):
            return False
    return True


# -- strong-grading factorization certificates ---------------------------


def _in_edge_map(pres: UltragraphPresentation) -> dict[VertexRef, list[EdgeInst]]:
    """Each vertex's in-edges in id order, from one pass over the edges in
    that order; built once per finite presentation."""

    def build(p: UltragraphPresentation) -> dict[VertexRef, list[EdgeInst]]:
        into: dict[VertexRef, list[EdgeInst]] = {}
        for eid in sorted(p.edges):
            e = EdgeInst(eid)
            for u in p.edges[eid].range.vertices():
                into.setdefault(u, []).append(e)
        return into

    return pres.derived("in_edge_map", build)


def _replacement_path(pres: UltragraphPresentation, u: VertexRef, length: int) -> Path:
    """A path of the given length with u in its last range, read off the
    length profile: walking back from u, at each step k = length, ..., 1
    take the first in-edge in id order that ends a path of length k, one of
    depth at least k or None (LengthProfile), and move to its source.

    The walk never gets stuck once it starts: if e ends a path of length
    k > 1, the first k − 1 edges of that path have s(e) in their last
    range, so some in-edge of s(e) ends a path of length k − 1.  So it
    raises CertificateError exactly when u is not in reached(length).  It
    takes the path that a depth-first search over the in-edges in id order
    takes first, since an edge e with source w ends a path of length k iff
    w is in reached(k − 1)."""
    depth = incoming_length_profile(pres).depth
    into = _in_edge_map(pres)
    tau: list[EdgeInst] = []
    w = u
    for k in range(length, 0, -1):
        for e in into.get(w, ()):
            d = depth[e.name]
            if d is None or d >= k:
                break
        else:
            raise CertificateError(f"no replacement path of length {length} into {u.label()}")
        tau.append(e)
        w = pres.edge_source(e)
    return tuple(reversed(tau))


def strong_factorization(
    pres: UltragraphPresentation, v: VertexRef, n: int
) -> list[tuple[AlgebraElement, AlgebraElement]]:
    """Pairs (aᵢ, bᵢ) of degree (n, −n) with Σ aᵢbᵢ = p_v, for n = ±1.

    For n = 1 the pairs are s_e, s_e* over the out-edges e of v.  For
    n = −1, p_v is expanded along the paths γ out of v.  A branch
    (γ, u), with u in the last range of γ (u = v at γ = ()), closes when u
    is in reached(|γ| + 1), with the pair s_γ p_u s_τ*, s_τ p_u s_γ* for
    the replacement path τ of _replacement_path; otherwise p_u is split
    over the out-edges of u, which is no sink.  So a vertex in some range
    closes at γ = () with its first in-edge, and only a source expands.
    reached(1) is the union of all ranges, so at γ = () the test asks the
    in-edge map, and reached is built only once a source expands.

    Every branch closes by |γ| = S, the profile's settle length: for
    |γ| >= 1, γ is a path into u, so u is in reached(|γ|), and
    reached(l) = reached(S) for every l >= S; at |γ| = S that gives
    u in reached(S + 1).  The ultragraph is finite, so each split has
    finitely many branches, and the expansion ends without a cap.

    Each pair is a monomial and its adjoint, built already cut, not
    through monomial: the middle of s_e and s_e* is r(e), and the middle
    {u} of a closing pair lies in r(γ[-1]), as the branch took u from that
    range, and in r(τ[-1]), as τ is a path into u.  verify_factorization
    re-checks both, and that γ and τ are paths."""
    if n not in (1, -1):
        raise ValueError("n must be 1 or -1")
    if not pres.is_finite:
        raise NotFinite("factorization certificates need a finite ultragraph")
    report = structural_report(pres)
    if report.has_sinks or not report.row_finite:
        raise NotStronglyGraded("the algebra is not strongly graded")
    out = pres.out_edge_map()

    def with_adjoint(alpha: Path, beta: Path, middle: VertexSet) -> tuple[AlgebraElement, AlgebraElement]:
        piece = ((1, middle),)
        return AlgebraElement(pres, {(alpha, beta): piece}), AlgebraElement(pres, {(beta, alpha): piece})

    if n == 1:
        return [with_adjoint((e,), (), pres.edge_range(e)) for e in out[v]]
    profile = incoming_length_profile(pres)
    into = _in_edge_map(pres)
    pairs = []
    work: list[tuple[Path, VertexRef]] = [((), v)]
    while work:
        gamma, u = work.pop()
        if profile.reached(len(gamma) + 1).member(u) if gamma else u in into:
            tau = _replacement_path(pres, u, len(gamma) + 1)
            pairs.append(with_adjoint(gamma, tau, VertexSet.of(u)))
            continue
        for e in out[u]:
            for u2 in pres.edge_range(e).vertices():
                work.append((gamma + (e,), u2))
    return pairs


def _is_cut_monomial(pres: UltragraphPresentation, x: AlgebraElement, degree: int, paths: set) -> bool:
    """Whether every term s_α p_A s_β* of x has z-degree `degree`, paths α
    and β, and A inside r(α[-1]) and r(β[-1]): a term that monomial keeps
    as it is.  `paths` holds the paths already found to be paths."""
    for (alpha, beta), pieces in x.terms.items():
        if len(alpha) - len(beta) != degree:
            return False
        for path in (alpha, beta):
            if not path:
                continue
            if path not in paths:
                if not pres.is_path(path):
                    return False
                paths.add(path)
            last = pres.edge_range(path[-1])
            if any(vs is not last and not vs.subset_of(last) for _, vs in pieces):
                return False
    return True


def verify_factorization(
    pres: UltragraphPresentation,
    pairs_by_vertex: dict[VertexRef, list[tuple[AlgebraElement, AlgebraElement]]],
    n: int,
) -> bool:
    """Whether Σᵢ aᵢbᵢ = p_v for every listed vertex v over its pairs, each
    aᵢ of degree n and bᵢ of degree −n, checked for all the vertices at
    once: one product per pair, one normal form of the sum of all the
    products, and one contraction of that sum to p_W, W the listed
    vertices.

    What is checked.  Every term of aᵢ and bᵢ has the z-degree claimed,
    paths on both sides, and its middle inside their last ranges
    (_is_cut_monomial): the pairs are built directly, so the checker tests
    what monomial would.  Every term of the product aᵢbᵢ of a pair listed
    under v lies under v: s(α₁) = s(β₁) = v, or the key is ((), ()) with
    middle {v}.  The sum T of all products is then contracted from its
    longest paths down by vertex splitting,
    Σ_{s(e)=u} s_{γe} p_{r(e)} s_{γe}* → s_γ p_u s_γ*: every term of the
    current length must be s_{γe} p_{r(e)} s_{γe}* with coefficient 1, the
    terms with the same γ and u = s(e), whose edges e are distinct
    out-edges of u, must be as many as u's out-edges, and each such group
    is replaced by its contraction one length down.  What is
    left at length 0 must be p_W.  Each step is an identity of the
    algebra (u is a finite emitter and no sink once it has a group), so
    acceptance proves Σᵢ aᵢbᵢ = p_v; it is complete for the certificates
    of strong_factorization, whose products are the leaves of the
    expansion.

    Why one sum decides every vertex.  A term under v is fixed by
    x ↦ p_v x p_v, and a term under w ≠ v is sent to 0, since
    p_v p_w = 0.  So that map recovers from T each vertex's own sum
    T_v = Σᵢ aᵢbᵢ over v's pairs, and in the normal form it does so key by
    key: a key with nonempty paths is under the vertex s(α₁), and the
    piece of the key ((), ()) on {v} has v's coefficient in T_v, as the
    pieces {v} of distinct vertices are disjoint.  A contraction turns a
    group under v into one term under v, so the run on T, kept to the keys
    under v, is the run on T_v, with the lengths at which T_v has no terms
    passing over it unchanged.  Every test looks at one term or one group,
    each under one vertex, and p_W kept to v is p_v.  So the call accepts
    exactly when the call {v: pairs} accepts for every listed v.

    Cost.  One product per pair and one sum per degree: each product's
    terms are poured into one raw sum that is normalized once, and each
    term of the sum, and each contracted term, is looked at once, at its
    length.  The sum has as many keys as all the products together, up to
    |E| for degree 1, more than any one vertex's sum; its size is bounded
    by the certificate that was built, so TERM_COUNT_CAP does not apply."""
    raw: dict = {}
    paths: set = set()
    for v, pairs in pairs_by_vertex.items():
        own = None  # {v}, built when a product has the key ((), ())
        for a, b in pairs:
            if not (_is_cut_monomial(pres, a, n, paths) and _is_cut_monomial(pres, b, -n, paths)):
                return False
            for (alpha, beta), pieces in multiply(a, b).terms.items():
                if alpha or beta:
                    if not (alpha and beta and pres.edge_source(alpha[0]) == v == pres.edge_source(beta[0])):
                        return False
                else:
                    if own is None:
                        own = VertexSet.of(v)
                    if any(vs != own for _, vs in pieces):
                        return False
                raw.setdefault((alpha, beta), []).extend(pieces)
    by_length: dict[int, dict] = {}
    for (alpha, beta), pieces in _normal_terms(raw).items():
        if alpha != beta:
            return False
        by_length.setdefault(len(alpha), {})[alpha, beta] = pieces
    out = pres.out_edge_map()
    for length in range(max(by_length, default=0), 0, -1):
        groups: dict[tuple[Path, VertexRef], int] = {}
        for (alpha, _), pieces in by_length.pop(length, {}).items():
            last = alpha[-1]
            if pieces != ((1, pres.edge_range(last)),):
                return False
            key = (alpha[:-1], pres.edge_source(last))
            groups[key] = groups.get(key, 0) + 1
        below = by_length.setdefault(length - 1, {})
        heads: dict[Path, list[VertexRef]] = {}
        for (gamma, u), count in groups.items():
            if count != len(out[u]):
                return False
            heads.setdefault(gamma, []).append(u)
        for gamma, us in heads.items():
            # the heads of one γ are distinct, so their p_u add up to p of their set
            key = (gamma, gamma)
            pieces = _atomize([*below.get(key, ()), (1, VertexSet.of(*us))])
            if pieces:
                below[key] = pieces
            else:
                below.pop(key, None)
    # p_W in normal form: one piece, or no term when W is empty
    w = VertexSet.of(*pairs_by_vertex)
    return by_length.get(0, {}) == ({((), ()): ((1, w),)} if w.parts else {})


# -- printing ------------------------------------------------------------


def pretty(x: AlgebraElement) -> str:
    """The terms in order of path lengths, then paths; each distinct vertex
    set and each distinct path is labelled once per presentation."""
    from .model import _print_vset

    if not x.terms:
        return "0"
    labels = x.pres.derived("vset_labels", lambda _: {})
    path_labels = x.pres.derived("path_labels", lambda _: {})

    def path_label(path: Path) -> str:
        label = path_labels.get(path)
        if label is None:
            label = path_labels[path] = " ".join(e.label() for e in path)
        return label

    keys = sorted(x.terms, key=lambda k: (len(k[0]), len(k[1]), k)) if len(x.terms) > 1 else x.terms
    chunks: list[str] = []
    for alpha, beta in keys:
        for c, vs in x.terms[(alpha, beta)]:
            label = labels.get(vs)
            if label is None:
                label = labels[vs] = _print_vset(x.pres, vs)
            bits: list[str] = []
            if c != 1:
                bits.append(str(c))
            if alpha:
                bits.append("s(" + path_label(alpha) + ")")
            bits.append("p{" + label + "}")
            if beta:
                bits.append("st(" + path_label(beta) + ")")
            chunks.append(" ".join(bits))
    return " + ".join(chunks)


def pretty_units(pres: UltragraphPresentation, units: EpsilonUnits) -> tuple[dict[str, str], dict[str, str]]:
    """The printed units and nodes.  Degree 0 maps to its element, every
    n >= 1 to N(n, V), each −m with m < L to D(m, V), and all −m with
    m >= L together, under "<= −L", to D(L, V); a root that is not listed
    prints as 0.  Each type A is printed once, under its name V or r(e),
    for the first edge e in id order with range A, as N(k, A) =
    Σ s(e) N(k-1, r(e)) st(e) over its out-edges, or 0 when it has none,
    next to the base N(0, A) = p{A}.  Each node D(m, A) is printed once,
    as p{A ∩ R(m)} + Σ s(e) D(m', r(e)) st(e), an empty set left out."""
    from .model import _print_vset

    def build(p: UltragraphPresentation) -> dict[VertexSet, str]:
        labels = {}
        for e in edge_successors(p):
            labels.setdefault(p.edge_range(e), f"r({e.label()})")
        labels[p.g0_universe()] = "V"
        return labels

    labels = pres.derived("type_labels", build)

    def name(key: tuple) -> str:
        return f"D({key[0]}, {labels[key[1]]})"

    settle = incoming_length_profile(pres).settle
    universe = pres.g0_universe()
    printed = {}
    for m in range(1, settle + 1):
        root = (m, universe)
        printed[str(-m) if m < settle else f"<= -{m}"] = name(root) if root in units.negative else "0"
    printed["0"] = pretty(units.zero)
    printed[">= 1"] = "N(n, V)"
    nodes = {"N(0, A)": "p{A}"}
    for a, edges in units.positive.items():
        nodes[f"N(k, {labels[a]})"] = " + ".join(
            f"s({e.label()}) N(k-1, {labels[pres.edge_range(e)]}) st({e.label()})" for e in edges
        ) or "0"
    for key, (head, kids) in units.negative.items():
        bits = [] if head.is_empty() else ["p{" + _print_vset(pres, head) + "}"]
        bits += [f"s({e.label()}) {name(child)} st({e.label()})" for e, child in kids]
        nodes[name(key)] = " + ".join(bits)
    return printed, nodes
