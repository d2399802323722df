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


def _vset_sort_key(vs: VertexSet):
    return tuple((fam, s.sort_key()) for fam, s in vs.parts)


class AlgebraElement:
    __slots__ = ("pres", "terms", "_index")

    def __init__(self, pres: UltragraphPresentation, terms: dict):
        self.pres = pres
        self.terms = terms  # (alpha, beta) -> tuple[(coeff, VertexSet), ...]
        self._index = None  # _prefix_index per side, built on demand

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_raw(pres: UltragraphPresentation, raw: dict) -> "AlgebraElement":
        terms = {}
        for key, pairs in raw.items():
            canon = _atomize(pairs)
            if canon:
                terms[key] = canon
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
    pair is combined exactly once, and no other pair is looked at."""
    x._require_same(y)
    pres = x.pres
    raw: dict = {}

    def add(alpha: Path, beta: Path, vs: VertexSet, c: Coeff) -> None:
        if alpha:
            vs = vs.intersection(pres.edge_range(alpha[-1]))
        if beta:
            vs = vs.intersection(pres.edge_range(beta[-1]))
        if not vs.is_empty():
            raw.setdefault((alpha, beta), []).append((c, vs))

    def combine(xt, yt) -> None:
        (alpha, beta), xp = xt
        (gamma, delta), yp = yt
        nb, ng = len(beta), len(gamma)
        if nb == ng:
            for c, a_set in xp:
                for d, b_set in yp:
                    add(alpha, delta, a_set.intersection(b_set), c * d)
        elif nb < ng:
            rest = gamma[nb:]
            v = pres.edge_source(rest[0])
            for c, a_set in xp:
                if not a_set.member(v):
                    continue
                for d, b_set in yp:
                    add(alpha + rest, delta, b_set, c * d)
        else:
            rest = beta[ng:]
            v = pres.edge_source(rest[0])
            for d, b_set in yp:
                if not b_set.member(v):
                    continue
                for c, a_set in xp:
                    add(alpha, delta + rest, a_set, c * d)

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


Node = tuple  # (k, A): a path length k and a range type A


class EpsilonUnits(NamedTuple):
    """The candidate units ε_n of every degree |n| <= h, h = len(roots).
    negative[m − 1] is c_m, the unit of degree −m, and zero is ε_0.

    The positive units ε_n = Σ_{|α|=n} s_α p_{r(α)} s_α* share one table
    of nodes N(k, A) = Σ_{|α|=k, s(α)∈A} s_α p_{r(α)} s_α*, so that
    N(k, A) = Σ_{s(e)∈A} s_e N(k − 1, r(e)) s_e*, N(0, A) = p_A and
    ε_n = N(n, V).  A node is keyed by (k, A), where the range type A is
    V, all vertices, or some r(e).  `nodes` maps (0, A) to the set A of
    p_A, and (k, A), k >= 1, to its children: the pairs (e, (k − 1, r(e)))
    in edge-id order.  A node with no path of length k out of A is zero,
    and it is left out together with the children that would point at
    it, so each root expands to the path-by-path sum term for term.
    roots[n − 1] is (n, V), or None when ε_n = 0, and the table holds the
    nodes that the roots reach."""

    negative: tuple
    zero: AlgebraElement
    roots: tuple
    nodes: dict


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


def _type_heights(pres: UltragraphPresentation) -> dict[VertexSet, float]:
    """H(A), the most edges on a path out of A (one with s(α) ∈ A), for
    each range type A, or math.inf when such paths are arbitrarily long;
    built once per presentation.  Level k keeps the types that a path of
    length k leaves: level 0 keeps them all, and level k + 1 those with an
    edge e out of them whose r(e) level k keeps.  The levels only shrink,
    since a path of length k + 1 starts with one of length k, so H(A) is
    the last level that keeps A, and a level equal to the one before it
    keeps its types at every length."""

    def build(p: UltragraphPresentation) -> dict[VertexSet, float]:
        out = _type_out_edges(p)
        height: dict[VertexSet, float] = {}
        live, k = set(out), 0
        while live:
            kept = {a for a in live if any(p.edge_range(e) in live for e in out[a])}
            if kept == live:
                height.update(dict.fromkeys(live, math.inf))
                break
            height.update(dict.fromkeys(live - kept, k))
            live, k = kept, k + 1
        return height

    return pres.derived("type_heights", build)


def epsilon_candidate(pres: UltragraphPresentation, horizon: int) -> EpsilonUnits:
    """The candidate units of every degree |n| <= horizon: c_m =
    p_{reached(m)} for n = −m, since the last ranges of the paths of
    length m cover what they reach, p_V at n = 0, and for n > 0 the roots
    (n, V) of one node table.  N(k, A) is nonzero iff a path of length k
    leaves A, iff k <= H(A).  The units are built from degree −horizon
    up."""
    if pres.edge_families:
        raise NotFiniteEdges("epsilon units need a finite edge set")
    if horizon < 0:
        raise ValueError(f"the horizon must be at least 0, got {horizon}")
    if not is_unital(pres):
        raise NotUnital("the algebra has no unit")
    profile = incoming_length_profile(pres)
    negative = [AlgebraElement.projection(pres, profile.reached(m)) for m in range(horizon, 0, -1)]
    universe = pres.g0_universe()
    zero = AlgebraElement.projection(pres, universe)
    out, height = _type_out_edges(pres), _type_heights(pres)
    roots = tuple((n, universe) if height[universe] >= n else None for n in range(1, horizon + 1))
    nodes: dict = {}
    for root in roots:
        work = [root] if root is not None else []
        while work:
            key = work.pop()
            if key in nodes:
                continue
            k, a = key
            if k == 0:
                nodes[key] = a
                continue
            kids = tuple(
                (e, (k - 1, pres.edge_range(e))) for e in out[a] if height[pres.edge_range(e)] >= k - 1
            )
            nodes[key] = kids
            work.extend(child for _, child in kids)
    return EpsilonUnits(tuple(reversed(negative)), zero, roots, nodes)


def _range_tops(pres: UltragraphPresentation) -> dict[VertexSet, float]:
    """Each distinct range r, in the order of the first edge id that has
    it, with T(r), the largest depth of an edge with range r, math.inf for
    depth None.  An edge ends a path of length m iff its depth is at least
    m or None (LengthProfile), so r is the last range of a path of length
    m >= 1 iff m <= T(r), and the paths themselves are never listed."""
    depth = incoming_length_profile(pres).depth
    top: dict[VertexSet, float] = {}
    for eid in sorted(depth):
        d = math.inf if depth[eid] is None else depth[eid]
        rng = pres.edges[eid].range
        top[rng] = max(top.get(rng, 0), d)
    return top


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
    successor first.  ind is read off the atoms of the ranges
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


def _degree_one(x: AlgebraElement) -> bool:
    """Whether x is homogeneous of degree 1 in the free-group grading."""
    try:
        return f_degree(x).is_identity()
    except NotHomogeneous:
        return False


def _edge_sums(pres: UltragraphPresentation, edges: list[EdgeInst]):
    """(Σ s_e, Σ s_e*) over the edges, in pieces of at most
    TERM_COUNT_CAP edges."""
    step = max(TERM_COUNT_CAP, 1)
    rng = pres.edge_range
    for i in range(0, len(edges), step):
        part = edges[i : i + step]
        yield (
            AlgebraElement._from_raw(pres, {((e,), ()): [(1, rng(e))] for e in part}),
            AlgebraElement._from_raw(pres, {((), (e,)): [(1, rng(e))] for e in part}),
        )


def verify_epsilon(pres: UltragraphPresentation, units: EpsilonUnits) -> Optional[int]:
    """Check the candidate units of every degree |n| <= h, h =
    len(units.roots): ε_n must be a left identity on the degree-n
    component and a right identity on the degree-(−n) component.  Returns
    None when every check passes, and otherwise the first degree that
    fails in the order −h, …, −1, 0, 1, …, h; the node table and the
    heights serve every positive degree, so a failure in them is
    reported at degree 1.

    Reduction to finitely many checks: every degree-n monomial (n > 0)
    left-factors as s_γ·w and every degree-(−n) monomial right-factors as
    w·s_γ* with |γ| = n and w of degree 0, so it is enough that
    ε_n s_β = s_β and s_β* ε_n = s_β* for every path β of length n.  For
    n = −m < 0 the factorizations bottom out in p_{r(δ)} blocks (|δ| = m)
    and single s_e / s_e* letters for the edges that begin such
    monomials: c_m p_r = p_r = p_r c_m for each last range r of a path of
    length m, and c_m s_e = s_e and s_e* c_m = s_e* for each edge e with
    B(e) >= m (_relevance_bounds).  At n = 0 it is enough that
    ε_0 x = x = x ε_0 for x = p_V, s_e and s_e*, for every edge e.

    Batching by the free group.  The algebra is graded by the free group
    F on the edges, s_α p_A s_β* having degree α β⁻¹, and the normal form
    keeps the grading key by key: the key (α, β) has degree α β⁻¹, and
    multiply combines keys of degrees g and h into keys of degree g h.  If
    u has degree 1 (α = β in every term; f_degree) and S = Σ s_e over
    distinct edges, the terms of S have the distinct degrees e, the
    component of degree e of u S is u s_e, and keys of different degrees
    differ, so u S = S in normal form iff u s_e = s_e for every e.  The
    same holds for S u, and for u S* and S* u through the degrees e⁻¹.
    So one product with S stands for one product per edge.  The sums are
    cut into pieces of at most TERM_COUNT_CAP edges (_edge_sums), so only
    L(V) below, with one term per edge, can exceed the cap, and it is
    built by the checks of degree 1.

    n = 0: ε_0 must have degree 1, and six products check it against
    p_V, S = Σ_e s_e and S* on either side.

    n < 0: each c_m must have degree 1, and the units must form a chain,
    c_m c_{m+1} = c_{m+1} = c_{m+1} c_m for m < h.  A range r is the
    last range of a path of length m iff m <= T(r) (_range_tops), and
    an edge e is tested at m iff m <= B(e), so the degrees at which
    either is tested are downward closed.  So each distinct range r is
    tested once, at its top degree t = min(T(r), h), and the edges once,
    batched by their top degree min(B(e), h).  That gives every
    per-degree identity: for m < t the chain gives c_m c_t = c_t and
    c_t c_m = c_t, by induction on t − m, since
    c_m c_t = (c_m c_{m+1}) c_t = c_{m+1} c_t and
    c_t c_m = c_t (c_{m+1} c_m) = c_t c_{m+1}.  So for x = p_r or s_e,
    c_m x = c_m (c_t x) = c_t x = x, and for x = p_r or s_e*,
    x c_m = (x c_t) c_m = x c_t = x.  The candidates of
    epsilon_candidate, c_m = p_{reached(m)}, always pass the chain, as
    reached(m + 1) ⊆ reached(m), and the range tests, as r ⊆ reached(t).
    So their check fails at −t only on an edge e of top degree t with
    s(e) outside reached(t), and as reached shrinks when m grows, −t is
    the first degree at which the per-degree identities fail.

    n > 0: the node table is checked once for all degrees.  The heights
    are checked against H(A) = max_{s(e)∈A} (1 + H(r(e))), 0 when no edge
    leaves A.  Nothing else solves these equations: by induction on the
    true H where it is finite, and a cycle of types A → r(e) is a cycle of
    edges, around which a finite value would exceed itself.  The root of
    degree n is (n, V), or None exactly when no path of length n exists,
    and it is listed.  A node (0, A) is p_A; a node (k, A), k >= 1, has as
    children exactly the edges e with s(e) ∈ A whose node (k − 1, r(e)) is
    nonzero, in id order, each pointing at that node, which is listed.  A
    node (k, A) is nonzero iff k <= H(A) (_type_heights).  Then, once per
    range type A, the one-level element L(A) = Σ_{s(e)∈A} s_e p_{r(e)} s_e*
    must give L(A) S_A = S_A and S_A* L(A) = S_A*, where S_A = Σ s_e over
    the children e of the nodes (k, A).  L(A) has degree 1, so by the
    batching this is L(A) s_e = s_e and s_e* L(A) = s_e* for each child e.

    Claim: for every listed node (k, A), k >= 1, and every path β of
    length k with s(β) ∈ A, N(k, A) s_β = s_β and s_β* N(k, A) = s_β*.
    By induction on k.  Write β = e β'.  Then s(e) ∈ A, and β' is a path
    of length k − 1 out of r(e), so (k − 1, r(e)) is nonzero and e is a
    child.  Since s_f* s_e = δ_{fe} p_{r(e)},
    N(k, A) s_β = s_e N(k − 1, r(e)) p_{r(e)} s_β'.  At k = 1, β' is
    empty and every e out of A is a child, so N(1, A) = L(A), and the
    claim is the checked L(A) s_e = s_e.  At k > 1, p_{r(e)} s_β' = s_β'
    because s(β') ∈ r(e), and N(k − 1, r(e)) s_β' = s_β' by induction,
    so N(k, A) s_β = s_e s_β' = s_β.  The adjoint computation gives
    s_β* N(k, A) = s_β*.  At the root (n, V) that is the reduction above.
    """
    if pres.edge_families:
        raise NotFiniteEdges("epsilon verification needs a finite edge set")
    horizon = len(units.roots)
    if len(units.negative) != horizon:
        raise ValueError("the negative and the positive units cover different horizons")
    failed = _verify_negative_units(pres, units.negative)
    if failed is not None:
        return failed
    edges = list(map(EdgeInst, sorted(pres.edges)))
    gens = [AlgebraElement.projection(pres, pres.g0_universe())]
    gens += [x for pair in _edge_sums(pres, edges) for x in pair]
    unit = units.zero
    if not _degree_one(unit) or any(multiply(unit, g) != g or multiply(g, unit) != g for g in gens):
        return 0
    if horizon:
        return _verify_unit_table(pres, units.roots, units.nodes)
    return None


def _verify_negative_units(pres: UltragraphPresentation, negative: tuple) -> Optional[int]:
    """The checks of verify_epsilon for n < 0, from n = −h up."""
    horizon = len(negative)
    ranges_at: dict[int, list[VertexSet]] = {}
    for rng, top in _range_tops(pres).items():
        ranges_at.setdefault(min(top, horizon), []).append(rng)
    edges_at: dict[int, list[EdgeInst]] = {}
    for e, bound in pres.derived("relevance_bounds", _relevance_bounds).items():
        if bound >= 1:
            edges_at.setdefault(min(bound, horizon), []).append(e)
    for m in range(horizon, 0, -1):
        unit = negative[m - 1]
        if not _degree_one(unit):
            return -m
        if m < horizon:
            below = negative[m]
            if multiply(unit, below) != below or multiply(below, unit) != below:
                return -m
        for rng in ranges_at.get(m, ()):
            proj = AlgebraElement.projection(pres, rng)
            if multiply(unit, proj) != proj or multiply(proj, unit) != proj:
                return -m
        for s, st in _edge_sums(pres, edges_at.get(m, [])):
            if multiply(unit, s) != s or multiply(st, unit) != st:
                return -m
    return None


def _verify_unit_table(pres: UltragraphPresentation, roots: tuple, nodes: dict) -> Optional[int]:
    """The checks of verify_epsilon for n > 0."""
    out, height = _type_out_edges(pres), _type_heights(pres)
    rng = pres.edge_range
    if any(height[a] != max((1 + height[rng(e)] for e in es), default=0) for a, es in out.items()):
        return 1
    universe = pres.g0_universe()
    for n, root in enumerate(roots, 1):
        if root != ((n, universe) if height[universe] >= n else None):
            return n
        if root is not None and root not in nodes:
            return n
    children: dict[VertexSet, dict[EdgeInst, None]] = {}
    for (k, a), node in nodes.items():
        if a not in out:
            return 1
        if k == 0:
            if node != a:
                return 1
            continue
        want = tuple((e, (k - 1, rng(e))) for e in out[a] if height[rng(e)] >= k - 1)
        if not want or node != want or any(child not in nodes for _, child in want):
            return 1
        children.setdefault(a, {}).update(dict.fromkeys(e for e, _ in want))
    for a, kids in children.items():
        level = AlgebraElement._from_raw(pres, {((e,), (e,)): [(1, rng(e))] for e in out[a]})
        for s, st in _edge_sums(pres, list(kids)):
            if multiply(level, s) != s or multiply(st, level) != st:
                return 1
    return None


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

    For n = −1, p_v is expanded along the paths γ out of v.  A branch
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
    finitely many branches, and the expansion ends without a cap."""
    if n not in (1, -1):
        raise ValueError("n must be 1 or -1")
    if not pres.is_finite:
        raise NotFinite("factorization certificates need a finite ultragraph")
    report = structural_report(pres)
    if report.has_sinks or not report.row_finite:
        raise NotStronglyGraded("the algebra is not strongly graded")
    out = pres.out_edge_map()
    if n == 1:
        return [
            (
                AlgebraElement.s(pres, (e,)),
                AlgebraElement.s_star(pres, (e,)),
            )
            for e in out[v]
        ]
    profile = incoming_length_profile(pres)
    into = _in_edge_map(pres)
    pairs: list[tuple[AlgebraElement, AlgebraElement]] = []
    work: list[tuple[Path, VertexRef]] = [((), v)]
    while work:
        gamma, u = work.pop()
        if profile.reached(len(gamma) + 1).member(u) if gamma else u in into:
            tau = _replacement_path(pres, u, len(gamma) + 1)
            mid = VertexSet.of(u)
            a = AlgebraElement.monomial(pres, gamma, mid, tau)
            b = AlgebraElement.monomial(pres, tau, mid, gamma)
            pairs.append((a, b))
            continue
        for e in out[u]:
            for u2 in pres.edge_range(e).vertices():
                work.append((gamma + (e,), u2))
    return pairs


def verify_factorization(
    pres: UltragraphPresentation,
    v: VertexRef,
    pairs: list[tuple[AlgebraElement, AlgebraElement]],
    n: int,
) -> bool:
    """Re-multiply a factorization and reduce it back to p_v using only
    vertex-splitting contractions Σ_{s(e)=u} s_{γe} p_{r(e)} s_{γe}* →
    s_γ p_u s_γ*.  Sound and complete for the certificates produced by
    strong_factorization, with cost bounded by the certificate size."""
    total = AlgebraElement.zero(pres)
    for a, b in pairs:
        if z_degree(a) != n or z_degree(b) != -n:
            return False
        total = total + multiply(a, b)
    target = AlgebraElement.projection(pres, VertexSet.of(v))
    out = pres.out_edge_map()
    current = total
    while True:
        if current == target:
            return True
        if not current.terms:
            return False
        if any(alpha != beta for alpha, beta in current.terms):
            return False
        max_len = max(len(alpha) for alpha, _ in current.terms)
        if max_len == 0:
            return False
        raw: dict = {}
        groups: dict[tuple[Path, VertexRef], set[str]] = {}
        ok = True
        for (alpha, beta), pieces in current.terms.items():
            if len(alpha) < max_len:
                raw.setdefault((alpha, beta), []).extend(pieces)
                continue
            last = alpha[-1]
            full = pres.edge_range(last)
            if len(pieces) != 1 or pieces[0][0] != 1 or pieces[0][1] != full:
                ok = False
                break
            u = pres.edge_source(last)
            groups.setdefault((alpha[:-1], u), set()).add(last.name)
        if not ok:
            return False
        for (gamma, u), names in groups.items():
            expected = {e.name for e in out[u]}
            if names != expected:
                return False
            raw.setdefault((gamma, gamma), []).append((1, VertexSet.of(u)))
        current = AlgebraElement._from_raw(pres, raw)


# -- printing ------------------------------------------------------------


def pretty(x: AlgebraElement) -> str:
    from .model import _print_vset

    if not x.terms:
        return "0"
    chunks: list[str] = []
    for (alpha, beta) in sorted(x.terms, key=lambda k: (len(k[0]), len(k[1]), k)):
        for c, vs in x.terms[(alpha, beta)]:
            bits: list[str] = []
            if c != 1:
                bits.append(str(c))
            if alpha:
                bits.append("s(" + " ".join(e.label() for e in alpha) + ")")
            bits.append("p{" + _print_vset(x.pres, vs) + "}")
            if beta:
                bits.append("st(" + " ".join(e.label() for e in beta) + ")")
            chunks.append(" ".join(bits))
    return " + ".join(chunks)


def pretty_units(pres: UltragraphPresentation, units: EpsilonUnits) -> tuple[dict[str, str], dict[str, str]]:
    """The printed units and nodes.  Degree n <= 0 maps to its element,
    and degree n > 0 to its root's name N(n, V), or 0 when it has none.
    Each node (k, A), k >= 1, is printed once under its name N(k, V) or
    N(k, r(e)), for the first edge e in id order with range A, as the sum
    s(e) N(k − 1, r(e)) st(e) + … over its children, with p{r(e)} in place
    of a node of length 0."""
    from .model import _print_vset

    def build(p: UltragraphPresentation) -> dict[VertexSet, str]:
        labels = {}
        for e in edge_successors(p):
            labels.setdefault(p.edge_range(e), f"r({e.label()})")
        labels[p.g0_universe()] = "V"
        return labels

    labels = pres.derived("type_labels", build)

    def name(key: Node) -> str:
        return f"N({key[0]}, {labels[key[1]]})"

    printed = {str(-m): pretty(c) for m, c in reversed(list(enumerate(units.negative, 1)))}
    printed["0"] = pretty(units.zero)
    for n, root in enumerate(units.roots, 1):
        printed[str(n)] = "0" if root is None else name(root)
    nodes = {
        name(key): " + ".join(
            f"s({e.label()}) "
            + (name(child) if child[0] else "p{" + _print_vset(pres, units.nodes[child]) + "}")
            + f" st({e.label()})"
            for e, child in kids
        )
        for key, kids in units.nodes.items()
        if key[0]
    }
    return printed, nodes
