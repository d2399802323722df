"""Symbolic computation in the Leavitt path algebra of an ultragraph.

Elements are finite sums of monomials c·s_α p_A s_β*.  The normal form
keeps, for each path pair (α, β), a middle layer of disjoint vertex sets
with distinct coefficients (a Boolean-atom refinement of the occurring
sets), so syntactic equality decides equality modulo the purely
set-theoretic relations.  The vertex-splitting relation
p_v = Σ_{s(e)=v} s_e s_e* is never applied by the normal form: the
strong-Z certificate states it, once per vertex in degree 1 and through
the full nodes of the unit table in degree −1, and its check compares
them with the out-edges and the ranges.
"""

from __future__ import annotations

import math
from numbers import Rational
from typing import Callable, Iterable, Optional

from .condition_y import _edge_successors, incoming_length_profile
from .errors import (
    CertificateError,
    ExpressionError,
    MixedPresentation,
    NotFinite,
    NotFiniteEdges,
    NotHomogeneous,
    NotStronglyGraded,
    NotUnital,
    TermCountCap,
)
from .freegroup import FreeWord
from .lattice import is_unital, range_atoms
from .model import EdgeInst, UltragraphPresentation, VertexSet, _is_id, _is_number, _lead, _parse_vset
from .structure import structural_report

TERM_COUNT_CAP = 10**4

Coeff = Rational
Path = tuple


def _check_coeff(c) -> Coeff:
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")
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

    An element holds its presentation and its terms and nothing else; no
    index rides on it, and multiply buckets the terms afresh.

    Invariant: every term is cut to its ranges, its middle set inside
    r(α[-1]) when α is nonempty and inside r(β[-1]) when β is, so that
    s_α p_A s_β* is never rewritten by s_e = s_e p_{r(e)}.  Every maker of
    elements keeps it: monomial cuts its middle; addition and scaling
    reuse the sets of terms that are cut; multiply combines cut terms into
    cut terms (proof in multiply), also when both factors have one term
    and the one product term is built directly; _atomize only splits sets
    into atoms inside them; the checks of verify_epsilon build L(V), each
    Λ, each y = p_P + Σ s_e and its adjoint directly in normal form, each
    piece coefficient 1 on the middle r(e) for s_e, s_e* and
    s_e p_{r(e)} s_e*, and on a nonempty P for p_P, which has no path; and
    verify_factorization builds the factors of its degree 1 products
    already cut: s_e and s_e* with the middle r(e) for each edge."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: UltragraphPresentation, terms: dict):
        self.pres = pres
        self.terms = terms  # (alpha, beta) -> tuple[(coeff, VertexSet), ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_raw(pres: UltragraphPresentation, raw: dict) -> "AlgebraElement":
        return AlgebraElement._capped(pres, _normal_terms(raw))

    @staticmethod
    def _capped(pres: UltragraphPresentation, terms: dict) -> "AlgebraElement":
        """The element of terms already in normal form, under TERM_COUNT_CAP."""
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
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

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
    """The product, pairing x's terms with y's by the first edge of γ.

    s_β* s_γ is zero unless one of β, γ is a prefix of the other, that is
    unless they agree on the shorter of their lengths, so only such pairs
    of terms (s_α · s_β*)(s_γ · s_δ*) contribute.  y's terms are put in
    buckets by the first edge of γ, those with γ empty in a bucket of
    their own.  An empty β is a prefix of every γ and meets every term of
    y.  A nonempty β is compatible with γ only if γ is empty or starts
    with β's first edge, so it meets the empty bucket and the bucket of
    that edge: the two are disjoint and hold every compatible γ, and a
    pair in them is kept when β and γ agree on the shorter length.  So
    each contributing pair is combined exactly once.

    When both factors have one term, as every degree 1 pair of the
    strong-Z certificate has, no bucket is built: the one pair of terms is combined
    exactly when it is compatible.  A product with one piece is its own
    normal form, a nonzero coefficient (a product of nonzero ones) on a
    nonempty set; no piece or an empty set gives 0, and more pieces are
    atomized.

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
        if len(pieces) > 1:
            return AlgebraElement._from_raw(pres, {key: pieces})
        return AlgebraElement(pres, {key: tuple(pieces)} if pieces and pieces[0][1].parts else {})
    buckets: dict = {}
    for yt in y.terms.items():
        buckets.setdefault(yt[0][0][:1], []).append(yt)
    empty = buckets.get((), [])
    raw: dict = {}
    for xt in x.terms.items():
        beta = xt[0][1]
        for yt in (empty + buckets.get(beta[:1], []) if beta else y.terms.items()):
            gamma = yt[0][0]
            k = min(len(beta), len(gamma))
            if beta[:k] == gamma[:k]:
                key, pieces = _combine(pres, xt, yt)
                if pieces:
                    raw.setdefault(key, []).extend(pieces)
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


# -- node tables ---------------------------------------------------------


def _closure(roots: Iterable, rule: Callable[[object], Optional[tuple]]) -> dict:
    """The node table that the roots reach, key -> (base, children), the
    children a tuple of pairs (e, child key).  One work list builds each
    key once by rule(key), depth first from the roots in order, the first
    child first; a None rule leaves its node out, unexpanded."""
    table: dict = {}
    work = list(roots)[::-1]
    while work:
        key = work.pop()
        if key not in table:
            node = rule(key)
            if node is not None:
                table[key] = node
                work.extend(child for _, child in reversed(node[1]))
    return table


# -- epsilon units -------------------------------------------------------


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
    (range_atoms, whose positions are those of the edges in id order, the
    order of edge_successors on a finite edge set), so an infinite range
    needs no listing.  Built once per presentation."""

    def build(p: UltragraphPresentation) -> dict[EdgeInst, float]:
        depth = incoming_length_profile(p).depth
        succ = edge_successors(p)
        edges = list(succ)
        d = {e: math.inf if depth[e.name] is None else depth[e.name] for e in edges}
        top = dict.fromkeys(edges, 0)  # R(e)
        for _, held in range_atoms(p):
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

    return pres.derived("relevance_bounds", build)


def _inward(pres: UltragraphPresentation) -> dict[EdgeInst, float]:
    """I(e) for each edge e, in id order, from the depths alone: the
    largest depth of an edge f with s(e) in r(f), math.inf for None and 0
    when there is none, so s(e) ∈ reached(m) iff m <= I(e) (LengthProfile);
    built once per presentation."""

    def build(p: UltragraphPresentation) -> dict[EdgeInst, float]:
        depth = incoming_length_profile(p).depth
        succ = edge_successors(p)
        inward = dict.fromkeys(succ, 0)
        for f, nxt in succ.items():
            d = math.inf if depth[f.name] is None else depth[f.name]
            for e in nxt:
                inward[e] = max(inward[e], d)
        return inward

    return pres.derived("inward", build)


def _negative_node(pres: UltragraphPresentation, key: tuple) -> Optional[tuple]:
    """The node (m, A), 1 <= m <= L, by its rule: (A ∩ R(m), children), or
    None when it is zero.  The children are the pairs
    (e, (min(m + 1, L), r(e))) over the out-edges e of A, in id order,
    with I(e) < m <= B(e): s(e) lies outside R(m), and the child node is
    nonzero (proof in verify_epsilon)."""
    m, a = key
    profile = incoming_length_profile(pres)
    inward, bound = _inward(pres), _relevance_bounds(pres)
    below = min(m + 1, profile.settle)
    kids = tuple((e, (below, pres.edge_range(e))) for e in _type_out_edges(pres)[a] if inward[e] < m <= bound[e])
    head = a.intersection(profile.reached(m))
    if head.is_empty() and not kids:
        return None
    return head, kids


def epsilon_candidate(pres: UltragraphPresentation) -> dict:
    """The units ε_n of all degrees n, over a finite edge set with a unit,
    as one node table with no horizon: the nodes D(m, A) that the roots
    (m, V), 1 <= m <= L, reach, built by _closure with _negative_node.
    R(l) is reached(l) and L the profile's settle length, so R(l) = R(L)
    for every l >= L.

    ε_0 is p_V, V all vertices.

    n > 0: ε_n = Σ_{|α|=n} s_α p_{r(α)} s_α*.  Over the range types A, V
    and each r(e), put N(0, A) = p_A and N(k, A) = Σ_{s(e)∈A} s_e
    N(k − 1, r(e)) s_e* for k >= 1.  Then N(k, A) is the same sum over the
    paths α of length k with s(α) ∈ A, and ε_n = N(n, V).
    _type_out_edges maps each type A, V first, to its out-edges, the e
    with s(e) ∈ A, in id order: one node per type stands for every k, and
    an empty sum is 0, so no length, root or height enters.  ε_0 and the
    N(k, A) are read off the presentation alone, so the table holds
    neither.

    n = −m < 0: put D(m, A) = p_{A∩R(m)} + Σ s_e D(m + 1, r(e)) s_e*, the
    sum over the e with s(e) ∈ A∖R(m), each m read as min(m, L); then
    ε_{−m} = D(m, V).  The table maps each nonzero node (m, A),
    1 <= m <= L, to (A ∩ R(m), children), the children the pairs
    (e, (min(m + 1, L), r(e))), in id order, whose node is nonzero.  A zero
    node is left out together with every pointer to it, and so is a zero
    root (m, V).  The proofs are in verify_epsilon."""
    if pres.edge_families:
        raise NotFiniteEdges("epsilon units need a finite edge set")
    if not is_unital(pres):
        raise NotUnital("the algebra has no unit")
    universe = pres.g0_universe()
    roots = [(m, universe) for m in range(1, incoming_length_profile(pres).settle + 1)]
    return _closure(roots, lambda key: _negative_node(pres, key))


def _check_nodes(pres: UltragraphPresentation, nodes: dict, fail: Callable[[str], None]) -> None:
    """Every node (m, A) has 1 <= m <= L and a range type A, equals its
    rule (_negative_node), so it is nonzero, its set is A ∩ R(m) and its
    children are re-derived from the profile and the levels, and each
    child it points at is listed; fail names the first that does not."""
    out = _type_out_edges(pres)
    settle = incoming_length_profile(pres).settle
    for key, node in nodes.items():
        if not 1 <= key[0] <= settle or key[1] not in out or node != _negative_node(pres, key):
            fail(f"node {_unit_name(pres, key)} does not follow its rule")
        for _, child in node[1]:
            if child not in nodes:
                fail(f"the child {_unit_name(pres, child)} of node {_unit_name(pres, key)} is not listed")


def _is_unit_on(pres: UltragraphPresentation, head: VertexSet, children, edges) -> bool:
    """Λ y = y and y* Λ = y* for Λ = p_head + Σ s_e p_{r(e)} s_e* over the
    children and y = p_head + Σ s_e over the edges.  Each element is built
    in normal form, under TERM_COUNT_CAP: every piece is coefficient 1 on
    a nonempty set cut to its ranges, r(e) for an edge and head with no
    path, and an empty head is left out."""
    base = {((), ()): ((1, head),)} if head.parts else {}
    rng = pres.edge_range
    level = AlgebraElement._capped(pres, {**{((e,), (e,)): ((1, rng(e)),) for e in children}, **base})
    y = AlgebraElement._capped(pres, {**base, **{((e,), ()): ((1, rng(e)),) for e in edges}})
    y_star = AlgebraElement._capped(pres, {**base, **{((), (e,)): ((1, rng(e)),) for e in edges}})
    return multiply(level, y) == y and multiply(y_star, level) == y_star


def verify_epsilon(pres: UltragraphPresentation, nodes: dict) -> None:
    """Check the node table of the negative units that epsilon_candidate
    builds; raise CertificateError naming the first root or node that
    fails.  Acceptance proves that the ℤ-grading is epsilon-strong: ε_n
    lies in L_n L_{−n}, is a left identity on the degree-n component and
    a right identity on the degree-(−n) component, for every n.

    What is checked.  ε_0 = p_V and the N(k, A) are not in the table: the
    check reads them, as the printer does, off g0_universe and
    _type_out_edges.  The root (m, V) of each m <= L is listed unless its
    rule is zero.  Every node (m, A) has 1 <= m <= L and a range type A,
    and equals its rule (_negative_node), so it is nonzero, its set is
    A ∩ R(m) and its children are re-derived from the profile and the
    levels; each child it points at is listed (_check_nodes).  Then the
    products:
    L(V) = Σ_e s_e p_{r(e)} s_e* must give L(V) S = S and S* L(V) = S*,
    S = Σ_e s_e over all edges; and once per distinct one-level element
    Λ = p_P + Σ_{children e} s_e p_{r(e)} s_e* of a node (m, A),
    P = A ∩ R(m), Λ (p_P + K) = p_P + K and (p_P + K*) Λ = p_P + K*,
    with K the sum of s_e over A's kept out-edges: those with s(e) ∈ P,
    that is m <= I(e), and the children.  The other out-edges of A enter
    no product: the proof below needs no identity for them.  Each of
    these elements is built directly in normal form, p_P left out when P
    is empty, and each is held to TERM_COUNT_CAP.

    Batching by the free group.  The algebra is graded by the free group
    F on the edges, s_α p_A s_β* having degree α β⁻¹, and the normal form
    keeps the grading key by key: the key (α, β) has degree α β⁻¹, and
    multiply combines keys of degrees g and h into keys of degree g h.
    L(V) and Λ have degree 1, and p_P and the s_e have the distinct
    degrees 1 and e, so Λ (p_P + K) = p_P + K in normal form iff
    Λ p_P = p_P and Λ s_e = s_e for each kept e; the same holds on the
    other side through the degrees e⁻¹.  So each product stands for one
    identity per kept edge, and L(V) S = S for one per edge.  These
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
      * otherwise e is not kept: s(e) ∉ R(m) and B(e) < m, so no path
        e … g of length j has r(g) meeting R(m + j), and
        x = 0 = D(m, A) x, with no identity used.
    The first three cases use Λ p_P = p_P and Λ s_e = s_e for the kept
    edges e, which are the identities checked, and nothing else.
    The adjoint computation gives x* D(m, A) = x*, and A = V gives c_m.
    """
    if pres.edge_families:
        raise NotFiniteEdges("epsilon verification needs a finite edge set")

    def fail(why: str) -> None:
        raise CertificateError(f"the epsilon-unit certificate does not verify: {why}")

    universe = pres.g0_universe()
    out = _type_out_edges(pres)
    settle = incoming_length_profile(pres).settle
    for m in range(1, settle + 1):
        if (m, universe) not in nodes and _negative_node(pres, (m, universe)):
            fail(f"the root {_unit_name(pres, (m, universe))} is not listed")
    _check_nodes(pres, nodes, fail)
    if not _is_unit_on(pres, VertexSet.empty(), out[universe], out[universe]):
        fail("L(V) is not a unit on the edges, so neither is N(n, V)")
    inward = _inward(pres)
    seen = set()
    for (m, a), (head, kids) in nodes.items():
        children = tuple(e for e, _ in kids)
        if (a, head, children) in seen:
            continue
        seen.add((a, head, children))
        kept = [e for e in out[a] if m <= inward[e] or e in children]
        if not _is_unit_on(pres, head, children, kept):
            fail(f"node {_unit_name(pres, (m, a))} is not a unit on its kept edges")


# -- strong-grading certificates ------------------------------------------


def strong_factorization(pres: UltragraphPresentation, n: int) -> dict:
    """The strong-Z certificate table of degree n = ±1.

    n = 1: the out-edge map, each vertex v with its out-edges in id order,
    for p_v = Σ s_e s_e*.

    n = −1: the unit table's nodes under the root (1, V), built by _closure
    with _negative_node: ε_{−1} = D(1, V), which is p_V when every node is
    full (verify_factorization), as every node is when no vertex is a
    sink: an edge out of A ∖ R(m) leads on, past a cycle, to a nonzero
    child."""
    if n not in (1, -1):
        raise ValueError("n must be 1 or -1")
    if not pres.is_finite:
        raise NotFinite("factorization certificates need a finite ultragraph")
    report = structural_report(pres)
    if report.has_sinks or not report.row_finite:
        raise NotStronglyGraded("the algebra is not strongly graded")
    if n == 1:
        return pres.out_edge_map()
    return _closure([(1, pres.g0_universe())], lambda key: _negative_node(pres, key))


def verify_factorization(pres: UltragraphPresentation, table: dict, n: int) -> None:
    """Check the strong-Z table of degree n = ±1 that strong_factorization
    builds; raise CertificateError naming the first entry that fails.
    Acceptance proves 1 ∈ L_1 L_{−1} (n = 1) or 1 ∈ L_{−1} L_1 (n = −1),
    L_d the degree-d component; both make the ℤ-grading strong
    (Năstăsescu and Van Oystaeyen, Methods of Graded Rings, §1.1).

    n = 1.  The table lists every vertex, none a sink, each with exactly
    its out-edges in id order.  Each pair (s_e, s_e*), built cut with the
    middle r(e), re-multiplies to s_e p_{r(e)} s_e* (multiply: one-term
    factors and no sum, so TERM_COUNT_CAP does not apply), and the
    p_v = Σ_{s(e)=v} s_e s_e* sum to 1 = p_V.

    n = −1, with no product: (1) the root (1, V) is listed and every node
    equals its rule, and (3) every child is listed (_check_nodes); (2)
    every node (m, A) is full: each vertex of A ∖ R(m) emits an edge, and
    the children are exactly the out-edges e of A with s(e) ∉ R(m); (4)
    the length profile holds locally: a finite depth is one more than the
    largest depth of the edges whose range holds the edge's source, none
    of them None, and a None depth has such an edge of depth None.

    (4) makes the profile right, so R(m) = reached(m), L, and s(e) ∈ R(m)
    iff m <= I(e) (_inward) are the presentation's, not taken on trust.
    An edge marked None has an in-edge marked None; walking back along
    these among finitely many edges repeats one, so a cycle reaches it.
    An edge marked finite has only in-edges marked finite and lower, so by
    induction on the mark it counts the edges of a longest path ending
    with it.

    A full node is p_A, by induction down the chains of pointers, which
    have at most L edges (verify_epsilon).  D(m, A) = p_{A∩R(m)} +
    Σ s_e D(m', r(e)) s_e* over the children, and each child is full, so
    its term is s_e p_{r(e)} s_e* = s_e s_e*.  The children are all the
    edges out of A ∖ R(m), finitely many vertices each emitting at least
    one edge and finitely many, so the Cuntz–Krieger relation
    p_u = Σ_{s(e)=u} s_e s_e* sums them to p_{A∖R(m)}, and D(m, A) = p_A.
    So D(1, V) = p_V = 1, and it lies in L_{−1} L_1 by verify_epsilon's
    membership argument: its term s_α p_X s_α*, X = r(α) ∩ R(|α| + 1), is
    a sum of y y* with y of degree −1."""
    out = pres.out_edge_map()
    rng = pres.edge_range

    def fail(why: str) -> None:
        raise CertificateError(f"the strong-Z certificate of degree {n} does not verify: {why}")

    if n == 1:
        if table.keys() != out.keys():
            fail("its vertices are not the vertices of the ultragraph")
        for v, edges in table.items():
            if not out[v] or edges != out[v]:
                fail(f"{v.label()} does not list its out-edges")
            for e in edges:
                piece = ((1, rng(e)),)
                a, b = AlgebraElement(pres, {((e,), ()): piece}), AlgebraElement(pres, {((), (e,)): piece})
                if multiply(a, b).terms != {((e,), (e,)): piece}:
                    fail(f"the pair of {e.label()} does not multiply to s_e p_r(e) s_e*")
        return
    root = (1, pres.g0_universe())
    if root not in table:
        fail(f"the root {_unit_name(pres, root)} is not listed")
    profile = incoming_length_profile(pres)
    inward = _inward(pres)
    for e, i in inward.items():
        if profile.depth.get(e.name, 0) != (None if i == math.inf else i + 1):
            fail(f"the depth of {e.label()} does not follow from the depths of the edges into its source")
    _check_nodes(pres, table, fail)
    out_of = _type_out_edges(pres)
    for (m, a), (_, kids) in table.items():
        for v in a.difference(profile.reached(m)).vertices():
            if not out[v]:
                fail(f"node {_unit_name(pres, (m, a))} is not full: {v.label()} outside its head is a sink")
        if tuple(e for e, _ in kids) != tuple(e for e in out_of[a] if inward[e] < m):
            fail(f"node {_unit_name(pres, (m, a))} is not full: its children are not the edges out of A ∖ R({m})")


# -- printing ------------------------------------------------------------


def pretty(x: AlgebraElement) -> str:
    """The terms in order of path lengths, then paths; each distinct vertex
    set is labelled once per presentation."""
    from .model import _print_vset

    if not x.terms:
        return "0"
    labels = x.pres.derived("vset_labels", lambda _: {})
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
                bits.append("s(" + " ".join(e.label() for e in alpha) + ")")
            bits.append("p{" + label + "}")
            if beta:
                bits.append("st(" + " ".join(e.label() for e in beta) + ")")
            chunks.append(" ".join(bits))
    return " + ".join(chunks)


def _type_labels(pres: UltragraphPresentation) -> dict[VertexSet, str]:
    """Each range type's name: V, or r(e) for the first edge e in id order
    with range A."""
    labels = {}
    for e in edge_successors(pres):
        labels.setdefault(pres.edge_range(e), f"r({e.label()})")
    labels[pres.g0_universe()] = "V"
    return labels


def _unit_name(pres: UltragraphPresentation, key: tuple) -> str:
    """D(m, A) for the node (m, A), A named by its type label, or by
    itself when it is no range type."""
    return f"D({key[0]}, {pres.derived('type_labels', _type_labels).get(key[1], key[1])})"


def pretty_nodes(pres: UltragraphPresentation, nodes: dict) -> dict[str, str]:
    """Each node D(m, A) of a unit table printed once, as
    p{A ∩ R(m)} + Σ s(e) D(m', r(e)) st(e), an empty set left out."""
    from .model import _print_vset

    lines = {}
    for key, (head, kids) in nodes.items():
        bits = [] if head.is_empty() else ["p{" + _print_vset(pres, head) + "}"]
        bits += [f"s({e.label()}) {_unit_name(pres, child)} st({e.label()})" for e, child in kids]
        lines[_unit_name(pres, key)] = " + ".join(bits)
    return lines


def pretty_units(pres: UltragraphPresentation, nodes: dict) -> tuple[dict[str, str], dict[str, str]]:
    """The printed units and nodes.  Degree 0 maps to p{V}, every n >= 1
    to N(n, V), each −m with m < L to D(m, V), and all −m with m >= L
    together, under "<= −L", to D(L, V); a root that is not listed prints
    as 0.  Each type A of _type_out_edges is printed once, under its name
    V or r(e), as N(k, A) = Σ s(e) N(k-1, r(e)) st(e) over its out-edges,
    or 0 when it has none, next to the base N(0, A) = p{A}; then the nodes
    (pretty_nodes)."""
    from .model import _print_vset

    labels = pres.derived("type_labels", _type_labels)
    settle = incoming_length_profile(pres).settle
    universe = pres.g0_universe()
    printed = {}
    for m in range(1, settle + 1):
        root = (m, universe)
        printed[str(-m) if m < settle else f"<= -{m}"] = _unit_name(pres, root) if root in nodes else "0"
    printed["0"] = "p{" + _print_vset(pres, universe) + "}"
    printed[">= 1"] = "N(n, V)"
    lines = {"N(0, A)": "p{A}"}
    for a, edges in _type_out_edges(pres).items():
        lines[f"N(k, {labels[a]})"] = " + ".join(
            f"s({e.label()}) N(k-1, {labels[pres.edge_range(e)]}) st({e.label()})" for e in edges
        ) or "0"
    lines.update(pretty_nodes(pres, nodes))
    return printed, lines


# -- reading expressions ---------------------------------------------------


def _expression_tokens(text: str) -> list[tuple[str, str]]:
    """The tokens of an expression as (kind, text), all read before any is
    parsed: a number, an integer or a fraction p/q, s(…) or st(…) with its
    edge list, p{…} with its set body, or an op, one of * + ( )."""
    out, rest = [], text
    while rest.strip():
        start, rest = rest, rest.lstrip()
        sign = rest[0] == "-"
        number = _lead(rest[sign:], "0123456789")
        below = _lead(rest[sign + len(number) + 1 :], "0123456789") if number else ""
        if below and rest[sign + len(number)] == "/":
            number += "/" + below
        if rest[0] in "*+()":
            out.append(("op", rest[0]))
            rest = rest[1:]
        elif number:
            out.append(("number", rest[: sign + len(number)]))
            rest = rest[sign + len(number) :]
        else:
            for kind, opener, closer in (("st", "(", ")"), ("s", "(", ")"), ("p", "{", "}")):
                body = rest[len(kind) :].lstrip() if rest.startswith(kind) else ""
                if body[:1] == opener and closer in body:
                    body, _, rest = body[1:].partition(closer)
                    out.append((kind, body))
                    break
            else:
                raise ExpressionError(f"unexpected input at {start!r}")
    return out


def _edge_path(pres: UltragraphPresentation, body: str) -> tuple[EdgeInst, ...]:
    """The path an edge list names, its edges apart by spaces or commas."""
    path = []
    for chunk in body.replace(",", " ").split():
        name, bracket, rest = chunk.partition("[")
        if not _is_id(name) or bracket and not (rest[-1:] == "]" and _is_number(rest[:-1])):
            raise ExpressionError(f"bad edge reference {chunk!r}")
        path.append(EdgeInst(name, int(rest[:-1]) if bracket else None))
        if not pres.resolves(path[-1]):
            raise ExpressionError(f"unknown edge {chunk!r}")
    if not path:
        raise ExpressionError("empty edge list")
    if not pres.is_path(path):
        raise ExpressionError(f"not a path: {' '.join(e.label() for e in path)}")
    return tuple(path)


def parse_element(pres: UltragraphPresentation, text: str) -> AlgebraElement:
    """The element an expression denotes (grammar.ebnf, `expression`).  A
    product is written with `*` or by juxtaposition, so what pretty prints
    reads back; a number c, an integer or a fraction p/q as pretty prints
    one, stands for c·p{V}.  Raises ExpressionError, or ParseError for a
    bad set body."""
    tokens = _expression_tokens(text)[::-1]  # the next token is the last

    def factor() -> AlgebraElement:
        kind, val = tokens.pop() if tokens else ("end", "")
        if kind == "number":
            if "/" in val:
                from fractions import Fraction  # only here, so that importing the library skips it

                if not val.rpartition("/")[2].strip("0"):
                    raise ExpressionError(f"zero denominator in {val!r}")
                c = Fraction(val)
            else:
                c = int(val)
            return c * AlgebraElement.projection(pres, pres.g0_universe())
        if kind in ("s", "st"):
            return (AlgebraElement.s if kind == "s" else AlgebraElement.s_star)(pres, _edge_path(pres, val))
        if kind == "p":
            return AlgebraElement.projection(pres, _parse_vset(val, 1, pres))
        if (kind, val) != ("op", "("):
            raise ExpressionError("expected a factor")
        out = expr()
        if not tokens or tokens.pop() != ("op", ")"):
            raise ExpressionError("missing closing parenthesis")
        return out

    def expr() -> AlgebraElement:
        """Products, by `*` or juxtaposition, summed by `+`."""
        terms = [factor()]
        while tokens and tokens[-1] != ("op", ")"):
            op = tokens.pop()[1] if tokens[-1] in (("op", "+"), ("op", "*")) else "*"
            if op == "+":
                terms.append(factor())
            else:
                terms[-1] = terms[-1] * factor()
        return sum(terms[1:], terms[0])

    out = expr()
    if tokens:
        raise ExpressionError("trailing input in expression")
    return out
