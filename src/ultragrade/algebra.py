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

from fractions import Fraction
from typing import Iterable, Union

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


def _path_element(pres: UltragraphPresentation, keys: Iterable[tuple[Path, Path]]) -> AlgebraElement:
    """Σ s_α p_{r(e)} s_β* over the pairs (α, β), where e is the last edge
    of α, or of β when α is empty, and α and β end in the same edge when
    both are nonempty.  The paths come from all_paths, which builds paths
    only along edge_successors, so unlike monomial this does not walk them
    again; the middle r(e) is what monomial would leave of it."""
    return AlgebraElement._from_raw(
        pres, {(a, b): [(1, pres.edge_range((a or b)[-1]))] for a, b in keys}
    )


def epsilon_candidate(pres: UltragraphPresentation, n: int) -> AlgebraElement:
    if pres.edge_families:
        raise NotFiniteEdges("epsilon units need a finite edge set")
    if n == 0:
        if not is_unital(pres):
            raise NotUnital("the algebra has no unit")
        return AlgebraElement.projection(pres, pres.g0_universe())
    if n > 0:
        return _path_element(pres, ((p, p) for p in all_paths(pres, n)))
    # the last ranges of the paths of length |n| cover what they reach
    return AlgebraElement.projection(pres, incoming_length_profile(pres).reached(-n))


def _last_ranges(pres: UltragraphPresentation, m: int) -> list[VertexSet]:
    """The distinct ranges r(p[-1]) over the paths p of length m >= 1, in
    the sorted order of the first edge that has each.  An edge e ends a
    path of length m iff its depth in the length profile is at least m or
    None (see LengthProfile), so the paths themselves are never listed."""
    depth = incoming_length_profile(pres).depth
    ends = [eid for eid in sorted(depth) if depth[eid] is None or depth[eid] >= m]
    return list(dict.fromkeys(pres.edges[eid].range for eid in ends))


def _relevant_edges(pres: UltragraphPresentation, m: int) -> list[EdgeInst]:
    """Edges that can begin the path part of a nonzero monomial of degree
    ±m, i.e. edges from which some path of length j reaches a vertex set
    meeting the ranges of length-(j+m) paths."""
    profile = incoming_length_profile(pres)
    succ = edge_successors(pres)

    def reaches(e: EdgeInst) -> bool:
        last = frozenset([e])
        j = 1
        seen = set()
        while last:
            target = profile.reached(j + m)
            state = (last, target)
            if state in seen:
                return False
            seen.add(state)
            if any(pres.edge_range(g).intersection(target) for g in last):
                return True
            last = frozenset(f for g in last for f in succ[g])
            j += 1
        return False

    return [e for e in succ if reaches(e)]


def verify_epsilon(pres: UltragraphPresentation, n: int, cand: AlgebraElement) -> bool:
    """Check that cand is a left identity on the degree-n component and a
    right identity on the degree-(−n) component.

    Reduction to finitely many checks: every degree-n monomial (n > 0)
    left-factors as s_γ·w and every degree-(−n) monomial right-factors as
    w·s_γ* with |γ| = n and w of degree 0, so the generator checks on
    length-n paths decide both identities.  For n < 0 the factorizations
    bottom out in p_{r(δ)} blocks (|δ| = |n|) and single s_e / s_e*
    letters for edges that actually begin such monomials.

    For n < 0 each block p_{r(δ)} depends on δ only through its last
    range, and two paths with the same last range give the same two
    products, so each distinct range is checked once; _last_ranges finds
    them from the length profile without listing the paths.  For n > 0
    each path gives its own generators s_p and s_p*, so each is checked
    once.
    """
    if pres.edge_families:
        raise NotFiniteEdges("epsilon verification needs a finite edge set")
    if n == 0:
        gens = [AlgebraElement.projection(pres, pres.g0_universe())]
        gens += [AlgebraElement.s(pres, (e,)) for e in map(EdgeInst, sorted(pres.edges))]
        gens += [AlgebraElement.s_star(pres, (e,)) for e in map(EdgeInst, sorted(pres.edges))]
        return all(multiply(cand, g) == g and multiply(g, cand) == g for g in gens)
    m = abs(n)
    if n > 0:
        for p in all_paths(pres, m):
            sp = _path_element(pres, [(p, ())])
            if multiply(cand, sp) != sp:
                return False
            sq = _path_element(pres, [((), p)])
            if multiply(sq, cand) != sq:
                return False
        return True
    for rng in _last_ranges(pres, m):
        proj = AlgebraElement.projection(pres, rng)
        if multiply(cand, proj) != proj or multiply(proj, cand) != proj:
            return False
    for e in _relevant_edges(pres, m):
        se = AlgebraElement.s(pres, (e,))
        st = AlgebraElement.s_star(pres, (e,))
        if multiply(cand, se) != se or multiply(st, cand) != st:
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

    For n = −1, p_v is expanded along the paths γ out of v.  A branch
    (γ, u), with u in the last range of γ (u = v at γ = ()), closes when u
    is in reached(|γ| + 1), with the pair s_γ p_u s_τ*, s_τ p_u s_γ* for
    the replacement path τ of _replacement_path; otherwise p_u is split
    over the out-edges of u, which is no sink.  So a vertex in some range
    closes at γ = () with its first in-edge, and only a source expands.

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
    pairs: list[tuple[AlgebraElement, AlgebraElement]] = []
    work: list[tuple[Path, VertexRef]] = [((), v)]
    while work:
        gamma, u = work.pop()
        if profile.reached(len(gamma) + 1).member(u):
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
