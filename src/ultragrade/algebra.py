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

from .condition_y import _BackwardSearch, incoming_length_profile
from .errors import (
    BoundExceeded,
    CertificateError,
    MixedPresentation,
    NotFinite,
    NotFiniteEdges,
    NotHomogeneous,
    NotRegular,
    NotStronglyGraded,
    NotUnital,
    PathLengthCap,
    TermCountCap,
)
from .freegroup import FreeWord
from .lattice import is_unital
from .model import EdgeInst, UltragraphPresentation, VertexRef, VertexSet
from .structure import structural_report

PATH_LENGTH_CAP = 64
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
    __slots__ = ("pres", "terms")

    def __init__(self, pres: UltragraphPresentation, terms: dict):
        self.pres = pres
        self.terms = terms  # (alpha, beta) -> tuple[(coeff, VertexSet), ...]

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
            if len(path) > PATH_LENGTH_CAP:
                raise PathLengthCap(f"path length {len(path)} exceeds {PATH_LENGTH_CAP}")
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

    def star(self) -> "AlgebraElement":
        raw: dict = {}
        for (alpha, beta), pairs in self.terms.items():
            raw.setdefault((beta, alpha), []).extend(pairs)
        return AlgebraElement._from_raw(self.pres, raw)

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


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._require_same(y)
    pres = x.pres
    raw: dict = {}

    def add(alpha: Path, beta: Path, vs: VertexSet, c: Coeff) -> None:
        if len(alpha) > PATH_LENGTH_CAP or len(beta) > PATH_LENGTH_CAP:
            raise PathLengthCap("product path exceeds the length cap")
        if alpha:
            vs = vs.intersection(pres.edge_range(alpha[-1]))
        if beta:
            vs = vs.intersection(pres.edge_range(beta[-1]))
        if not vs.is_empty():
            raw.setdefault((alpha, beta), []).append((c, vs))

    for (alpha, beta), xp in x.terms.items():
        for (gamma, delta), yp in y.terms.items():
            nb, ng = len(beta), len(gamma)
            if nb <= ng and gamma[:nb] == beta:
                rest = gamma[nb:]
                if not rest:
                    for c, a_set in xp:
                        for d, b_set in yp:
                            add(alpha, delta, a_set.intersection(b_set), c * d)
                else:
                    v = pres.edge_source(rest[0])
                    for c, a_set in xp:
                        if not a_set.member(v):
                            continue
                        for d, b_set in yp:
                            add(alpha + rest, delta, b_set, c * d)
            elif ng < nb and beta[:ng] == gamma:
                rest = beta[ng:]
                v = pres.edge_source(rest[0])
                for d, b_set in yp:
                    if not b_set.member(v):
                        continue
                    for c, a_set in xp:
                        add(alpha, delta + rest, a_set, c * d)
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


# -- vertex splitting (CK2) ----------------------------------------------


def _regular_out_edges(pres: UltragraphPresentation, v: VertexRef) -> list[EdgeInst]:
    try:
        edges = pres.out_edges(v)
    except Exception as exc:
        raise NotRegular(v.label()) from exc
    if not edges:
        raise NotRegular(v.label())
    return edges


def ck2_expand(x: AlgebraElement, v: VertexRef) -> AlgebraElement:
    """Rewrite every p_A with v ∈ A as p_{A∖{v}} + Σ_{s(e)=v} s_e s_e*."""
    pres = x.pres
    edges = _regular_out_edges(pres, v)
    singleton = VertexSet.of(v)
    raw: dict = {}
    for (alpha, beta), pairs in x.terms.items():
        for c, vs in pairs:
            if not vs.member(v):
                raw.setdefault((alpha, beta), []).append((c, vs))
                continue
            rest = vs.difference(singleton)
            if not rest.is_empty():
                raw.setdefault((alpha, beta), []).append((c, rest))
            for e in edges:
                raw.setdefault((alpha + (e,), beta + (e,)), []).append(
                    (c, pres.edge_range(e))
                )
    return AlgebraElement._from_raw(pres, raw)


def ck2_saturate(x: AlgebraElement, depth: int) -> AlgebraElement:
    """Expand every term at all regular middle vertices until both paths
    reach the given depth; sink vertices stay unexpanded."""
    pres = x.pres
    raw: dict = {}
    work = [
        (alpha, beta, c, vs)
        for (alpha, beta), pairs in x.terms.items()
        for c, vs in pairs
    ]
    budget = TERM_COUNT_CAP * 4
    while work:
        alpha, beta, c, vs = work.pop()
        if min(len(alpha), len(beta)) >= depth:
            raw.setdefault((alpha, beta), []).append((c, vs))
            continue
        if not vs.is_finite():
            raise NotFinite("cannot saturate over an infinite vertex set")
        sink_part = VertexSet.empty()
        for u in vs.vertices():
            if pres.is_sink(u):
                sink_part = sink_part.union(VertexSet.of(u))
            else:
                for e in pres.out_edges(u):
                    work.append((alpha + (e,), beta + (e,), c, pres.edge_range(e)))
                    budget -= 1
                    if budget < 0:
                        raise TermCountCap("saturation exceeded the term budget")
        if not sink_part.is_empty():
            raw.setdefault((alpha, beta), []).append((c, sink_part))
    return AlgebraElement._from_raw(pres, raw)


def equal_mod_ck2(x: AlgebraElement, y: AlgebraElement, depth: int = 3) -> bool:
    if x == y:
        return True
    return ck2_saturate(x, depth) == ck2_saturate(y, depth)


# -- path enumeration ----------------------------------------------------


def all_paths(pres: UltragraphPresentation, length: int) -> list[Path]:
    if pres.edge_families:
        raise NotFiniteEdges("the edge set is infinite")
    if length == 0:
        return [()]
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    paths: list[Path] = [(e,) for e in insts]
    for _ in range(length - 1):
        paths = [
            p + (e,)
            for p in paths
            for e in insts
            if pres.edge_range(p[-1]).member(pres.edge_source(e))
        ]
    return paths


# -- epsilon units -------------------------------------------------------


def epsilon_candidate(pres: UltragraphPresentation, n: int) -> AlgebraElement:
    if pres.edge_families:
        raise NotFiniteEdges("epsilon units need a finite edge set")
    if n == 0:
        if not is_unital(pres):
            raise NotUnital("the algebra has no unit")
        return AlgebraElement.projection(pres, pres.g0_universe())
    paths = all_paths(pres, abs(n))
    if n > 0:
        # one normal form over all the terms: adding the monomials one by
        # one would atomize every earlier term again for each path
        raw: dict = {}
        for p in paths:
            term = AlgebraElement.monomial(pres, p, pres.edge_range(p[-1]), p)
            for key, pairs in term.terms.items():
                raw.setdefault(key, []).extend(pairs)
        return AlgebraElement._from_raw(pres, raw)
    covered = VertexSet.empty()
    for p in paths:
        covered = covered.union(pres.edge_range(p[-1]))
    return AlgebraElement.projection(pres, covered)


def _relevant_edges(pres: UltragraphPresentation, m: int) -> list[EdgeInst]:
    """Edges that can begin the path part of a nonzero monomial of degree
    ±m, i.e. edges from which some path of length j reaches a vertex set
    meeting the ranges of length-(j+m) paths."""
    profile = incoming_length_profile(pres)
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    succ = {
        e: [f for f in insts if pres.edge_range(e).member(pres.edge_source(f))]
        for e in insts
    }

    def reaches(e: EdgeInst) -> bool:
        last = frozenset([e])
        j = 1
        seen = set()
        while last:
            state = (last, profile._idx(j + m))
            if state in seen:
                return False
            seen.add(state)
            for g in last:
                if any(
                    profile.contains(u, j + m)
                    for u in pres.edge_range(g).vertices()
                ):
                    return True
            last = frozenset(f for g in last for f in succ[g])
            j += 1
        return False

    return [e for e in insts if reaches(e)]


def verify_epsilon(pres: UltragraphPresentation, n: int, cand: AlgebraElement) -> bool:
    """Check that cand is a left identity on the degree-n component and a
    right identity on the degree-(−n) component.

    Reduction to finitely many checks: every degree-n monomial (n > 0)
    left-factors as s_γ·w and every degree-(−n) monomial right-factors as
    w·s_γ* with |γ| = n and w of degree 0, so the generator checks on
    length-n paths decide both identities.  For n < 0 the factorizations
    bottom out in p_{r(δ)} blocks (|δ| = |n|) and single s_e / s_e*
    letters for edges that actually begin such monomials.
    """
    if pres.edge_families:
        raise NotFiniteEdges("epsilon verification needs a finite edge set")
    if n == 0:
        gens = [AlgebraElement.projection(pres, pres.g0_universe())]
        gens += [AlgebraElement.s(pres, (e,)) for e in map(EdgeInst, sorted(pres.edges))]
        gens += [AlgebraElement.s_star(pres, (e,)) for e in map(EdgeInst, sorted(pres.edges))]
        return all(multiply(cand, g) == g and multiply(g, cand) == g for g in gens)
    m = abs(n)
    paths = all_paths(pres, m)
    if n > 0:
        for p in paths:
            sp = AlgebraElement.s(pres, p)
            if multiply(cand, sp) != sp:
                return False
            sq = AlgebraElement.s_star(pres, p)
            if multiply(sq, cand) != sq:
                return False
        return True
    for p in paths:
        proj = AlgebraElement.projection(pres, pres.edge_range(p[-1]))
        if multiply(cand, proj) != proj or multiply(proj, cand) != proj:
            return False
    for e in _relevant_edges(pres, m):
        se = AlgebraElement.s(pres, (e,))
        st = AlgebraElement.s_star(pres, (e,))
        if multiply(cand, se) != se or multiply(st, cand) != st:
            return False
    return True


# -- strong-grading factorization certificates ---------------------------


def strong_factorization(
    pres: UltragraphPresentation, v: VertexRef, n: int
) -> list[tuple[AlgebraElement, AlgebraElement]]:
    """Pairs (aᵢ, bᵢ) of degree (n, −n) with Σ aᵢbᵢ = p_v, for n = ±1."""
    if n not in (1, -1):
        raise ValueError("n must be 1 or -1")
    if not pres.is_finite:
        raise NotFinite("factorization certificates need a finite ultragraph")
    report = structural_report(pres)
    if report.has_sinks or not report.row_finite:
        raise NotStronglyGraded("the algebra is not strongly graded")
    point = VertexSet.of(v)
    if n == 1:
        return [
            (
                AlgebraElement.s(pres, (e,)),
                AlgebraElement.s_star(pres, (e,)),
            )
            for e in pres.out_edges(v)
        ]
    profile = incoming_length_profile(pres)
    if profile.contains(v, 1):
        e = next(
            EdgeInst(eid) for eid in sorted(pres.edges) if pres.edges[eid].range.member(v)
        )
        a = AlgebraElement.monomial(pres, (), point, (e,))
        b = AlgebraElement.monomial(pres, (e,), point, ())
        return [(a, b)]
    # v is a source: expand p_v along outgoing paths until every branch
    # reaches a vertex u with a replacement path of length |γ|+1 (such a
    # path exists under Condition (Y); an unbounded uncovered branch would
    # be a Condition (Y) violation)
    search = _BackwardSearch(pres)
    depth_bound = len(pres.all_vertices()) * len(profile.states) + 2
    pairs: list[tuple[AlgebraElement, AlgebraElement]] = []
    work: list[tuple[Path, VertexRef]] = [
        ((e,), u)
        for e in pres.out_edges(v)
        for u in pres.edge_range(e).vertices()
    ]
    while work:
        gamma, u = work.pop()
        if profile.contains(u, len(gamma) + 1):
            tau = search.find(u, len(gamma) + 1)
            if tau is None:
                raise CertificateError(f"no replacement path of length {len(gamma) + 1} into {u.label()}")
            mid = VertexSet.of(u)
            a = AlgebraElement.monomial(pres, gamma, mid, tau)
            b = AlgebraElement.monomial(pres, tau, mid, gamma)
            pairs.append((a, b))
            continue
        if len(gamma) >= depth_bound:
            raise BoundExceeded(len(gamma))
        for e in pres.out_edges(u):
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
            expected = {e.name for e in pres.out_edges(u)}
            if names != expected:
                return False
            raw.setdefault((gamma, gamma), []).append((1, VertexSet.of(u)))
        current = AlgebraElement._from_raw(pres, raw)


# -- degree-zero units ---------------------------------------------------


def t0_unit_for(x: AlgebraElement) -> AlgebraElement:
    """A projection p_B with x·p_B = x: each monomial needs s(β₁) ∈ B when
    β is nonempty (its rightmost letter is s_{β₁}*), else its middle set
    inside B."""
    pres = x.pres
    b = VertexSet.empty()
    for (alpha, beta), pieces in x.terms.items():
        if beta:
            b = b.union(VertexSet.of(pres.edge_source(beta[0])))
        else:
            for _, vs in pieces:
                b = b.union(vs)
    return AlgebraElement.projection(pres, b)


def t0_left_unit_for(x: AlgebraElement) -> AlgebraElement:
    """A projection p_C with p_C·x = x (mirror of t0_unit_for)."""
    pres = x.pres
    c = VertexSet.empty()
    for (alpha, beta), pieces in x.terms.items():
        if alpha:
            c = c.union(VertexSet.of(pres.edge_source(alpha[0])))
        else:
            for _, vs in pieces:
                c = c.union(vs)
    return AlgebraElement.projection(pres, c)


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
