"""The path-space partial action and the skew-product model.

The space X consists of infinite paths, pairs (α, v) with v a sink in
r(α), and isolated sinks (v, v).  At a refinement depth m >= 1 it splits
into atoms, each named by a key: the cylinder ("cyl", α) of the points
that begin with a path α of m edges, the singleton ("sp", α, v) of a
sink-pair with |α| < m, and the singleton ("sv", v) of an isolated sink.
The coefficient algebra D consists of the functions on X that are
constant on the atoms of some depth, and the skew product of D with the
free group on the edges reproduces the Leavitt path algebra through the
map p_A ↦ 1_A δ₀, s_e ↦ 1_e δ_e, s_e* ↦ 1_{e⁻¹} δ_{e⁻¹}.

The free group acts partially on X by erasing and prepending path
prefixes, and θ acts on the atom keys themselves: it strips and prepends
α.  Membership in X_t, for t = a b⁻¹, reads at most the first |a| + 1
edges of a point, and the points of a cylinder key share the edges of
its α.  So a key that fixes enough edges stands for each of its points,
and a cylinder that fixes too few raises ValueError.  The depths that
indicator_word, supported_in and beta pick are always enough.

Everything here requires a finite presentation.  Only the indicators
enumerate the atoms of a depth; everything else walks supports.
"""

from __future__ import annotations

from numbers import Rational
from typing import Callable, Optional

from .errors import CertificateError, NotFinite, NotInDomain, NotInIdeal
from .freegroup import FreeWord
from .model import EdgeInst, UltragraphPresentation, VertexRef, VertexSet

Coeff = Rational


def _require_finite(pres: UltragraphPresentation) -> None:
    if not pres.is_finite:
        raise NotFinite("the partial-action model needs a finite presentation")


# -- what an atom key fixes about its points -------------------------------


def _prefix(key: tuple, k: int) -> Optional[tuple[EdgeInst, ...]]:
    """The first k >= 1 edges of every point of `key`, or None when its
    points have fewer than k edges."""
    if key[0] == "sv":
        return None
    alpha = key[1]
    if len(alpha) >= k:
        return alpha[:k]
    if key[0] == "cyl":
        raise ValueError(f"a cylinder of depth {len(alpha)} does not fix {k} edges")
    return None


def _source(pres: UltragraphPresentation, key: tuple) -> VertexRef:
    return key[1] if key[0] == "sv" else pres.edge_source(key[1][0])


# -- membership in the X_t sets ----------------------------------------------


def in_word(pres: UltragraphPresentation, t: FreeWord) -> Callable[[tuple], bool]:
    """The test whether the points of a key lie in X_t; what it needs of t
    alone (the split, the path checks, the range meet) is read once."""
    if t.is_identity():
        return lambda key: True
    split = t.positive_negative_split()
    if split is None:
        return lambda key: False
    a, b = split
    if (a and not pres.is_path(a)) or (b and not pres.is_path(b)):
        return lambda key: False
    if a and not b:
        return lambda key: _prefix(key, len(a)) == a
    if b and not a:
        rng = pres.edge_range(b[-1])
        return lambda key: rng.member(_source(pres, key))
    meet = pres.edge_range(a[-1]).intersection(pres.edge_range(b[-1]))
    if meet.is_empty():
        # shapes with disjoint range intersection denote the empty set
        return lambda key: False

    def member(key: tuple) -> bool:
        if key[0] == "sp" and key[1] == a:
            return meet.member(key[2])
        nxt = _prefix(key, len(a) + 1)
        return nxt is not None and nxt[: len(a)] == a and meet.member(pres.edge_source(nxt[-1]))

    return member


# -- the partial action on atom keys -----------------------------------------


def _strip(key: tuple, b: tuple[EdgeInst, ...]) -> tuple:
    if not b:
        return key
    if key[0] == "cyl" and len(key[1]) <= len(b):
        raise ValueError(f"a cylinder of depth {len(key[1])} cannot lose {len(b)} edges")
    if key[0] == "sv" or key[1][: len(b)] != b:
        raise ValueError("the atom does not begin with the path to strip")
    rest = key[1][len(b):]
    if key[0] == "cyl":
        return ("cyl", rest)
    return ("sp", rest, key[2]) if rest else ("sv", key[2])


def _prepend(key: tuple, a: tuple[EdgeInst, ...]) -> tuple:
    if not a:
        return key
    if key[0] == "cyl":
        return ("cyl", a + key[1])
    if key[0] == "sp":
        return ("sp", a + key[1], key[2])
    return ("sp", a, key[1])


def theta(pres: UltragraphPresentation, t: FreeWord) -> Callable[[tuple], tuple]:
    """θ_t on the atom keys of X_{t⁻¹}, with t read once: the map erases
    the negative part, prepends the positive part, and raises NotInDomain
    on a key outside X_{t⁻¹}."""
    if t.is_identity():
        return lambda key: key
    inside, split = in_word(pres, t.inverse()), t.positive_negative_split()

    def act(key: tuple) -> tuple:
        if not inside(key):
            raise NotInDomain(f"atom outside the domain of theta_{t.label()}")
        if split is None:
            raise CertificateError(
                f"{t.label()} has no positive-negative split but its domain admitted a point"
            )
        return _prepend(_strip(key, split[1]), split[0])

    return act


# -- atoms ------------------------------------------------------------------


class _PathSpace:
    """What the model reads about X for one finite presentation, each
    fact computed on first use: every vertex's sorted out-edges (the
    presentation's out_edge_map) and so its sink flag, the atoms per
    depth, each cylinder's children, and each atom's refinement to a
    depth.

    It is a derived fact of the presentation (see
    UltragraphPresentation.derived), so it keeps the edge ranges rather
    than the presentation.  The lists it hands out are shared: callers do
    not mutate them."""

    def __init__(self, pres: UltragraphPresentation):
        _require_finite(pres)
        self.out = pres.out_edge_map()
        self.range = {e: pres.edge_range(e) for e in pres.all_edge_insts()}
        self._atoms: dict[int, list[tuple]] = {}
        self._children: dict[tuple, list[tuple]] = {}
        self._leaves: dict[tuple[tuple, int], list[tuple]] = {}

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
        """The canonical partition of X at a refinement depth m >= 1: one
        cylinder per length-m path, one singleton per shorter sink-pair,
        one singleton per isolated sink."""
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


def _path_space(pres: UltragraphPresentation) -> _PathSpace:
    return pres.derived("path_space", _PathSpace)


def _atom_sort_key(key: tuple):
    if key[0] == "cyl":
        return (0, tuple(e.sort_key() for e in key[1]))
    if key[0] == "sp":
        return (1, tuple(e.sort_key() for e in key[1]), key[2])
    return (2, key[1])


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
        pres: UltragraphPresentation, depth: int, member: Callable[[tuple], bool]
    ) -> "DElement":
        values = {key: 1 for key in _path_space(pres).atoms(depth) if member(key)}
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

    def is_zero(self) -> bool:
        return not self.values

    def supported_in(self, t: FreeWord) -> bool:
        refined = self.refine_to(max(self.depth, _word_depth(t)))
        return all(map(in_word(self.pres, t), refined.values))

    def __repr__(self):
        return f"DElement(depth={self.depth}, {self.values!r})"


def _word_depth(t: FreeWord) -> int:
    """The depth whose atoms fix every edge that membership in X_t reads."""
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
    return DElement.from_indicator(pres, _word_depth(t), in_word(pres, t))


def indicator_vertex_set(pres: UltragraphPresentation, vset: VertexSet) -> DElement:
    """1_A, the indicator of {x : s(x) ∈ A}."""
    _require_finite(pres)
    return DElement.from_indicator(
        pres, 1, lambda key: vset.member(_source(pres, key))
    )


def beta(pres: UltragraphPresentation, t: FreeWord, f: DElement) -> DElement:
    """β_t(f) = f ∘ θ_{t⁻¹}, for f supported in X_{t⁻¹}, pushed forward
    along θ_t from the support of f."""
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
    # β_t(f) = Σ f(k)·1_{θ_t(k)} over the atoms k of f at D = max(f.depth,
    # |b| + 1), and the θ_t(k) are exactly the atoms of X_t at D' = D - |b|
    # + |a| = max(1, |a| + 1, |a| + f.depth - |b|).  θ_t is a bijection of
    # X_{t⁻¹} onto X_t, so it suffices that it maps each atom onto an atom
    # of D'.  A cylinder fixes D > |b| edges bγ, γ nonempty; it lies in
    # X_{t⁻¹}, so s(γ) ∈ r(a's last edge) when a is nonempty, and its image
    # is the cylinder of the D' edges aγ.  A sink-pair (bγ, v), |bγ| < D,
    # maps to (aγ, v), |aγ| < D', or to the isolated sink v when aγ is
    # empty; an isolated sink lies in X_{t⁻¹} only when b is empty.
    move = theta(pres, t)
    refined = f.refine_to(max(f.depth, len(b) + 1))
    values = {move(key): c for key, c in refined.values.items()}
    return DElement(pres, max(1, len(a) + 1, len(a) + f.depth - len(b)), values)


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

    def is_zero(self) -> bool:
        return not self.comps

    def grading_tags(self) -> list[FreeWord]:
        return sorted(self.comps, key=lambda w: (len(w), w.label()))

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
    the algebra, comparing both sides with SkewElement == at their common
    depth.  That is exact, so `depth` has no effect on the answer: every
    range is nonempty (parsing and validate() raise EmptyRange), so every
    atom holds a point and _PathSpace.leaves(key, d) is never empty;
    refinement copies each atom's value onto its leaves, so it is
    injective, and two functions are equal at depth m iff they are equal
    at every depth >= m."""
    _require_finite(pres)
    gen = _GeneratorImages(pres, image)
    edges = [EdgeInst(eid) for eid in sorted(pres.edges)]
    pool: list[VertexSet] = [VertexSet.of(v) for v in pres.all_vertices()]
    pool += [pres.edges[eid].range for eid in sorted(pres.edges)]
    pool.append(pres.g0_universe())
    pool = list(dict.fromkeys(pool))  # a range can equal a singleton or the universe
    failures: list[str] = []

    # relation 1: the projections respect the set lattice; the pairs stay
    # ordered, since the products of a broken image map need not commute
    rel1 = True
    if not gen.p(VertexSet.empty()).is_zero():
        rel1 = False
        failures.append("p of the empty set is nonzero")
    for a_set in pool:
        pa = gen.p(a_set)
        for b_set in pool:
            pb, meet = gen.p(b_set), gen.p(a_set.intersection(b_set))
            if pa * pb != meet:
                rel1 = False
                failures.append("projection product disagrees with intersection")
            if gen.p(a_set.union(b_set)) != pa + pb - meet:
                rel1 = False
                failures.append("projection sum disagrees with union")
    # relation 2: source/range absorption
    rel2 = True
    for e in edges:
        src = VertexSet.of(pres.edge_source(e))
        rng = pres.edge_range(e)
        se, st = gen.s(e), gen.st(e)
        if gen.p(src) * se != se or se * gen.p(rng) != se:
            rel2 = False
            failures.append(f"absorption fails for s_{e.label()}")
        if gen.p(rng) * st != st or st * gen.p(src) != st:
            rel2 = False
            failures.append(f"absorption fails for s_{e.label()}*")
    # relation 3: s_e* s_f = delta p_r(e)
    rel3 = True
    for e in edges:
        for f in edges:
            prod = gen.st(e) * gen.s(f)
            want = gen.p(pres.edge_range(e)) if e == f else SkewElement.zero(pres)
            if prod != want:
                rel3 = False
                failures.append(f"s_{e.label()}* s_{f.label()} incorrect")
    # relation 4: vertex splitting at regular vertices
    rel4 = True
    out = pres.out_edge_map()
    for v in pres.all_vertices():
        out_edges = out[v]
        if not out_edges:
            continue
        total = SkewElement.zero(pres)
        for e in out_edges:
            total = total + gen.s(e) * gen.st(e)
        if gen.p(VertexSet.of(v)) != total:
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
