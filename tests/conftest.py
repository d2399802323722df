"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional

from ultragrade.condition_y import _BackwardSearch
from ultragrade.errors import InfiniteEmitter
from ultragrade.model import (
    CycleTail,
    Edge,
    EdgeInst,
    FamilyTail,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
    parse_presentation,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FINITE_CORPUS = [
    "single_loop.ug",
    "one_edge.ug",
    "ef.ug",
    "two_cycle.ug",
    "two_range.ug",
]

INFINITE_CORPUS = ["ex2.ug", "infinite_range.ug"]


def load(name: str) -> UltragraphPresentation:
    return parse_presentation((CORPUS / name).read_text())


def is_sink(pres: UltragraphPresentation, v: VertexRef) -> bool:
    """True iff v emits no edge; an infinite emitter is no sink."""
    try:
        return not pres.out_edges(v)
    except InfiniteEmitter:
        return False


def random_presentation(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 8,
    sinkless: bool = False,
) -> UltragraphPresentation:
    """A random finite ultragraph over a single vertex family.

    With sinkless=True every vertex gets at least one outgoing edge (so
    max_edges must be >= max_vertices for the count to stay honest)."""
    nv = rng.randint(1, max_vertices)
    if sinkless:
        extra = rng.randint(0, max(0, max_edges - nv))
        sources = list(range(nv)) + [rng.randrange(nv) for _ in range(extra)]
    else:
        sources = [rng.randrange(nv) for _ in range(rng.randint(1, max_edges))]
    pres = UltragraphPresentation("rnd", {"v": nv})
    for i, src in enumerate(sources[:max_edges]):
        members = rng.sample(range(nv), rng.randint(1, min(3, nv)))
        pres.edges[f"e{i}"] = Edge(
            f"e{i}",
            VertexRef("v", src),
            VertexSet.of(*(VertexRef("v", j) for j in members)),
        )
    pres.validate()
    return pres


def named_chain(n: int) -> UltragraphPresentation:
    """vertex v0 ... vn and e_i : v_i -> { v_{i+1} }, each vertex its own
    family (corpus/chain_named200.ug at n = 200)."""
    lines = [f"ultragraph named{n}"] + [f"vertex v{i}" for i in range(n + 1)]
    lines += [f"edge e{i} : v{i} -> {{ v{i + 1} }}" for i in range(n)]
    return parse_presentation("\n".join(lines) + "\n")


def source_chain(n: int) -> UltragraphPresentation:
    """t[0] ... t[n-1] and a_i : t[i] -> { t[i+1] } feeding a loop at c,
    a_{n-1} : t[n-1] -> { c } and loop : c -> { c }
    (corpus/source_chain64.ug at n = 64)."""
    lines = [f"ultragraph source_chain{n}", f"vertex_family t finite {n}", "vertex c"]
    lines += [f"edge a{i} : t[{i}] -> {{ t[{i + 1}] }}" for i in range(n - 1)]
    lines += [f"edge a{n - 1} : t[{n - 1}] -> {{ c }}", "edge loop : c -> { c }"]
    return parse_presentation("\n".join(lines) + "\n")


def shift_path(p: InfinitePathRep) -> InfinitePathRep:
    """The shift map: drop the first edge."""
    if p.prefix:
        return InfinitePathRep(p.prefix[1:], p.tail)
    if isinstance(p.tail, CycleTail):
        c = p.tail.edges
        return InfinitePathRep((), CycleTail(c[1:] + c[:1]))
    return InfinitePathRep((), FamilyTail(p.tail.family, p.tail.start + 1))


class PathSearch(_BackwardSearch):
    """The backward search that also builds its paths: the first path of
    the given length into v found depth first over the in-edges in id
    order.  The strong-Z certificate once took its replacement paths from
    here; now it is the oracle for the paths read off the length profile."""

    def find(self, v: VertexRef, length: int) -> Optional[tuple[EdgeInst, ...]]:
        ok, _ = self.exists(v, length)
        if not ok:
            return None
        incoming, _ = self._in_edges(v)
        if length == 1:
            return (incoming[0],)
        for e in incoming:
            head = self.find(self.pres.edge_source(e), length - 1)
            if head is not None:
                return head + (e,)
        return None


def star(x):
    """The adjoint of an algebra element: each s_α p_A s_β* becomes
    s_β p_A s_α*."""
    from ultragrade.algebra import AlgebraElement

    raw: dict = {}
    for (alpha, beta), pairs in x.terms.items():
        raw.setdefault((beta, alpha), []).extend(pairs)
    return AlgebraElement._from_raw(x.pres, raw)


def expand_unit(pres: UltragraphPresentation, nodes, n: int) -> "AlgebraElement":
    """The unit ε_n that the negative node table of epsilon_candidate
    stands for, expanded node by node, each middle cut to the last range
    of its path as monomial cuts it: p_V at n = 0; for n > 0, N(n, V),
    with N(0, A) = p_A and the out-edges of A found by testing every edge;
    for n = −m < 0, D(min(m, L), V), L the settle length, as p of its set
    plus s_e D s_e* over its children, or 0 when that root is not listed."""
    from ultragrade.algebra import AlgebraElement
    from ultragrade.condition_y import incoming_length_profile

    if n == 0:
        return AlgebraElement.projection(pres, pres.g0_universe())
    raw: dict = {}

    def add(path, vs):
        if path:
            vs = vs.intersection(pres.edge_range(path[-1]))
        raw.setdefault((path, path), []).append((1, vs))

    def positive(k, a, path):
        if k == 0:
            add(path, a)
            return
        for e in pres.all_edge_insts():
            if a.member(pres.edge_source(e)):
                positive(k - 1, pres.edge_range(e), path + (e,))

    def negative(key, path):
        head, kids = nodes[key]
        add(path, head)
        for e, child in kids:
            negative(child, path + (e,))

    if n > 0:
        positive(n, pres.g0_universe(), ())
    else:
        root = (min(-n, incoming_length_profile(pres).settle), pres.g0_universe())
        if root in nodes:
            negative(root, ())
    return AlgebraElement._from_raw(pres, raw)


def random_path(
    rng: random.Random, pres: UltragraphPresentation, max_len: int = 3
) -> tuple[EdgeInst, ...]:
    """A random composable path (possibly empty)."""
    insts = pres.all_edge_insts()
    if not insts:
        return ()
    path: list[EdgeInst] = []
    e = rng.choice(insts)
    for _ in range(rng.randint(0, max_len)):
        if path and not pres.edge_range(path[-1]).member(pres.edge_source(e)):
            break
        path.append(e)
        nxt = [f for f in insts if pres.edge_range(e).member(pres.edge_source(f))]
        if not nxt:
            break
        e = rng.choice(nxt)
    return tuple(path)


def random_vertex_set(rng: random.Random, pres: UltragraphPresentation) -> VertexSet:
    verts = pres.all_vertices()
    picked = [v for v in verts if rng.random() < 0.5]
    return VertexSet.of(*picked) if picked else VertexSet.of(rng.choice(verts))


def random_element(rng: random.Random, pres: UltragraphPresentation, terms: int = 3):
    """A random algebra element: a small sum of random monomials."""
    from fractions import Fraction

    from ultragrade.algebra import AlgebraElement

    out = AlgebraElement.zero(pres)
    for _ in range(rng.randint(1, terms)):
        alpha = random_path(rng, pres)
        beta = random_path(rng, pres)
        mid = random_vertex_set(rng, pres)
        coeff = rng.choice([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])
        out = out + AlgebraElement.monomial(pres, alpha, mid, beta, coeff)
    return out


# -- degree-zero units, a property the algebra tests check ------------------


def t0_unit_for(x: AlgebraElement) -> AlgebraElement:
    """A projection p_B with x·p_B = x: each monomial needs s(β₁) ∈ B when
    β is nonempty (its rightmost letter is s_{β₁}*), else its middle set
    inside B."""
    from ultragrade.algebra import AlgebraElement

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
    from ultragrade.algebra import AlgebraElement

    pres = x.pres
    c = VertexSet.empty()
    for (alpha, beta), pieces in x.terms.items():
        if alpha:
            c = c.union(VertexSet.of(pres.edge_source(alpha[0])))
        else:
            for _, vs in pieces:
                c = c.union(vs)
    return AlgebraElement.projection(pres, c)
