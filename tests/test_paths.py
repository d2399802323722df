"""Path enumeration, the longest path, the product, the epsilon units and
their check, and the replacement paths, each against the straightforward
version it replaced or an independent one: every length enumerated anew,
lengths tried one by one, a recursive cycle search, a product that pairs
every term with every term, a product that pairs terms through a
first-edge index, the units listed path by path, the direct identities of
each degree checked alone, in the algebra and in the skew-product model, a
walk per edge for the relevant edges, a backward search over the
in-edges, and the strong-Z node tables read back into the pair-per-branch
listing they replaced and re-multiplied in the skew-product model."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    CORPUS,
    FINITE_CORPUS,
    PathSearch,
    expand_unit,
    load,
    random_element,
    random_path,
    random_presentation,
    random_vertex_set,
    source_chain,
    star,
)
from ultragrade import algebra
from ultragrade.algebra import (
    AlgebraElement,
    all_paths,
    epsilon_candidate,
    multiply,
    strong_factorization,
    verify_epsilon,
    verify_factorization,
)
from ultragrade.condition_y import incoming_length_profile
from ultragrade.errors import CertificateError, TermCountCap
from ultragrade.freegroup import FreeWord
from ultragrade.grading import analyze, classify_eps_strong_z, classify_strong_z
from ultragrade.lattice import is_unital
from ultragrade.model import Edge, EdgeInst, UltragraphPresentation, VertexRef, VertexSet, parse_presentation
from ultragrade.partial_action import SkewElement, _GeneratorImages, phi_of_element, skew_multiply
from ultragrade.structure import structural_report

# -- the oracles -------------------------------------------------------------


def all_paths_oracle(pres, length):
    if length == 0:
        return [()]
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    paths = [(e,) for e in insts]
    for _ in range(length - 1):
        paths = [
            p + (e,)
            for p in paths
            for e in insts
            if pres.edge_range(p[-1]).member(pres.edge_source(e))
        ]
    return paths


def longest_path_oracle(pres):
    """Only for acyclic input: on a cycle the loop never ends."""
    length = 0
    paths = all_paths_oracle(pres, 1)
    while paths:
        length += 1
        paths = all_paths_oracle(pres, length + 1)
    return length


def edge_cycle_oracle(pres):
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    succ = {
        e: [f for f in insts if pres.edge_range(e).member(pres.edge_source(f))]
        for e in insts
    }
    color = {}

    def dfs(e):
        color[e] = 1
        for f in succ[e]:
            c = color.get(f)
            if c == 1:
                return True
            if c is None and dfs(f):
                return True
        color[e] = 2
        return False

    return any(color.get(e) is None and dfs(e) for e in insts)


def multiply_oracle(x, y):
    pres = x.pres
    raw = {}

    def add(alpha, beta, vs, c):
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
                for c, a_set in xp:
                    for d, b_set in yp:
                        if not rest:
                            add(alpha, delta, a_set.intersection(b_set), c * d)
                        elif a_set.member(pres.edge_source(rest[0])):
                            add(alpha + rest, delta, b_set, c * d)
            elif ng < nb and beta[:ng] == gamma:
                rest = beta[ng:]
                for c, a_set in xp:
                    for d, b_set in yp:
                        if b_set.member(pres.edge_source(rest[0])):
                            add(alpha, delta + rest, a_set, c * d)
    return AlgebraElement._from_raw(pres, raw)


def multiply_first_edge_oracle(x, y):
    """The product as it was paired before the prefix index: x's terms
    grouped by the first edge of β and y's by the first edge of γ, with
    None for an empty path; a block pairs every term of x with every term
    of y whose γ is empty or starts with the same edge, and an empty β
    meets every term of y."""

    def first_edge_index(z, side):
        index = {}
        for key, pieces in z.terms.items():
            path = key[side]
            index.setdefault(path[0] if path else None, []).append((key, pieces))
        return index

    pres = x.pres
    raw = {}

    def add(alpha, beta, vs, c):
        if alpha:
            vs = vs.intersection(pres.edge_range(alpha[-1]))
        if beta:
            vs = vs.intersection(pres.edge_range(beta[-1]))
        if not vs.is_empty():
            raw.setdefault((alpha, beta), []).append((c, vs))

    by_gamma = first_edge_index(y, 0)
    y_empty = by_gamma.get(None, [])
    for first, xs in first_edge_index(x, 1).items():
        ys = y.terms.items() if first is None else y_empty + by_gamma.get(first, [])
        for (alpha, beta), xp in xs:
            for (gamma, delta), yp in ys:
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
                            if a_set.member(v):
                                for d, b_set in yp:
                                    add(alpha + rest, delta, b_set, c * d)
                elif ng < nb and beta[:ng] == gamma:
                    rest = beta[ng:]
                    v = pres.edge_source(rest[0])
                    for d, b_set in yp:
                        if b_set.member(v):
                            for c, a_set in xp:
                                add(alpha, delta + rest, a_set, c * d)
    return AlgebraElement._from_raw(pres, raw)


def unit_listing_oracle(pres, n):
    """The degree-n unit, n > 0, listed path by path as the library built
    it before the node certificates: Σ s_p p_{r(p)} s_p* over all_paths."""
    return AlgebraElement._from_raw(
        pres, {(p, p): [(1, pres.edge_range(p[-1]))] for p in all_paths(pres, n)}
    )


def verify_listing_oracle(pres, n, cand):
    """The path-by-path check of a listed degree-n unit, n > 0:
    cand s_p = s_p and s_p* cand = s_p* for every path p of length n."""
    for p in all_paths(pres, n):
        sp = AlgebraElement.s(pres, p)
        if multiply(cand, sp) != sp:
            return False
        sq = star(sp)
        if multiply(sq, cand) != sq:
            return False
    return True


def last_ranges_oracle(pres, m):
    """The distinct last ranges of the paths of length m, in the order of
    the paths."""
    return list(dict.fromkeys(pres.edge_range(p[-1]) for p in all_paths_oracle(pres, m)))


def negative_unit_listing_oracle(pres, m):
    """The degree −m unit listed path by path, with no node, bound or
    level: Σ s_α p_{r(α)∩R(|α|+m)} s_α* over the paths α, the empty one
    with r(()) = V included, whose i-th edge has its source outside
    R(m + i − 1), R(l) = reached(l).  The paths are extended one edge at a
    time over every edge; that none grows past the settle length is
    asserted, so a walk around a cycle fails instead of running on."""
    profile = incoming_length_profile(pres)
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    raw = {}
    level = [((), pres.g0_universe())]
    while level:
        longer = []
        for path, last in level:
            assert len(path) <= profile.settle, (pres.name, m, path)
            reached = profile.reached(len(path) + m)
            raw.setdefault((path, path), []).append((1, last.intersection(reached)))
            for e in insts:
                src = pres.edge_source(e)
                if last.member(src) and not reached.member(src):
                    longer.append((path + (e,), pres.edge_range(e)))
        level = longer
    return AlgebraElement._from_raw(pres, raw)


def direct_identities_oracle(pres, units, bound, lengths=None):
    """The first degree n, in the order −1, …, −bound, 0, 1, …, bound,
    whose expanded unit fails one of its identities, or None; each degree
    is checked alone.
    For n = −m: c_m x = x and x* c_m = x* for x = s_α p_{r(α)∩R(|α|+m)}
    over the paths α of length at most `lengths` (default bound), the
    empty one with r(()) = V included.  At n = 0: ε_0 against p_V and
    every s_e and s_e* on either side.  For 0 < n <= lengths:
    ε_n s_β = s_β and s_β* ε_n = s_β* over the paths β of length n."""
    profile = incoming_length_profile(pres)
    paths = [p for k in range((bound if lengths is None else lengths) + 1) for p in all_paths_oracle(pres, k)]
    for m in range(1, bound + 1):
        c = expand_unit(pres, units, -m)
        for alpha in paths:
            last = pres.edge_range(alpha[-1]) if alpha else pres.g0_universe()
            x = AlgebraElement.monomial(pres, alpha, last.intersection(profile.reached(len(alpha) + m)), ())
            if multiply(c, x) != x or multiply(star(x), c) != star(x):
                return -m
    gens = [AlgebraElement.projection(pres, pres.g0_universe())]
    gens += [AlgebraElement.s(pres, (e,)) for e in pres.all_edge_insts()]
    gens += [star(g) for g in gens[1:]]
    zero = expand_unit(pres, units, 0)
    if any(multiply(zero, g) != g or multiply(g, zero) != g for g in gens):
        return 0
    for n in range(1, (bound if lengths is None else lengths) + 1):
        if not verify_listing_oracle(pres, n, expand_unit(pres, units, n)):
            return n
    return None


# -- inputs -----------------------------------------------------------------


def random_dag(rng: random.Random, max_vertices: int = 8, max_edges: int = 10):
    """A random finite ultragraph whose edges only point to higher vertices."""
    nv = rng.randint(2, max_vertices)
    pres = UltragraphPresentation("dag", {"v": nv})
    for i in range(rng.randint(1, max_edges)):
        src = rng.randrange(nv - 1)
        members = rng.sample(range(src + 1, nv), rng.randint(1, min(3, nv - 1 - src)))
        pres.edges[f"e{i}"] = Edge(
            f"e{i}", VertexRef("v", src), VertexSet.of(*(VertexRef("v", j) for j in members))
        )
    pres.validate()
    return pres


def chain(n: int, closed: bool = False) -> UltragraphPresentation:
    """v[0] -> v[1] -> ... -> v[n], or an n-cycle when closed."""
    pres = UltragraphPresentation(f"chain{n}", {"v": n + 1})
    for i in range(n):
        target = 0 if closed and i == n - 1 else i + 1
        pres.edges[f"e{i}"] = Edge(f"e{i}", VertexRef("v", i), VertexSet.of(VertexRef("v", target)))
    pres.validate()
    return pres


def _longest(pres: UltragraphPresentation):
    """The number of edges on a longest path, or None over a cycle."""
    return incoming_length_profile(pres).longest


def layered_dag(w: int, d: int) -> UltragraphPresentation:
    """d + 1 layers of w vertices; vertex j of a layer below the last emits
    one edge whose range is {j, j+1 mod w} of the next layer."""
    pres = UltragraphPresentation(f"dag{w}x{d}", {f"l{i}": w for i in range(d + 1)})
    for i in range(d):
        for j in range(w):
            rng = VertexSet.of(VertexRef(f"l{i + 1}", j), VertexRef(f"l{i + 1}", (j + 1) % w))
            pres.edges[f"g{i}_{j}"] = Edge(f"g{i}_{j}", VertexRef(f"l{i}", j), rng)
    pres.validate()
    return pres


def fed_cycle(n: int) -> UltragraphPresentation:
    """An n-cycle v[0] -> v[1] -> ... -> v[0] fed by one source u."""
    pres = chain(n, closed=True)
    pres.vertex_families["u"] = 1
    pres.edges["feed"] = Edge("feed", VertexRef("u", 0), VertexSet.of(VertexRef("v", 0)))
    pres.validate()
    return pres


def seeded_presentations():
    rng = random.Random(2024)
    out = [load(name) for name in FINITE_CORPUS + ["cosingleton12.ug"]]
    out += [random_presentation(rng) for _ in range(60)]
    out += [random_presentation(rng, sinkless=True) for _ in range(20)]
    out += [random_dag(rng) for _ in range(60)]
    return out


def _finite_edge_corpus():
    """The corpus presentations with no edge family and at most 20 edges;
    the longer chains and dag2x14 have tests of their own."""
    out = []
    for p in sorted(CORPUS.glob("*.ug")):
        pres = load(p.name)
        if not pres.edge_families and len(pres.edges) <= 20:
            out.append(pres)
    return out


def random_homogeneous(rng, pres, degree, terms=6):
    """A sum of random monomials of one z-degree; paths may be empty."""
    out = AlgebraElement.zero(pres)
    for _ in range(50):
        alpha, beta = random_path(rng, pres), random_path(rng, pres)
        if len(alpha) - len(beta) != degree:
            continue
        mid = random_vertex_set(rng, pres)
        out = out + AlgebraElement.monomial(pres, alpha, mid, beta, rng.choice([1, -2, 3]))
        terms -= 1
        if not terms:
            break
    return out


# -- paths ------------------------------------------------------------------


def test_all_paths_match_the_oracle_in_order():
    for pres in seeded_presentations():
        for length in range(6):
            assert all_paths(pres, length) == all_paths_oracle(pres, length), (pres.name, length)


@pytest.mark.dash_o
def test_every_listed_path_is_a_path():
    """The listed units of the oracles build their monomials from
    all_paths without walking the paths again, so each one must be a
    path."""
    rng = random.Random(2026)
    presentations = [load(name) for name in FINITE_CORPUS] + [layered_dag(3, 5)]
    presentations += [random_presentation(rng) for _ in range(100)]
    presentations += [random_dag(rng) for _ in range(100)]
    checked = 0
    for pres in presentations:
        longest = _longest(pres)
        for length in range(1, (5 if longest is None else longest) + 1):
            for p in all_paths(pres, length):
                assert len(p) == length and pres.is_path(p), (pres.name, p)
                checked += 1
        if longest is not None:
            assert all_paths(pres, longest + 1) == [], pres.name
    assert checked >= 5000


def test_longest_path_matches_the_oracle():
    cyclic = acyclic = 0
    for pres in seeded_presentations():
        got = _longest(pres)
        if edge_cycle_oracle(pres):
            assert got is None, pres.name
            cyclic += 1
        else:
            assert got == longest_path_oracle(pres), pres.name
            acyclic += 1
    assert cyclic >= 20 and acyclic >= 60


def test_long_chains_stay_clear_of_the_recursion_limit():
    assert _longest(chain(1100)) == 1100
    assert _longest(chain(1100, closed=True)) is None


def test_long_chain_has_one_range_type_per_edge():
    """Every range of the chain is its own atom, so the chain has as many
    range types as edges."""
    pres = chain(1100)
    ranges = [pres.edges[eid].range for eid in sorted(pres.edges)]
    atoms = VertexSet.refine(ranges)
    assert sorted(held for _, held in atoms) == [(i,) for i in range(1100)]
    assert all(atom == ranges[held[0]] for atom, held in atoms)
    assert is_unital(pres)


def test_validate_drops_the_cached_paths():
    pres = load("one_edge.ug")
    assert all_paths(pres, 2) == []
    pres.edges["f"] = Edge("f", VertexRef("v", 0), VertexSet.of(VertexRef("u", 0)))
    pres.validate()
    assert all_paths(pres, 2) == all_paths_oracle(pres, 2) == [
        (EdgeInst("e"), EdgeInst("f")),
        (EdgeInst("f"), EdgeInst("e")),
    ]


def test_mutating_a_returned_list_leaves_the_cache_intact():
    pres = load("two_range.ug")
    first = all_paths(pres, 2)
    first.clear()
    all_paths(pres, 1).append(("junk",))
    assert all_paths(pres, 1) == all_paths_oracle(pres, 1)
    assert all_paths(pres, 2) == all_paths_oracle(pres, 2)
    assert all_paths(pres, 3) == all_paths_oracle(pres, 3)


# -- the product --------------------------------------------------------------


@pytest.mark.dash_o
def test_products_match_the_all_pairs_oracle():
    rng = random.Random(2025)
    empty_beta = empty_gamma = pruned = 0
    for pres in seeded_presentations():
        for _ in range(3):
            x = random_homogeneous(rng, pres, rng.randint(-2, 2))
            y = random_homogeneous(rng, pres, rng.randint(-2, 2))
            empty_beta += any(not beta for _, beta in x.terms)
            empty_gamma += any(not gamma for gamma, _ in y.terms)
            pruned += any(b and g and b[0] != g[0] for _, b in x.terms for g, _ in y.terms)
            assert multiply(x, y) == multiply_oracle(x, y)
            # the prefix index, once built, serves later products
            assert multiply(y, x) == multiply_oracle(y, x)
            assert multiply(x, x) == multiply_oracle(x, x)
        x, y = random_element(rng, pres), random_element(rng, pres)
        assert multiply(x, y) == multiply_oracle(x, y)
    assert empty_beta >= 100 and empty_gamma >= 100 and pruned >= 100


@pytest.mark.dash_o
def test_products_match_the_first_edge_oracle():
    pairs = 0
    # every product of the associativity test
    rng = random.Random(301)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        for a, b in ((x, y), (y, z), (multiply(x, y), z), (x, multiply(y, z))):
            assert multiply(a, b) == multiply_first_edge_oracle(a, b)
            pairs += 1
    # the expanded epsilon units of layered DAGs with their generators
    # and with each other, so that either factor can be the larger
    for w, d in ((2, 4), (3, 4), (3, 5)):
        pres = layered_dag(w, d)
        units = epsilon_candidate(pres)
        for n in range(1, d + 1):
            cand = expand_unit(pres, units, n)
            neg = expand_unit(pres, units, -n)
            gens = [AlgebraElement.s(pres, p) for p in all_paths(pres, n)]
            gens += [star(g) for g in gens]
            gens += [AlgebraElement.projection(pres, r) for r in last_ranges_oracle(pres, n)]
            for g in gens + [cand, star(cand), neg]:
                for a, b in ((cand, g), (g, cand), (neg, g), (g, neg)):
                    assert multiply(a, b) == multiply_first_edge_oracle(a, b), (pres.name, n)
                    pairs += 1
    assert pairs >= 2000


def _every_term_is_cut(z):
    """Whether every term s_α p_A s_β* of z has A inside r(α[-1]) and
    r(β[-1]), for the paths that are nonempty."""
    pres = z.pres
    for (alpha, beta), pieces in z.terms.items():
        for _, vs in pieces:
            for path in (alpha, beta):
                if path and not vs.subset_of(pres.edge_range(path[-1])):
                    return False
    return True


@pytest.mark.dash_o
def test_products_keep_every_term_cut():
    """multiply no longer cuts each combined term to its ranges: the terms
    it combines are cut already (AlgebraElement).  On the seeded pairs of
    both product oracles, which still cut every term, the products are
    unchanged and every term of every factor and product is cut."""
    rng = random.Random(2025)
    pairs = []
    for pres in seeded_presentations():
        for _ in range(3):
            x = random_homogeneous(rng, pres, rng.randint(-2, 2))
            y = random_homogeneous(rng, pres, rng.randint(-2, 2))
            pairs += [(x, y, multiply_oracle), (y, x, multiply_oracle), (x, x, multiply_oracle)]
        pairs.append((random_element(rng, pres), random_element(rng, pres), multiply_oracle))
    rng = random.Random(301)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        for a, b in ((x, y), (y, z), (multiply(x, y), z), (x, multiply(y, z))):
            pairs.append((a, b, multiply_first_edge_oracle))
    nonzero = 0
    for x, y, oracle in pairs:
        got = multiply(x, y)
        assert got == oracle(x, y)
        assert _every_term_is_cut(x) and _every_term_is_cut(y) and _every_term_is_cut(got)
        nonzero += not got.is_zero()
    assert len(pairs) >= 1500 and nonzero >= 500, (len(pairs), nonzero)


@pytest.mark.dash_o
def test_one_term_products_match_the_all_pairs_oracle(monkeypatch):
    """A product of two one-term factors takes no normal form: its one
    piece is its own normal form, and a product with none is zero, also
    when the pair is compatible and _combine drops every piece.  On seeded
    pairs of cut monomials, its inner paths β and γ picked so that each
    way of meeting occurs, the product is the all-pairs oracle's and every
    term of it is cut."""
    real_atomize = algebra._atomize
    atomized = []

    def counted_atomize(pairs):
        atomized.append(pairs)
        return real_atomize(pairs)

    monkeypatch.setattr(algebra, "_atomize", counted_atomize)
    rng = random.Random(4242)
    cases = Counter()
    for pres in seeded_presentations():
        paths = [p for k in range(4) for p in all_paths_oracle(pres, k)]
        for _ in range(20):
            beta = rng.choice(paths)
            near = [p for p in paths if p[: len(beta)] == beta or beta[: len(p)] == p]
            gamma = rng.choice(near if rng.random() < 0.7 else paths)
            a_set = random_vertex_set(rng, pres)
            b_set = random_vertex_set(rng, pres)
            if rng.random() < 0.3:  # a middle that misses x's
                b_set = pres.g0_universe().difference(a_set) or b_set
            x = AlgebraElement.monomial(pres, rng.choice(paths), a_set, beta, rng.choice([1, 1, -2, Fraction(1, 3)]))
            y = AlgebraElement.monomial(pres, gamma, b_set, rng.choice(paths), rng.choice([1, 1, 3, Fraction(-1, 2)]))
            if len(x.terms) != 1 or len(y.terms) != 1:
                continue
            before = len(atomized)
            got = multiply(x, y)
            assert len(atomized) == before, "a one-term product took the normal form"
            assert got == multiply_oracle(x, y), (pres.name, x.terms, y.terms)
            assert _every_term_is_cut(got)
            nb, ng = len(beta), len(gamma)
            if beta[: min(nb, ng)] == gamma[: min(nb, ng)]:
                cases["no piece"] += not algebra._combine(pres, *x.terms.items(), *y.terms.items())[1]
            if beta == gamma:
                cases["equal"] += 1
                cases["empty meet"] += got.is_zero()
            elif nb < ng and gamma[:nb] == beta:
                cases["beta proper prefix"] += 1
            elif ng < nb and beta[:ng] == gamma:
                cases["gamma proper prefix"] += 1
            else:
                cases["incompatible"] += 1
                assert got.is_zero()
            cases["coefficient not 1"] += any(c != 1 for pieces in got.terms.values() for c, _ in pieces)
            cases["pairs"] += 1
    assert cases["pairs"] >= 500 and min(cases.values()) >= 50, cases


# -- the epsilon-unit path ------------------------------------------------------


def relevant_edges_oracle(pres, m):
    """The edges e that begin a path p of some length j whose last range
    meets the last range of a path of length j + m.  Step j holds the set
    of edges that end a path of length j from e and the set that end a
    path of length j + m, each found from the last by testing every pair
    of edges; the next step depends on these two sets alone, so the walk
    stops when a pair of them repeats."""
    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]

    def step(ends):
        return frozenset(
            f for e in ends for f in insts if pres.edge_range(e).member(pres.edge_source(f))
        )

    def meets(mine, theirs):
        return any(pres.edge_range(g).intersection(pres.edge_range(h)) for g in mine for h in theirs)

    out = []
    for e in insts:
        theirs = frozenset(insts)
        for _ in range(m):
            theirs = step(theirs)
        mine, seen = frozenset([e]), set()
        while mine and (mine, theirs) not in seen:
            seen.add((mine, theirs))
            if meets(mine, theirs):
                out.append(e)
                break
            mine, theirs = step(mine), step(theirs)
    return out


def _relevant_edges(pres, m):
    """The edges whose child the library keeps at degree −m: B(e) >= m."""
    return [e for e, b in algebra._relevance_bounds(pres).items() if b >= m]


@pytest.mark.dash_o
def test_relevant_edges_and_negative_units_match_the_path_oracle():
    """The relevant edges, read off the bounds B(e) of one pass per
    presentation, against the walk per edge and length, for every length
    up to one past the settle length, on cyclic and acyclic input and on
    the finite-edge corpus, infinite ranges included; and each negative
    unit, up to two past the settle length, expands to the path-by-path
    listing, which never walks around a cycle."""
    relevant = cyclic = terms = 0
    for pres in seeded_presentations() + _finite_edge_corpus():
        profile = incoming_length_profile(pres)
        cyclic += profile.longest is None
        units = epsilon_candidate(pres)
        for m in range(1, profile.settle + 2):
            got = _relevant_edges(pres, m)
            assert got == relevant_edges_oracle(pres, m), (pres.name, m)
            relevant += len(got)
        for m in range(1, profile.settle + 3):
            listed = negative_unit_listing_oracle(pres, m)
            assert expand_unit(pres, units, -m) == listed, (pres.name, m)
            terms += sum(1 for alpha, _ in listed.terms if alpha)
    assert relevant >= 500 and cyclic >= 20 and terms >= 100, (relevant, cyclic, terms)


def _spy(monkeypatch):
    """Every product that the library's code makes, as (x, y) pairs."""
    calls = []
    real = algebra.multiply

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(algebra, "multiply", spy)
    return calls


def _edge_sum(pres, edges):
    return sum((AlgebraElement.s(pres, (e,)) for e in edges), AlgebraElement.zero(pres))


def expected_unit_products(pres, units):
    """The products of the check, built from the generators: L(V) S and
    S* L(V), with L(V) = Σ s_e s_e* and S = Σ s_e over all edges; and, for
    each distinct (A, P, children) among the nodes, Λ y and y* Λ, with
    Λ = p_P + Σ s_e s_e* over the children and y = p_P + Σ s_e over the
    out-edges e of A with s(e) in P or a child."""
    edges = pres.all_edge_insts()
    level = sum((multiply(_edge_sum(pres, [e]), star(_edge_sum(pres, [e]))) for e in edges), AlgebraElement.zero(pres))
    s = _edge_sum(pres, edges)
    want = Counter({(level, s): 1, (star(s), level): 1})
    distinct = {(a, head, tuple(e for e, _ in kids)) for (_, a), (head, kids) in units.items()}
    for a, head, children in distinct:
        p = AlgebraElement.projection(pres, head)
        out = [e for e in edges if a.member(pres.edge_source(e))]
        lam = p + sum((multiply(_edge_sum(pres, [e]), star(_edge_sum(pres, [e]))) for e in children), AlgebraElement.zero(pres))
        y = p + _edge_sum(pres, [e for e in out if head.member(pres.edge_source(e)) or e in children])
        want[(lam, y)] += 1
        want[(star(y), lam)] += 1
    return want


@pytest.mark.dash_o
def test_unit_levels_are_multiplied_once_per_distinct_level(monkeypatch):
    """The check makes exactly two products for the positive side, L(V)
    against the sum of all edges on either side, and two per distinct
    one-level element of the negative nodes, however many nodes, degrees
    and range types share it; a product that drops every term fails."""
    calls = _spy(monkeypatch)
    rng = random.Random(2027)
    inputs = [layered_dag(3, 5), layered_dag(2, 6), load("ef.ug"), load("source_chain64.ug")]
    inputs += [random_dag(rng) for _ in range(100)] + [p for p in seeded_presentations() if is_unital(p)]
    shared = cyclic = 0
    for pres in inputs:
        units = epsilon_candidate(pres)
        calls.clear()
        verify_epsilon(pres, units)
        want = expected_unit_products(pres, units)
        assert Counter(calls) == want, pres.name
        shared += len(units) - (len(calls) - 2) // 2
        cyclic += _longest(pres) is None
    assert shared >= 2000 and cyclic >= 10, (shared, cyclic)
    monkeypatch.setattr(algebra, "multiply", lambda x, y: AlgebraElement.zero(x.pres))
    pres = layered_dag(3, 3)
    with pytest.raises(CertificateError, match=r"L\(V\) is not a unit on the edges, so neither is N\(n, V\)"):
        verify_epsilon(pres, epsilon_candidate(pres))


@pytest.mark.dash_o
def test_a_unit_wrong_on_one_shared_range_is_rejected():
    """Six sources feed a hub whose one edge reaches v[7], so six paths of
    length 2 share the last range {v[7]}; one more path ends in {v[10]}.
    A degree -2 unit that misses only v[7] fails the check of its node,
    and the direct identities reject it too; no edge begins a longer path
    into those ranges, so c_2 has no child."""
    pres = UltragraphPresentation("fan", {"v": 11})
    ends = {f"f{i}": (i, 6) for i in range(6)}
    ends.update(h=(6, 7), a=(8, 9), b=(9, 10))
    for eid, (src, dst) in ends.items():
        pres.edges[eid] = Edge(eid, VertexRef("v", src), VertexSet.of(VertexRef("v", dst)))
    pres.validate()
    assert len(all_paths(pres, 2)) == 7
    assert set(last_ranges_oracle(pres, 2)) == {VertexSet.of(VertexRef("v", 10)), VertexSet.of(VertexRef("v", 7))}
    assert _relevant_edges(pres, 2) == []
    units = epsilon_candidate(pres)
    universe = pres.g0_universe()
    v7, v10 = VertexRef("v", 7), VertexRef("v", 10)
    assert units[(2, universe)] == (VertexSet.of(v7, v10), ())
    verify_epsilon(pres, units)
    assert direct_identities_oracle(pres, units, 4) is None
    wrong = {**units, (2, universe): (VertexSet.of(v10), ())}
    with pytest.raises(CertificateError, match=r"node D\(2, V\) does not follow its rule"):
        verify_epsilon(pres, wrong)
    assert direct_identities_oracle(pres, wrong, 4) == -2


def _raw_edge_sum(pres, head, edges, star):
    """p_head + Σ s_e over the edges, or p_head + Σ s_e* when star, through
    _from_raw, as the unit check built it before its elements were built
    directly."""
    raw = {((), ()): [(1, head)]}
    for e in edges:
        raw[((), (e,)) if star else ((e,), ())] = [(1, pres.edge_range(e))]
    return AlgebraElement._from_raw(pres, raw)


def _raw_unit_factors(pres, units):
    """The factors of the check's products in order, each element built
    through _from_raw as before: L(V) against the sum of all edges, then
    for each distinct one-level element of the nodes Λ against p_P plus
    the kept edges."""
    rng = pres.edge_range
    out = algebra._type_out_edges(pres)
    edges = out[pres.g0_universe()]
    level = AlgebraElement._from_raw(pres, {((e,), (e,)): [(1, rng(e))] for e in edges})
    y, y_star = _raw_edge_sum(pres, VertexSet.empty(), edges, False), _raw_edge_sum(pres, VertexSet.empty(), edges, True)
    factors = [(level, y), (y_star, level)]
    levels = algebra._unit_levels(pres)
    seen = set()
    for (m, a), (head, kids) in units.items():
        children = tuple(e for e, _ in kids)
        if (a, head, children) in seen:
            continue
        seen.add((a, head, children))
        raw = {((e,), (e,)): [(1, rng(e))] for e in children}
        raw[((), ())] = [(1, head)]
        level = AlgebraElement._from_raw(pres, raw)
        kept = [e for e in out[a] if m <= levels[e][0] or e in children]
        y, y_star = _raw_edge_sum(pres, head, kept, False), _raw_edge_sum(pres, head, kept, True)
        factors += [(level, y), (y_star, level)]
    return factors


@pytest.mark.dash_o
def test_unit_sums_match_the_raw_construction(monkeypatch):
    """The unit check builds L(V), each Λ, each y = p_P + Σ s_e and y*
    directly in normal form; each equals the element that _from_raw
    builds from the same pieces, term for term and in the same key order,
    every piece one nonzero coefficient on a nonempty set; and the check
    multiplies them in the order it did.  On the finite-edge corpus, the
    seeded unital inputs, 100 random DAGs and the layered DAGs."""
    calls = _spy(monkeypatch)
    rng = random.Random(2040)
    inputs = [p for p in _finite_edge_corpus() + seeded_presentations() if is_unital(p)]
    inputs += [random_dag(rng) for _ in range(100)] + [layered_dag(3, d) for d in (3, 5)]
    empty_head = 0
    for pres in inputs:
        units = epsilon_candidate(pres)
        calls.clear()
        verify_epsilon(pres, units)
        want = _raw_unit_factors(pres, units)
        assert len(calls) == len(want), pres.name
        for got, raw in zip(calls, want):
            for x, y in zip(got, raw):
                assert list(x.terms.items()) == list(y.terms.items()), pres.name
                assert all(len(p) == 1 and p[0][0] == 1 and not p[0][1].is_empty() for p in x.terms.values())
        empty_head += sum(((), ()) not in x.terms for x, _ in calls[2::2])
    assert empty_head >= 30, empty_head


@pytest.mark.dash_o
def test_long_chains_have_checked_unit_certificates():
    """The chains of 70 and 200 edges and the chain of 64 into a loop,
    over the old path-length cap, read Yes with a re-checked certificate.
    On a chain no edge source outside reached(m) leads back into it, so
    c_m is p_{reached(m)}, one node per degree up to the longest path; the
    chain into the loop needs nodes with children."""
    for name, longest in (("chain70.ug", 70), ("chain_named200.ug", 200), ("source_chain64.ug", None)):
        pres = load(name)
        profile = incoming_length_profile(pres)
        assert profile.longest == longest
        eps = analyze(pres)["gradings"]["eps_strong_z"]
        assert eps["status"] == "Yes" and eps["certificate"]["kind"] == "epsilon_unit_nodes", name
        units = epsilon_candidate(pres)
        verify_epsilon(pres, units)
        if longest is not None:
            assert sorted(units) == [(m, pres.g0_universe()) for m in range(1, longest + 1)]
            for m in (1, longest // 2, longest, longest + 1):
                assert expand_unit(pres, units, -m) == AlgebraElement.projection(pres, profile.reached(m))
            assert eps["certificate"]["units"][f"<= -{longest + 1}"] == "0"
        else:
            assert any(kids for _, kids in units.values())
            assert expand_unit(pres, units, -70) == negative_unit_listing_oracle(pres, 70)


def test_term_count_cap_is_undetermined(monkeypatch):
    pres = load("one_edge.ug")
    assert classify_eps_strong_z(pres).status == "Yes"
    monkeypatch.setattr(algebra, "TERM_COUNT_CAP", 0)
    pres.validate()
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Undetermined"
    assert verdict.reasons[-1] == "unit certificate hit TERM_COUNT_CAP: 1 terms exceed the cap 0"


def _reaches_the_unit_stage(pres):
    return is_unital(pres) and 1 in incoming_length_profile(pres).depth.values()


def largest_check_element(pres, units):
    """The most terms of an element that the unit stage builds: p_V, L(V)
    and the sum of all edges, and per node Λ, with one term for p_P and
    one per child, and y, with one term for p_P and one per kept edge."""
    sizes = [1, len(pres.edges)]
    for (m, a), (head, kids) in units.items():
        out = [e for e in pres.all_edge_insts() if a.member(pres.edge_source(e))]
        kept = [e for e in out if head.member(pres.edge_source(e)) or any(e == k for k, _ in kids)]
        p = 0 if head.is_empty() else 1
        sizes += [p + len(kids), p + len(kept)]
    return max(sizes)


@pytest.mark.dash_o
def test_term_count_cap_fires_exactly_above_the_largest_check_element(monkeypatch):
    """Under small caps, the classifier reads Undetermined, naming the
    cap, exactly when an element of the unit stage has more terms than
    the cap; otherwise it reads Yes."""
    rng = random.Random(2034)
    inputs = [load("one_edge.ug"), load("two_range.ug"), load("ef.ug"), layered_dag(2, 3), layered_dag(3, 4)]
    inputs += [p for p in (random_presentation(rng, sinkless=bool(i % 2)) for i in range(200))]
    inputs = [p for p in inputs if _reaches_the_unit_stage(p)]
    largest = {id(p): largest_check_element(p, epsilon_candidate(p)) for p in inputs}
    seen = Counter()
    for cap in (0, 1, 2, 3, 5, 8):
        monkeypatch.setattr(algebra, "TERM_COUNT_CAP", cap)
        for pres in inputs:
            pres.validate()
            verdict = classify_eps_strong_z(pres)
            if largest[id(pres)] > cap:
                assert verdict.status == "Undetermined", (pres.name, cap)
                assert verdict.reasons[-1].startswith("unit certificate hit TERM_COUNT_CAP: "), verdict.reasons
                assert verdict.reasons[-1].endswith(f" terms exceed the cap {cap}")
            else:
                assert verdict.status == "Yes", (pres.name, cap)
            seen[verdict.status] += 1
    assert seen["Undetermined"] >= 50 and seen["Yes"] >= 50, seen


def _unit_inputs():
    """(presentation, the degrees n > 0 to try): up to one past the
    longest path on acyclic input, and up to 3 over a cycle."""
    rng = random.Random(2031)
    inputs = _finite_edge_corpus()
    inputs += [p for p in seeded_presentations() if is_unital(p)]
    inputs += [random_dag(rng) for _ in range(200)]
    inputs += [layered_dag(w, d) for w, d in ((2, 4), (3, 4), (3, 5), (3, 6), (3, 7))]
    for pres in inputs:
        longest = _longest(pres)
        yield pres, range(1, (3 if longest is None else longest + 1) + 1)


@pytest.mark.dash_o
def test_unit_nodes_expand_to_the_path_listing():
    """The type table stands for the unit that was listed path by path,
    term for term, in every degree, on cyclic input too, and the
    path-by-path check passes; past the longest path the unit is zero."""
    checked = zero = cyclic = 0
    for pres, degrees in _unit_inputs():
        units = epsilon_candidate(pres)
        verify_epsilon(pres, units)
        cyclic += _longest(pres) is None
        for n in degrees:
            listed = unit_listing_oracle(pres, n)
            assert expand_unit(pres, units, n) == listed, (pres.name, n)
            assert verify_listing_oracle(pres, n, listed)
            zero += listed.is_zero()
            checked += 1
    assert checked >= 800 and zero >= 200 and cyclic >= 10, (checked, zero, cyclic)


def _fed(rng: random.Random, pres: UltragraphPresentation) -> UltragraphPresentation:
    """pres with one more vertex u and an edge from u into one or two of
    its vertices: u lies in no range, so the units of negative degree
    need nodes with children wherever the edge leads on."""
    pres.vertex_families["u"] = 1
    members = rng.sample(range(pres.vertex_families["v"]), min(2, pres.vertex_families["v"]))
    pres.edges["feed"] = Edge("feed", VertexRef("u", 0), VertexSet.of(*(VertexRef("v", j) for j in members)))
    pres.validate()
    return pres


def _direct_inputs():
    """The finite-edge corpus with at most 20 edges, 500 seeded random
    presentations that have a unit, a quarter sinkless, a quarter not and
    half fed by one more source (_fed), most of them cyclic; and 100
    seeded random DAGs."""
    rng = random.Random(2037)
    out = [p for p in _finite_edge_corpus() if is_unital(p)]
    while len(out) < 500 + 7:
        pres = random_presentation(rng, max_vertices=4, max_edges=5, sinkless=len(out) % 4 == 1)
        if len(out) % 2 == 0:
            pres = _fed(rng, pres)
        if is_unital(pres):
            out.append(pres)
    return out + [random_dag(rng, max_vertices=5, max_edges=6) for _ in range(100)]


@pytest.mark.dash_o
def test_one_check_matches_the_per_degree_oracle():
    """The one check of all degrees and the direct identities of each
    degree checked alone agree: c_m x = x and x* c_m = x* for every
    x = s_α p_{r(α)∩R(|α|+m)} with |α| and m up to two past the settle
    length, ε_0 against the generators and ε_n against the paths of
    length n.  Both accept the library's certificates, on the corpus and
    on 600 seeded inputs, at least 100 of them cyclic and 100 acyclic, and
    both reject a certificate with a dropped child or a vertex missing
    from a node's set, each at least 100 times."""
    rng = random.Random(2038)
    cyclic = acyclic = 0
    rejected = Counter()
    for pres in _direct_inputs():
        profile = incoming_length_profile(pres)
        cyclic += profile.longest is None
        acyclic += profile.longest is not None
        bound = profile.settle + 2
        units = epsilon_candidate(pres)
        verify_epsilon(pres, units)
        assert direct_identities_oracle(pres, units, bound) is None, pres.name
        for kind, (key, bad) in _shrunk(units, rng).items():
            _assert_rejected(pres, bad, key)
            assert direct_identities_oracle(pres, bad, bound) is not None, (pres.name, kind)
            rejected[kind] += 1
    assert cyclic >= 100 and acyclic >= 100 and min(rejected.values(), default=0) >= 100, (cyclic, acyclic, rejected)
    # the long corpus files, with paths up to length 2 only
    for name in ("chain70.ug", "source_chain64.ug", "dag2x14.ug"):
        pres = load(name)
        units = epsilon_candidate(pres)
        bound = incoming_length_profile(pres).settle + 2
        assert direct_identities_oracle(pres, units, bound, lengths=2) is None, name


@pytest.mark.dash_o
def test_unit_identities_hold_in_the_skew_product_model():
    """The direct identities re-multiplied in the partial skew group ring,
    through phi_of_element and skew_multiply, which share no code with
    multiply: φ(c_m) φ(x) = φ(x) and φ(x*) φ(c_m) = φ(x*) for every
    x = s_α p_{r(α)∩R(|α|+m)} with |α| and m up to two past the settle
    length, and φ(ε_n) φ(s_β) = φ(s_β) and φ(s_β*) φ(ε_n) = φ(s_β*) for
    the paths β of length n up to the same bound.  On the finite corpus
    and seeded finite inputs, 60 in all, at least 20 of them cyclic; a
    unit with a dropped child fails in the model too."""
    rng = random.Random(2040)
    inputs = [p for p in _finite_edge_corpus() if p.is_finite and is_unital(p) and len(p.edges) <= 6]
    while len(inputs) < 60:
        pres = random_presentation(rng, max_vertices=4, max_edges=4, sinkless=len(inputs) % 4 == 1)
        if len(inputs) % 2 == 0:
            pres = _fed(rng, pres)
        if is_unital(pres):
            inputs.append(pres)
    cyclic = checked = dropped = 0
    for pres in inputs:
        profile = incoming_length_profile(pres)
        cyclic += profile.longest is None
        bound = profile.settle + 2
        units = epsilon_candidate(pres)
        images = _GeneratorImages(pres)  # phi_of_element's map, one memo per input
        universe = pres.g0_universe()
        # φ(s_α) and φ(s_α*) for every path α up to the bound, each built
        # from the one a step shorter by one skew product
        s_of, st_of = {(): images.p(universe)}, {(): images.p(universe)}
        for k in range(1, bound + 1):
            for alpha in all_paths_oracle(pres, k):
                s_of[alpha] = skew_multiply(s_of[alpha[:-1]], images.s(alpha[-1]))
                st_of[alpha] = skew_multiply(images.st(alpha[-1]), st_of[alpha[:-1]])

        def pairs(m):
            """(φ(x), φ(x*)) for x = s_α p_{r(α)∩R(|α|+m)} over the paths α."""
            for alpha in s_of:
                last = pres.edge_range(alpha[-1]) if alpha else universe
                p = images.p(last.intersection(profile.reached(len(alpha) + m)))
                yield skew_multiply(s_of[alpha], p), skew_multiply(p, st_of[alpha])

        def holds(unit, xs):
            u = images.of_element(unit)
            return all(skew_multiply(u, x) == x and skew_multiply(x_star, u) == x_star for x, x_star in xs)

        for m in range(1, bound + 1):
            assert holds(expand_unit(pres, units, -m), pairs(m)), (pres.name, -m)
            checked += 1
        for n in range(1, bound + 1):
            betas = ((s_of[beta], st_of[beta]) for beta in all_paths_oracle(pres, n))
            assert holds(expand_unit(pres, units, n), betas), (pres.name, n)
        _, bad = _shrunk(units, rng).get("dropped child", (None, None))
        if bad is not None:
            assert not all(holds(expand_unit(pres, bad, -m), pairs(m)) for m in range(1, bound + 1)), pres.name
            dropped += 1
    assert cyclic >= 20 and checked >= 150 and dropped >= 10, (cyclic, checked, dropped)


def _assert_rejected(pres, bad, key):
    """verify_epsilon raises on the table bad, naming the root, node or
    child at key."""
    name = re.escape(algebra._unit_name(pres, key))
    with pytest.raises(CertificateError, match=rf"(root|node|child) {name} "):
        verify_epsilon(pres, bad)


def _shrunk(units, rng: random.Random):
    """Tables whose units lose a term, as kind -> (the key of the node the
    check must name, the table): a node with one child dropped, and a node
    whose set misses one vertex, each a fresh copy of units."""
    out = {}
    with_kids = [key for key, (_, kids) in units.items() if kids]
    if with_kids:
        key = rng.choice(with_kids)
        head, kids = units[key]
        i = rng.randrange(len(kids))
        out["dropped child"] = key, {**units, key: (head, kids[:i] + kids[i + 1 :])}
    with_set = [key for key, (head, _) in units.items() if not head.is_empty()]
    if with_set:
        key = rng.choice(with_set)
        head, kids = units[key]
        have = list(itertools.islice(head.iter_vertices(), 50))
        out["missing vertex"] = key, {**units, key: (head.difference(VertexSet.of(rng.choice(have))), kids)}
    return out


def _sabotaged(pres, units, rng: random.Random):
    """One table per kind of sabotage, as kind -> (the key the check must
    name, the table), each a fresh copy of units: the shrunk ones; a
    node's set with one vertex of A outside R(m) added; a child pointer
    retargeted to another listed node of the same type; a child whose node
    is not listed; and a root left out."""
    out = _shrunk(units, rng)
    profile = incoming_length_profile(pres)
    grow = [
        (key, extra)
        for key in units
        for extra in [key[1].difference(profile.reached(key[0]))]
        if not extra.is_empty()
    ]
    if grow:
        key, extra = rng.choice(grow)
        head, kids = units[key]
        v = rng.choice(list(itertools.islice(extra.iter_vertices(), 50)))
        out["extra vertex"] = key, {**units, key: (head.union(VertexSet.of(v)), kids)}
    pointers = [(key, i) for key, (_, kids) in units.items() for i in range(len(kids))]
    if pointers:
        key, i = rng.choice(pointers)
        child = units[key][1][i][1]
        out["unlisted child"] = child, {other: node for other, node in units.items() if other != child}
    moves = [
        (key, i, other)
        for key, (_, kids) in units.items()
        for i, (_, child) in enumerate(kids)
        for other in units
        if other[1] == child[1] and other != child
    ]
    if moves:
        key, i, other = rng.choice(moves)
        head, kids = units[key]
        out["retargeted child"] = key, {**units, key: (head, kids[:i] + ((kids[i][0], other),) + kids[i + 1 :])}
    roots = [key for key in units if key[1] == pres.g0_universe()]
    if roots:
        root = rng.choice(roots)
        out["root left out"] = root, {key: node for key, node in units.items() if key != root}
    return out


@pytest.mark.dash_o
def test_sabotaged_unit_nodes_are_rejected():
    """Every kind of sabotage of the certificate raises CertificateError
    naming the node, root or child at fault, each kind at least 100
    times, on acyclic and cyclic input, chains into a loop included, whose
    nodes of one type recur at many lengths; the library's own
    certificate passes."""
    rng = random.Random(2032)
    kinds = ("dropped child", "missing vertex", "extra vertex", "retargeted child", "unlisted child", "root left out")
    seen = dict.fromkeys(kinds, 0)
    inputs = [pres for pres, _ in _unit_inputs()] + _direct_inputs()
    inputs += [source_chain(n) for n in range(2, 40)]
    for pres in inputs:
        units = epsilon_candidate(pres)
        for kind, (key, bad) in _sabotaged(pres, units, rng).items():
            _assert_rejected(pres, bad, key)
            seen[kind] += 1
        verify_epsilon(pres, units)
    assert min(seen.values()) >= 100, seen


def _f_degree(key):
    return FreeWord.from_path(key[0]) * FreeWord.from_path(key[1], sign=-1)


def _level_keys(units):
    """The first node of each distinct one-level element (A, P, children),
    in the order the check multiplies them."""
    firsts = {}
    for (m, a), (head, kids) in units.items():
        firsts.setdefault((a, head, tuple(e for e, _ in kids)), (m, a))
    return list(firsts.values())


@pytest.mark.dash_o
def test_sabotaged_units_are_rejected(monkeypatch):
    """A multiply that drops one free-group component of one product of
    the check that has several is rejected, the error naming N(n, V) for
    the products of L(V) and otherwise the first node of the one-level
    element whose product it was, at least 100 times."""
    rng = random.Random(2036)
    seen = dict.fromkeys(("dropped component",), 0)
    real = algebra.multiply
    more = (random_dag(rng) for _ in range(300))
    inputs = itertools.chain(_unit_inputs(), ((p, range(1, _longest(p) + 2)) for p in more))
    for pres, degrees in inputs:
        units = epsilon_candidate(pres)
        # the products with several free-group components, counted on a
        # clean run, and then one of them loses one component
        several = []

        def counting(x, y):
            z = real(x, y)
            several.append(len({_f_degree(k) for k in z.terms}) > 1)
            return z

        monkeypatch.setattr(algebra, "multiply", counting)
        verify_epsilon(pres, units)
        eligible = [i for i, many in enumerate(several) if many]
        if not eligible:
            monkeypatch.setattr(algebra, "multiply", real)
            continue
        target = rng.choice(eligible)
        count = itertools.count()

        def dropping(x, y):
            z = real(x, y)
            if next(count) == target:
                gone = rng.choice(sorted({_f_degree(k) for k in z.terms}, key=repr))
                z = AlgebraElement(pres, {k: v for k, v in z.terms.items() if _f_degree(k) != gone})
            return z

        monkeypatch.setattr(algebra, "multiply", dropping)
        if target < 2:
            named = r"N\(n, V\)"
        else:
            named = re.escape(f"node {algebra._unit_name(pres, _level_keys(units)[(target - 2) // 2])} ")
        with pytest.raises(CertificateError, match=named):
            verify_epsilon(pres, units)
        monkeypatch.setattr(algebra, "multiply", real)
        seen["dropped component"] += 1
    assert min(seen.values()) >= 100, seen


@pytest.mark.dash_o
def test_a_negative_unit_of_mixed_degree_is_rejected():
    """Four parallel edges a -> {b, c} and g : b -> {c}.  With
    x = (s_f − s_f') p_{b,c} (s_e1* − s_e2*), the one-level element Λ of
    c_1 = D(1, V) plus x passes both products of that node's check:
    x s_e1 = −x s_e2 and s_f* x = −s_f'* x, so x cancels against the sum
    of the kept edges on either side, and a, the source of x's paths,
    lies in no range.  But (c_1 + x) s_e1 ≠ s_e1.  A node holds only a
    vertex set and child edges, compared with its rule before any
    product, so a certificate whose node (1, V) holds p_{b,c} + x in
    place of its set is rejected, the error naming that node."""
    pres = parse_presentation(
        "ultragraph fan4\nvertex a\nvertex b\nvertex c\n"
        + "".join(f"edge {e} : a -> {{ b, c }}\n" for e in ("e1", "e2", "f", "f2"))
        + "edge g : b -> { c }\n"
    )
    units = epsilon_candidate(pres)
    verify_epsilon(pres, units)
    assert direct_identities_oracle(pres, units, 4) is None
    e1, e2, f, f2, g = (EdgeInst(e) for e in ("e1", "e2", "f", "f2", "g"))
    bc = pres.edge_range(e1)
    root = (1, pres.g0_universe())
    head, kids = units[root]
    assert head == bc and [e for e, _ in kids] == [e1, e2, f, f2]
    x = AlgebraElement.zero(pres)
    for a, b, c in ((f, e1, 1), (f, e2, -1), (f2, e1, -1), (f2, e2, 1)):
        x = x + AlgebraElement.monomial(pres, (a,), bc, (b,), c)
    # the products of the node's check let Λ + x through
    level = AlgebraElement.projection(pres, bc) + sum(
        (multiply(_edge_sum(pres, [e]), star(_edge_sum(pres, [e]))) for e, _ in kids), AlgebraElement.zero(pres)
    )
    y = AlgebraElement.projection(pres, bc) + _edge_sum(pres, [e1, e2, f, f2, g])
    assert multiply(level, y) == y and multiply(star(y), level) == star(y)
    assert multiply(level + x, y) == y and multiply(star(y), level + x) == star(y)
    se1 = _edge_sum(pres, [e1])
    assert multiply(expand_unit(pres, units, -1) + x, se1) != se1
    bad = {**units, root: (AlgebraElement.projection(pres, bc) + x, kids)}
    with pytest.raises(CertificateError, match=r"node D\(1, V\) does not follow its rule"):
        verify_epsilon(pres, bad)


@pytest.mark.dash_o
def test_one_classification_makes_few_products(monkeypatch):
    """The whole classification makes exactly the products of the check:
    two for all positive degrees and two per distinct one-level element.
    The layered DAGs of the benchmark stay within 16 products at 3 × 7
    and 26 at 3 × 12, where the check before the type table made 110 and
    190; a cycle fed by a source takes 6."""
    calls = _spy(monkeypatch)
    cases = [(layered_dag(3, 7), 16), (layered_dag(3, 12), 26), (layered_dag(2, 4), None), (layered_dag(3, 5), None)]
    cases.append((fed_cycle(60), 6))
    for pres, most in cases:
        units = epsilon_candidate(pres)
        calls.clear()
        assert classify_eps_strong_z(pres).status == "Yes"
        assert Counter(calls) == expected_unit_products(pres, units), pres.name
        if most is not None:
            assert len(calls) <= most, (pres.name, len(calls))


@pytest.mark.dash_o
def test_unit_nodes_stay_within_longest_times_ranges():
    """The type table has one entry per range type, V included, and the
    nodes of the unit table number at most the settle length times the
    types.  On
    a layered DAG of depth d every c_m is p_{reached(m)}, one node per
    degree up to d; the chain of 64 into a loop has a node (m, {t[j]}) for
    each j < m <= 65, and 64 roots."""
    inputs = [(p, None) for p, _ in _unit_inputs()] + [
        (layered_dag(3, 12), 12),
        (load("dag2x14.ug"), 14),
        (load("source_chain64.ug"), 64 + 64 * 65 // 2 + 1),
    ]
    for pres, exact in inputs:
        units = epsilon_candidate(pres)
        types = {pres.edge_range(e) for e in algebra.edge_successors(pres)} | {pres.g0_universe()}
        assert set(algebra._type_out_edges(pres)) == types, pres.name
        settle = incoming_length_profile(pres).settle
        assert len(units) <= settle * len(types), pres.name
        assert all(1 <= m <= settle and a in types for m, a in units), pres.name
        if exact is not None:
            assert len(units) == exact, (pres.name, len(units))


# -- replacement paths of the strong-Z certificate ---------------------------


def _finite_corpus_and_random(seed: int, count: int):
    """Every finite corpus presentation, then `count` seeded ones, half of
    them sinkless."""
    for p in sorted(CORPUS.glob("*.ug")):
        pres = load(p.name)
        if pres.is_finite:
            yield pres
    rng = random.Random(seed)
    for i in range(count):
        yield random_presentation(rng, sinkless=i % 2 == 1)


@pytest.mark.dash_o
def test_replacement_paths_match_the_search_oracle():
    cases = raised = 0
    for pres in _finite_corpus_and_random(1616, 300):
        profile = incoming_length_profile(pres)
        search = PathSearch(pres)
        for u in pres.all_vertices():
            for length in range(1, profile.settle + 3):
                cases += 1
                ok, complete = search.exists(u, length)
                assert complete
                expected = search.find(u, length)
                assert (expected is not None) == ok == profile.reached(length).member(u)
                try:
                    tau = algebra._replacement_path(pres, u, length)
                except CertificateError as exc:
                    assert "no replacement path" in str(exc)
                    assert expected is None, (pres.name, u, length)
                    raised += 1
                    continue
                assert tau == expected, (pres.name, u, length)
                assert pres.is_path(tau) and pres.edge_range(tau[-1]).member(u)
    assert cases > 40000 and 0 < raised < cases


@pytest.mark.dash_o
def test_certificate_branches_close_by_the_settle_length():
    """No node of the degree −1 table has k above the settle length, the
    table re-checks, and on the chains the source's nodes run down the
    chain and close at the loop with a replacement path one edge longer."""
    rng = random.Random(1717)
    longest = 0
    for _ in range(300):
        pres = random_presentation(rng, sinkless=True)
        settle = incoming_length_profile(pres).settle
        table = strong_factorization(pres, -1)
        verify_factorization(pres, table, -1)
        assert all(k <= settle for k, _ in table)
        longest = max(longest, max(k for k, _ in table))
    assert longest >= 2
    assert source_chain(64).edges == load("source_chain64.ug").edges
    for n in (64, 70, 200):
        pres = source_chain(n)
        settle = incoming_length_profile(pres).settle
        assert settle == n + 1
        table = strong_factorization(pres, -1)
        verify_factorization(pres, table, -1)
        assert all(k <= settle for k, _ in table)
        chain = [(k, VertexRef("t", k)) for k in range(n)]
        assert [table[key] for key in chain] == [
            (None, ((EdgeInst(f"a{k}"), (k + 1, VertexRef("t", k + 1) if k < n - 1 else VertexRef("c", 0))),))
            for k in range(n)
        ]
        tau, children = table[n, VertexRef("c", 0)]
        assert len(tau) == n + 1 and children == ()
        assert len(table) == len(pres.all_vertices()) + n


# -- the strong-Z certificate's check ------------------------------------------


def sinkless_layered_dag(w: int, d: int) -> UltragraphPresentation:
    """layered_dag(w, d) with a loop on each vertex of the last layer: no
    vertex is a sink, and every vertex of the first layer is a source
    whose degree −1 factorization branches down to the loops
    (corpus/sinkless_dag3x20.ug at w = 3, d = 20, renamed)."""
    pres = layered_dag(w, d)
    for j in range(w):
        v = VertexRef(f"l{d}", j)
        pres.edges[f"loop{j}"] = Edge(f"loop{j}", v, VertexSet.of(v))
    pres.validate()
    return pres


def _strongly_graded_inputs(seed: int, count: int):
    """The finite corpus files without sinks, `count` seeded sinkless
    presentations, every other one fed by a source (_fed), and the
    sinkless 3 × d DAGs for d = 2 … 5."""
    for pres in _finite_corpus_and_random(seed, 0):
        if not structural_report(pres).has_sinks:
            yield pres
    rng = random.Random(seed)
    for i in range(count):
        pres = random_presentation(rng, sinkless=True)
        yield _fed(rng, pres) if i % 2 else pres
    for d in range(2, 6):
        yield sinkless_layered_dag(3, d)


def _pairs_per_branch(pres, v, n):
    """The oracle: the pairs of p_v as they were listed before the node
    table, one per branch of the degree −1 expansion, each branch walked
    on its own and each closing branch's replacement path walked anew; or
    one pair (s_e, s_e*) per out-edge for n = 1."""
    out = pres.out_edge_map()

    def with_adjoint(alpha, beta, middle):
        piece = ((1, middle),)
        return AlgebraElement(pres, {(alpha, beta): piece}), AlgebraElement(pres, {(beta, alpha): piece})

    if n == 1:
        return [with_adjoint((e,), (), pres.edge_range(e)) for e in out[v]]
    profile = incoming_length_profile(pres)
    pairs = []
    work = [((), v)]
    while work:
        gamma, u = work.pop()
        if profile.reached(len(gamma) + 1).member(u):
            tau = algebra._replacement_path(pres, u, len(gamma) + 1)
            pairs.append(with_adjoint(gamma, tau, VertexSet.of(u)))
            continue
        for e in out[u]:
            for u2 in pres.edge_range(e).vertices():
                work.append((gamma + (e,), u2))
    return pairs


def _expanded(pres, table, v, n):
    """The node table read back into one pair per branch of p_v: each
    closing node (k, u) reached along γ gives (s_γ a, b s_γ*), multiplied
    out, for the pair (a, b) = (p_u s_τ*, s_τ p_u) of its τ; or the pair
    (s_e, s_e*) for each out-edge e that the degree 1 table lists."""
    if n == 1:
        return [(AlgebraElement.s(pres, (e,)), AlgebraElement.s_star(pres, (e,))) for e in table[v]]
    pairs = []

    def walk(gamma, key):
        tau, children = table[key]
        if tau is None:
            for e, child in children:
                walk(gamma + (e,), child)
            return
        a, b = _closing_pair(pres, tau, key[1])
        if gamma:
            a = multiply(AlgebraElement.s(pres, gamma), a)
            b = multiply(b, AlgebraElement.s_star(pres, gamma))
        pairs.append((a, b))

    walk((), (0, v))
    return pairs


def _branch_states(pres):
    """The states (k, u) that the branches of every vertex's degree −1
    expansion pass through, found by walking the oracle's expansion
    breadth first over states."""
    profile = incoming_length_profile(pres)
    out = pres.out_edge_map()
    seen = set()
    frontier = {(0, v) for v in pres.all_vertices()}
    while frontier:
        seen |= frontier
        nxt = set()
        for k, u in frontier:
            if not profile.reached(k + 1).member(u):
                nxt |= {(k + 1, w) for e in out[u] for w in pres.edge_range(e).vertices()}
        frontier = nxt - seen
    return seen


@pytest.mark.dash_o
def test_node_tables_expand_to_the_pair_per_branch_listing():
    """Read back into one pair per branch, each table lists exactly the
    pairs of the pair-per-branch expansion it replaced, vertex by vertex
    and in both degrees, as multisets; and it has one node per state the
    branches pass through.  On the sinkless 3 × d DAGs, d = 1 … 8, and
    on 200 seeded sinkless inputs, every other one fed by a source."""
    rng = random.Random(2626)
    inputs = [sinkless_layered_dag(3, d) for d in range(1, 9)]
    for i in range(200):
        pres = random_presentation(rng, sinkless=True)
        inputs.append(_fed(rng, pres) if i % 2 else pres)
    branches = 0
    for pres in inputs:
        for n in (1, -1):
            table = strong_factorization(pres, n)
            verify_factorization(pres, table, n)
            for v in pres.all_vertices():
                expected = _pairs_per_branch(pres, v, n)
                assert Counter(_expanded(pres, table, v, n)) == Counter(expected), (pres.name, v, n)
                branches += len(expected)
        assert set(strong_factorization(pres, -1)) == _branch_states(pres), pres.name
    assert branches >= 3000, branches


def _lazy_paths(pres, length):
    """The paths of the given length, lazily, in edge-id order."""
    succ = algebra.edge_successors(pres)

    def extend(path):
        if len(path) == length:
            yield path
            return
        for f in succ[path[-1]]:
            yield from extend(path + (f,))

    for e in succ:
        yield from extend((e,))


def _other_tau(pres, tau, u, path: bool):
    """A sequence of edges as long as τ in place of τ, or None: a non-path
    with τ's last edge when `path` is false, so that u stays in its last
    range; a path whose last range misses u when it is true."""
    if path:
        return next((t for t in _lazy_paths(pres, len(tau)) if not pres.edge_range(t[-1]).member(u)), None)
    for k in range(len(tau) - 1):
        for e in pres.all_edge_insts():
            other = tau[:k] + (e,) + tau[k + 1 :]
            if not pres.is_path(other):
                return other
    return None


def _closing_pair(pres, tau, u):
    """(p_u s_τ*, s_τ p_u), built directly with no cut and no path test."""
    piece = ((1, VertexSet.of(u)),)
    return AlgebraElement(pres, {((), tau): piece}), AlgebraElement(pres, {(tau, ()): piece})


def _sabotaged_tables(pres, table, n, rng):
    """Copies of a good table of degree n, each with one fault, as pairs
    (kind, table), at every vertex or node where the kind applies.
    Degree −1: a dropped child, an unlisted child, a missing root, a τ that
    is no path or whose range misses u (both leave the product p_u), a
    τ of the wrong length (a path into u one edge longer or shorter), a
    closing node that also holds the children of a split, an extra or a
    missing out-edge of a split, and a node beyond the settle length (a
    true identity, outside the table's bound).  Degree 1: a missing and an
    extra out-edge, and a vertex left out."""
    edges = pres.all_edge_insts()
    if n == 1:
        for v, listed in table.items():
            i = rng.randrange(len(listed))
            yield "missing out-edge", {**table, v: listed[:i] + listed[i + 1 :]}
            f = rng.choice(edges)
            if pres.edge_source(f) != v:
                yield "extra out-edge", {**table, v: listed + (f,)}
            yield "missing root", {u: listed for u, listed in table.items() if u != v}
        return
    profile = incoming_length_profile(pres)
    settle = profile.settle
    out = pres.out_edge_map()
    far = next((u for (_, u), (tau, _) in table.items() if tau and profile.reached(settle + 2).member(u)), None)
    if far is not None:
        tau = algebra._replacement_path(pres, far, settle + 2)
        yield "node beyond the settle length", {**table, (settle + 1, far): (tau, ())}
    for key, (tau, children) in table.items():
        k, u = key
        if key[0] == 0:
            yield "missing root", {other: node for other, node in table.items() if other != key}
        if tau is None:
            j = rng.randrange(len(children))
            yield "dropped child", {**table, key: (None, children[:j] + children[j + 1 :])}
            unlisted = children[j][1]
            yield "unlisted child", {other: node for other, node in table.items() if other != unlisted}
            e = children[j][0]
            yield "missing out-edge", {**table, key: (None, tuple(c for c in children if c[0] != e))}
            f = rng.choice(edges)
            extra = children + tuple((f, (k + 1, w)) for w in pres.edge_range(f).vertices())
            yield "extra out-edge", {**table, key: (None, extra)}
            continue
        split = tuple((e, (k + 1, w)) for e in out[u] for w in pres.edge_range(e).vertices())
        yield "tau and children", {**table, key: (tau, split)}
        for kind, path in (("non-path tau", False), ("tau missing u", True)):
            other = _other_tau(pres, tau, u, path)
            if other is not None:
                assert multiply(*_closing_pair(pres, other, u)) == multiply(*_closing_pair(pres, tau, u))
                yield kind, {**table, key: (other, ())}
        if profile.reached(k + 2).member(u):
            yield "tau of wrong length", {**table, key: (algebra._replacement_path(pres, u, k + 2), ())}
        if len(tau) > 1:
            yield "tau of wrong length", {**table, key: (tau[1:], ())}


@pytest.mark.dash_o
def test_sabotaged_factorizations_are_rejected():
    """Every kind of fault in a table raises CertificateError: in degree
    −1 a dropped child, an unlisted child, a missing root, a τ that is no
    path or misses u (the product stays p_u, so only the checker's own
    path and range tests reject them), a τ of the wrong length, a closing
    node that also holds children, an extra or a missing out-edge, a node
    beyond the settle length; in degree 1 a missing or an extra out-edge
    and a vertex left out.  Each kind at least 100 times, on the sinkless
    corpus, 150 seeded sinkless inputs, half of them fed by a source, and
    the sinkless 3 × d DAGs."""
    rng = random.Random(1818)
    cases = Counter()
    for pres in _strongly_graded_inputs(1818, 150):
        for n in (1, -1):
            good = strong_factorization(pres, n)
            verify_factorization(pres, good, n)
            for kind, bad in _sabotaged_tables(pres, good, n, rng):
                with pytest.raises(CertificateError):
                    verify_factorization(pres, bad, n)
                cases[n, kind] += 1
    assert len(cases) == 13 and min(cases.values()) >= 100, cases


@pytest.mark.dash_o
def test_strong_z_node_identities_hold_in_the_skew_product_model():
    """Each node's one-level identity re-multiplied in the partial skew
    group ring, through phi_of_element and skew_multiply, and compared by
    SkewElement ==, which share no code with multiply: φ(a) φ(b) = φ(p_u)
    for the pair (a, b) = (p_u s_τ*, s_τ p_u) of a closing node's τ,
    φ(p_u) = Σ φ(s_e) φ(p_u′) φ(s_e*) over a split node's children
    (e, (k + 1, u′)), and φ(p_v) = Σ φ(s_e) φ(s_e*) over the out-edges
    that the degree 1 table lists for each vertex.  A flipped coefficient and a
    dropped child fail in the model too.  On the sinkless corpus files with
    at most 6 edges, the sinkless 3 × d DAGs for d <= 3 and 100 seeded
    sinkless inputs, every other one fed by a source."""
    rng = random.Random(2727)
    inputs = [p for p in _finite_edge_corpus() if p.is_finite and len(p.edges) <= 6]
    inputs = [p for p in inputs if not structural_report(p).has_sinks]
    inputs += [sinkless_layered_dag(3, d) for d in (1, 2, 3)]
    for i in range(100):
        pres = random_presentation(rng, max_vertices=4, max_edges=5, sinkless=True)
        inputs.append(_fed(rng, pres) if i % 2 else pres)
    nodes = splits = rejected = 0
    for pres in inputs:
        phi = {}

        def image(x):
            key = tuple(sorted(x.terms.items()))
            if key not in phi:
                phi[key] = phi_of_element(pres, x)
            return phi[key]

        def p_of(u):
            return image(AlgebraElement.projection(pres, VertexSet.of(u)))

        def split_sum(children):
            total = SkewElement.zero(pres)
            for e, (_, w) in children:
                s_e, st_e = image(AlgebraElement.s(pres, (e,))), image(AlgebraElement.s_star(pres, (e,)))
                total = total + skew_multiply(skew_multiply(s_e, p_of(w)), st_e)
            return total

        for v, edges in strong_factorization(pres, 1).items():
            total = SkewElement.zero(pres)
            for e in edges:
                total = total + skew_multiply(image(AlgebraElement.s(pres, (e,))), image(AlgebraElement.s_star(pres, (e,))))
            assert total == p_of(v), (pres.name, v)
        table = strong_factorization(pres, -1)
        for (k, u), (tau, children) in table.items():
            if tau is not None:
                a, b = _closing_pair(pres, tau, u)
                assert skew_multiply(image(a), image(b)) == p_of(u), (pres.name, k, u)
                assert skew_multiply(image(-a), image(b)) != p_of(u)
                rejected += 1
            else:
                assert split_sum(children) == p_of(u), (pres.name, k, u)
                assert split_sum(children[1:]) != p_of(u)
                rejected += 1
                splits += 1
            nodes += 1
    assert nodes >= 300 and splits >= 50 and rejected == nodes, (nodes, splits, rejected)


@pytest.mark.dash_o
def test_the_sinkless_dag_has_one_node_per_state(monkeypatch):
    """The corpus file sinkless_dag3x20: its degree −1 expansion has 2^20
    branches per vertex of the first layer, but the table holds one node
    per state (k, u) that the branches pass through, at most
    (S + 1)·|V| of them, and walks one replacement path per closing
    node."""
    pres = load("sinkless_dag3x20.ug")
    walks = []
    real = algebra._replacement_path
    monkeypatch.setattr(algebra, "_replacement_path", lambda pres, u, length: walks.append((u, length)) or real(pres, u, length))
    table = strong_factorization(pres, -1)
    verify_factorization(pres, table, -1)
    settle = incoming_length_profile(pres).settle
    vertices = pres.all_vertices()
    assert set(table) == _branch_states(pres)
    assert len(table) <= (settle + 1) * len(vertices)
    closing = [(u, k + 1) for (k, u), (tau, _) in table.items() if tau is not None]
    assert sorted(walks) == sorted(closing) and len(set(walks)) == len(walks)
    assert (len(table), len(walks), settle) == (123, 63, 21)
    # 3 x 10: the 3102 pairs of the per-branch listing walked 3102
    # replacement paths for 33 distinct answers
    pres = sinkless_layered_dag(3, 10)
    walks.clear()
    assert classify_strong_z(pres).status == "Yes"
    assert len(walks) == 33
    assert sum(len(_pairs_per_branch(pres, v, -1)) for v in pres.all_vertices()) == 3102


@pytest.mark.dash_o
def test_the_factorization_check_is_linear_in_its_pairs(monkeypatch):
    """On the sinkless 3 × d DAGs, d = 6 … 9, the check of each degree
    multiplies once per edge (degree 1) or per closing node (degree −1)
    and nothing else, and no normal form is taken: each product is of two
    one-term factors, its own normal form.  The node counts grow linearly
    in d, where the pair-per-branch listing grew as 2^d."""
    products = pieces = 0
    real_multiply, real_atomize = algebra.multiply, algebra._atomize

    def counted_multiply(x, y):
        nonlocal products
        products += 1
        return real_multiply(x, y)

    def counted_atomize(given):
        nonlocal pieces
        pieces += len(given)
        return real_atomize(given)

    monkeypatch.setattr(algebra, "multiply", counted_multiply)
    monkeypatch.setattr(algebra, "_atomize", counted_atomize)
    sizes = []
    for d in range(6, 10):
        pres = sinkless_layered_dag(3, d)
        for n in (1, -1):
            table = strong_factorization(pres, n)
            pairs = len(pres.edges) if n == 1 else sum(tau is not None for tau, _ in table.values())
            products = pieces = 0
            verify_factorization(pres, table, n)
            assert products == pairs and pieces == 0, (d, n, products, pieces)
            sizes.append(len(table))
    assert sizes[1::2] == [39, 45, 51, 57]


@pytest.mark.dash_o
def test_the_factorization_check_multiplies_once_and_tests_paths_once_per_closing_node(monkeypatch):
    """The check of each degree makes one product per edge (degree 1) or
    per closing node (degree −1), one path test per closing node and none
    for a degree 1 edge, whose pair (s_e, s_e*) the check builds cut from
    the edge.  On the sinkless corpus, 150 seeded sinkless inputs, half of them
    fed by a source, and the sinkless 3 × d DAGs."""
    products = tests = 0
    real_multiply, real_is_path = algebra.multiply, UltragraphPresentation.is_path

    def counted_multiply(x, y):
        nonlocal products
        products += 1
        return real_multiply(x, y)

    def counted_is_path(self, seq):
        nonlocal tests
        tests += 1
        return real_is_path(self, seq)

    monkeypatch.setattr(algebra, "multiply", counted_multiply)
    monkeypatch.setattr(UltragraphPresentation, "is_path", counted_is_path)
    closing = 0
    for pres in _strongly_graded_inputs(1919, 150):
        for n in (1, -1):
            table = strong_factorization(pres, n)
            if n == 1:
                pairs = len(pres.edges)
            else:
                pairs = sum(tau is not None for tau, _ in table.values())
                closing += pairs
            products = tests = 0
            verify_factorization(pres, table, n)
            assert products == pairs, (pres.name, n, products, pairs)
            assert tests == (0 if n == 1 else pairs), (pres.name, n, tests, pairs)
    assert closing >= 500, closing


@pytest.mark.dash_o
def test_the_sum_of_all_vertices_is_not_capped(monkeypatch):
    """With TERM_COUNT_CAP below the number of edges, a 60-edge chain
    feeding a loop still verifies in both degrees: the check compares one
    product per edge or closing node with its one expected term and forms
    no sum of all vertices, so the cap, which bounds the normal form of a
    sum, has nothing to bound, while a sum of the degree 1 products would
    exceed it."""
    pres = source_chain(60)
    monkeypatch.setattr(algebra, "TERM_COUNT_CAP", 20)
    tables = {n: strong_factorization(pres, n) for n in (1, -1)}
    for n, table in tables.items():
        verify_factorization(pres, table, n)
    degree_one = {
        key: list(pieces)
        for edges in tables[1].values()
        for e in edges
        for key, pieces in multiply(AlgebraElement.s(pres, (e,)), AlgebraElement.s_star(pres, (e,))).terms.items()
    }
    with pytest.raises(TermCountCap):
        AlgebraElement._from_raw(pres, degree_one)
    assert classify_strong_z(pres).status == "Yes"
