"""Path enumeration, the longest path, the product, the epsilon units and
their checks, and the replacement paths, each against the straightforward
version it replaced: every length enumerated anew, lengths tried one by
one, a recursive cycle search, a product that pairs every term with every
term, a product that pairs terms through a first-edge index, units listed
and checked path by path, each degree's units built and checked alone, a
range check per path, a walk per edge for the relevant edges, and a
backward search over the in-edges."""

from __future__ import annotations

import itertools
import random
from collections import Counter

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
from ultragrade.grading import PATH_LENGTH_CAP, analyze, classify_eps_strong_z
from ultragrade.lattice import is_unital
from ultragrade.model import Edge, EdgeInst, UltragraphPresentation, VertexRef, VertexSet, parse_presentation

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


def unit_nodes_oracle(pres, n):
    """(root, nodes) of ε_n, n > 0, for one degree alone, as the library
    built it before the degrees shared one table: the nodes that the root
    (n, V) reaches, or (None, {}) when no path of length n exists."""
    out, height = algebra._type_out_edges(pres), algebra._type_heights(pres)
    universe = pres.g0_universe()
    if height[universe] < n:
        return None, {}
    nodes = {}
    work = [(n, universe)]
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
    return (n, universe), nodes


def verify_degree_oracle(pres, n, cand, nodes=None):
    """Degree n checked alone, as the library checked it before one check
    served every degree.  For n < 0, cand against p_r for each last range
    r of the paths of length |n|, and against s_e and s_e* for each edge e
    that the walk finds relevant; at n = 0, against p_V, s_e and s_e*, one
    edge at a time, on either side; for n > 0, cand is the root of degree
    n in the table `nodes`, and the heights, the root, every node of the
    table and each one-level identity, one edge at a time, are checked."""
    if n < 0:
        for rng in last_ranges_oracle(pres, -n):
            proj = AlgebraElement.projection(pres, rng)
            if multiply(cand, proj) != proj or multiply(proj, cand) != proj:
                return False
        for e in relevant_edges_oracle(pres, -n):
            se = AlgebraElement.s(pres, (e,))
            if multiply(cand, se) != se or multiply(star(se), cand) != star(se):
                return False
        return True
    edges = [EdgeInst(eid) for eid in sorted(pres.edges)]
    if n == 0:
        gens = [AlgebraElement.projection(pres, pres.g0_universe())]
        gens += [AlgebraElement.s(pres, (e,)) for e in edges]
        gens += [star(g) for g in gens[1:]]
        return all(multiply(cand, g) == g and multiply(g, cand) == g for g in gens)
    out, height = algebra._type_out_edges(pres), algebra._type_heights(pres)
    rng = pres.edge_range
    if any(height[a] != max((1 + height[rng(e)] for e in es), default=0) for a, es in out.items()):
        return False
    universe = pres.g0_universe()
    if cand != ((n, universe) if height[universe] >= n else None):
        return False
    if cand is not None and cand not in nodes:
        return False
    children = {}
    for (k, a), node in nodes.items():
        if a not in out:
            return False
        if k == 0:
            if node != a:
                return False
            continue
        want = tuple((e, (k - 1, rng(e))) for e in out[a] if height[rng(e)] >= k - 1)
        if not want or node != want or any(child not in nodes for _, child in want):
            return False
        children.setdefault(a, set()).update(e for e, _ in want)
    for a, kids in children.items():
        level = AlgebraElement._from_raw(pres, {((e,), (e,)): [(1, rng(e))] for e in out[a]})
        for e in kids:
            se = AlgebraElement.s(pres, (e,))
            if multiply(level, se) != se or multiply(star(se), level) != star(se):
                return False
    return True


def verify_per_degree_oracle(pres, units):
    """The first degree whose own check fails, from −h up, or None: the
    certificate checked degree by degree, each positive degree with the
    whole table."""
    h = len(units.roots)
    cands = [(-m, units.negative[m - 1]) for m in range(h, 0, -1)] + [(0, units.zero)]
    cands += list(enumerate(units.roots, 1))
    for n, cand in cands:
        if not verify_degree_oracle(pres, n, cand, units.nodes):
            return n
    return None


def unit_reason_oracle(pres, horizon):
    """The last reason of classify_eps_strong_z's unit stage as the loop
    over the degrees gave it, each degree's candidate built and checked
    alone: p_{reached(m)} at −m, p_V at 0 and the nodes of
    unit_nodes_oracle for n > 0."""
    profile = incoming_length_profile(pres)
    for n in range(-horizon, horizon + 1):
        try:
            if n < 0:
                cand, nodes = AlgebraElement.projection(pres, profile.reached(-n)), None
            elif n == 0:
                cand, nodes = AlgebraElement.projection(pres, pres.g0_universe()), None
            else:
                cand, nodes = unit_nodes_oracle(pres, n)
            ok = verify_degree_oracle(pres, n, cand, nodes)
        except TermCountCap as exc:
            return f"unit candidate for degree {n} hit TERM_COUNT_CAP: {exc}"
        if not ok:
            return f"unit candidate for degree {n} failed verification"
    return (
        f"acyclic edge set: verified unit certificates for all degrees |n| <= {horizon}"
        " (higher components vanish)"
    )


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
    # the expanded epsilon candidates of layered DAGs with their generators
    # and with each other, so that either factor can be the larger
    for w, d in ((2, 4), (3, 4), (3, 5)):
        pres = layered_dag(w, d)
        units = epsilon_candidate(pres, d)
        for n in range(1, d + 1):
            cand = expand_unit(pres, units, n)
            neg = units.negative[n - 1]
            gens = [AlgebraElement.s(pres, p) for p in all_paths(pres, n)]
            gens += [star(g) for g in gens]
            gens += [AlgebraElement.projection(pres, r) for r in last_ranges_oracle(pres, n)]
            for g in gens + [cand, star(cand), neg]:
                for a, b in ((cand, g), (g, cand), (neg, g), (g, neg)):
                    assert multiply(a, b) == multiply_first_edge_oracle(a, b), (pres.name, n)
                    pairs += 1
    assert pairs >= 2000


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
    """The edges the library tests at degree −m: those with B(e) >= m."""
    return [e for e, b in algebra._relevance_bounds(pres).items() if b >= m]


def test_relevant_edges_and_negative_units_match_the_path_oracle():
    """The relevant edges, read off the bounds B(e) of one pass per
    presentation, against the walk per edge and length, for every length
    up to one past the settle length, on cyclic and acyclic input and on
    the finite-edge corpus, infinite ranges included; the negative units
    are p of what the paths reach."""
    relevant = cyclic = 0
    for pres in seeded_presentations() + _finite_edge_corpus():
        profile = incoming_length_profile(pres)
        cyclic += profile.longest is None
        units = epsilon_candidate(pres, 3)
        for m in range(1, profile.settle + 2):
            got = _relevant_edges(pres, m)
            assert got == relevant_edges_oracle(pres, m), (pres.name, m)
            relevant += len(got)
            if m <= 3:
                covered = VertexSet.empty()
                for q in all_paths_oracle(pres, m):
                    covered = covered.union(pres.edge_range(q[-1]))
                assert units.negative[m - 1] == AlgebraElement.projection(pres, covered)
    assert relevant >= 500 and cyclic >= 20


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


def expected_negative_products(pres, units):
    """The products of the negative checks, from the path and walk oracles:
    each link of the chain both ways; each distinct last range r against
    c_t, t the largest m <= h with r the last range of a path of length m,
    on both sides; and the sum of s_e over the edges whose largest relevant
    m <= h is t, against c_t, as S c_t … c_t S and S* c_t."""
    h = len(units.roots)
    c = units.negative
    want = Counter()
    for m in range(1, h):
        want[(c[m - 1], c[m])] += 1
        want[(c[m], c[m - 1])] += 1
    range_top, edge_top = {}, {}
    for m in range(1, h + 1):
        range_top.update(dict.fromkeys(last_ranges_oracle(pres, m), m))
        edge_top.update(dict.fromkeys(relevant_edges_oracle(pres, m), m))
    for rng, t in range_top.items():
        proj = AlgebraElement.projection(pres, rng)
        want[(c[t - 1], proj)] += 1
        want[(proj, c[t - 1])] += 1
    for t in set(edge_top.values()):
        s = _edge_sum(pres, [e for e, b in edge_top.items() if b == t])
        want[(c[t - 1], s)] += 1
        want[(star(s), c[t - 1])] += 1
    return want


def expected_positive_products(pres, h):
    """The products of the node checks: for each range type A that a node
    (k, A), k >= 1, of some degree n <= h has, built one degree at a time,
    L(A) against the sum S_A of s_e over the children of those nodes, as
    L(A) S_A and S_A* L(A)."""
    children = {}
    for n in range(1, h + 1):
        for key, kids in unit_nodes_oracle(pres, n)[1].items():
            if key[0]:
                children.setdefault(key[1], set()).update(e for e, _ in kids)
    want = Counter()
    for a, kids in children.items():
        out = [AlgebraElement.s(pres, (e,)) for e in pres.all_edge_insts() if a.member(pres.edge_source(e))]
        level = sum((multiply(se, star(se)) for se in out), AlgebraElement.zero(pres))
        s = _edge_sum(pres, kids)
        want[(level, s)] += 1
        want[(star(s), level)] += 1
    return want


def test_negative_units_check_each_last_range_once(monkeypatch):
    """The negative checks make exactly the products of the chain, one
    pair per distinct last range at its top degree and one pair per top
    degree of the edges, on acyclic input up to the longest path and on
    cyclic input up to 3: each range is tested twice over all degrees, as
    a right and as a left factor, however many paths and degrees share
    it."""
    calls = _spy(monkeypatch)
    rng = random.Random(2027)
    inputs = [random_dag(rng) for _ in range(200)] + seeded_presentations()
    shared = batched = 0
    for pres in inputs:
        h = _longest(pres) or 3
        units = epsilon_candidate(pres, h)
        calls.clear()
        failed = algebra._verify_negative_units(pres, units.negative)
        if failed is not None:
            continue
        assert Counter(calls) == expected_negative_products(pres, units), pres.name
        ranges = {r for m in range(1, h + 1) for r in last_ranges_oracle(pres, m)}
        shared += sum(len(all_paths_oracle(pres, m)) for m in range(1, h + 1)) - len(ranges)
        batched += sum(len(y.terms) > 1 for _, y in calls)
    assert shared >= 200 and batched >= 50, (shared, batched)


def test_a_unit_wrong_on_one_shared_range_is_rejected():
    """Six sources feed a hub whose one edge reaches v[7], so six paths of
    length 2 share the last range {v[7]}; one more path ends in {v[10]}.
    A degree -2 unit that misses only v[7] fails the one check of that
    range, and no other check would catch it: no edge begins a longer
    path into those ranges, and the unit still lies under c_1."""
    pres = UltragraphPresentation("fan", {"v": 11})
    ends = {f"f{i}": (i, 6) for i in range(6)}
    ends.update(h=(6, 7), a=(8, 9), b=(9, 10))
    for eid, (src, dst) in ends.items():
        pres.edges[eid] = Edge(eid, VertexRef("v", src), VertexSet.of(VertexRef("v", dst)))
    pres.validate()
    assert len(all_paths(pres, 2)) == 7
    # the shared range comes last, after the one it is not wrong on
    tops = algebra._range_tops(pres)
    assert [r for r, t in tops.items() if t >= 2] == [
        VertexSet.of(VertexRef("v", 10)),
        VertexSet.of(VertexRef("v", 7)),
    ]
    assert _relevant_edges(pres, 2) == []
    units = epsilon_candidate(pres, 2)
    v7, v10 = VertexRef("v", 7), VertexRef("v", 10)
    assert units.negative[1] == AlgebraElement.projection(pres, VertexSet.of(v7, v10))
    assert verify_epsilon(pres, units) is None
    wrong = units._replace(negative=(units.negative[0], AlgebraElement.projection(pres, VertexSet.of(v10))))
    assert verify_epsilon(pres, wrong) == -2
    assert verify_per_degree_oracle(pres, wrong) == -2


def test_chain_beyond_the_path_length_cap_is_undetermined():
    pres = load("chain70.ug")
    assert _longest(pres) == 70
    report = analyze(pres)
    eps = report["gradings"]["eps_strong_z"]
    assert eps["status"] == "Undetermined"
    assert f"longest path has 70 edges, over PATH_LENGTH_CAP = {PATH_LENGTH_CAP}" in eps["reasons"][-1]


def test_term_count_cap_is_undetermined(monkeypatch):
    pres = load("one_edge.ug")
    assert classify_eps_strong_z(pres).status == "Yes"
    monkeypatch.setattr(algebra, "TERM_COUNT_CAP", 0)
    pres.validate()
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Undetermined"
    assert "hit TERM_COUNT_CAP" in verdict.reasons[-1]
    assert verdict.reasons[-1] == "unit candidate for degree -1 hit TERM_COUNT_CAP: 1 terms exceed the cap 0"


def _reaches_the_unit_stage(pres):
    profile = incoming_length_profile(pres)
    return (
        is_unital(pres)
        and 1 in profile.depth.values()
        and profile.longest is not None
        and profile.longest <= PATH_LENGTH_CAP
    )


def test_term_count_cap_reasons_match_the_per_degree_oracle(monkeypatch):
    """Under small caps the one check stops at the degree, and with the
    message, of the loop over the degrees: a cap under one term at the
    first candidate, of degree −h, and otherwise at L(V) in degree 1, after
    the negative degrees, whose sums are cut to the cap, have passed."""
    rng = random.Random(2034)
    inputs = [load("one_edge.ug"), load("two_range.ug"), layered_dag(2, 3), layered_dag(3, 4)]
    inputs += [p for p in (random_dag(rng) for _ in range(40)) if _reaches_the_unit_stage(p)]
    seen = Counter()
    for cap in (0, 1, 2, 3, 5, 8):
        monkeypatch.setattr(algebra, "TERM_COUNT_CAP", cap)
        for pres in inputs:
            if not _reaches_the_unit_stage(pres):
                continue
            pres.validate()
            got = classify_eps_strong_z(pres).reasons[-1]
            assert got == unit_reason_oracle(pres, _longest(pres)), (pres.name, cap)
            seen[got.split(":")[0] if "TERM_COUNT_CAP" in got else got.split(" ")[0]] += 1
    capped = {k for k in seen if k.startswith("unit candidate for degree")}
    assert {"unit candidate for degree 1 hit TERM_COUNT_CAP"} <= capped, seen
    assert any(k.endswith("-1 hit TERM_COUNT_CAP") for k in capped), seen
    assert seen["acyclic"] >= 10 and seen["unit"] >= 5, seen


def _unit_inputs():
    """(presentation, the degrees n > 0 to try): up to the longest path
    on acyclic input, one past it, and up to 3 over a cycle."""
    rng = random.Random(2031)
    inputs = _finite_edge_corpus()
    inputs += [p for p in seeded_presentations() if _longest(p) is not None]
    inputs += [random_dag(rng) for _ in range(200)]
    inputs += [layered_dag(w, d) for w, d in ((2, 4), (3, 4), (3, 5), (3, 6), (3, 7))]
    for pres in inputs:
        longest = _longest(pres)
        yield pres, range(1, (3 if longest is None else longest + 1) + 1)


def _reach(units, root):
    """The part of the table that one root reaches."""
    out, work = {}, [root] if root is not None else []
    while work:
        key = work.pop()
        if key not in out:
            out[key] = units.nodes[key]
            if key[0]:
                work.extend(child for _, child in out[key])
    return out


def test_unit_nodes_expand_to_the_path_listing():
    """Each root of the one node table stands for the unit that was listed
    path by path, term for term, and reaches exactly the nodes of that
    degree's own table; the node checks pass, and so does the
    path-by-path check; past the longest path the roots are zero."""
    checked = zero = 0
    for pres, degrees in _unit_inputs():
        units = epsilon_candidate(pres, degrees[-1])
        assert algebra._verify_unit_table(pres, units.roots, units.nodes) is None, pres.name
        for n in degrees:
            listed = unit_listing_oracle(pres, n)
            assert expand_unit(pres, units, n) == listed, (pres.name, n)
            assert verify_listing_oracle(pres, n, listed)
            root, nodes = unit_nodes_oracle(pres, n)
            assert units.roots[n - 1] == root and _reach(units, root) == nodes, (pres.name, n)
            zero += root is None
            checked += 1
    assert checked >= 800 and zero >= 200


def test_one_check_matches_the_per_degree_oracle():
    """One check of every degree gives the verdict, and the first failing
    degree, of each degree checked alone, on the unit inputs with cyclic
    input up to horizon 3 and on the seeded presentations, at the longest
    path and one past it."""
    failed = passed = 0
    inputs = [pres for pres, _ in _unit_inputs()] + seeded_presentations()
    for pres in inputs:
        longest = _longest(pres)
        for h in (1, 2, 3) if longest is None else (longest, longest + 1):
            units = epsilon_candidate(pres, h)
            got = verify_epsilon(pres, units)
            assert got == verify_per_degree_oracle(pres, units), (pres.name, h)
            failed += got is not None
            passed += got is None
    assert failed >= 100 and passed >= 400, (failed, passed)


def test_failure_degrees_match_the_per_degree_oracle():
    """On random presentations of the benchmark's common shape, the
    classifier's last reason, the failing degree included, is the one of
    the loop that built and checked each degree alone."""
    rng = random.Random(2035)
    degrees = Counter()
    for i in range(3000):
        pres = random_presentation(rng, sinkless=bool(i % 2))
        if not _reaches_the_unit_stage(pres):
            continue
        got = classify_eps_strong_z(pres).reasons[-1]
        assert got == unit_reason_oracle(pres, _longest(pres)), pres.name
        if got.endswith("failed verification"):
            degrees[int(got.split()[4])] += 1
    assert sum(degrees.values()) >= 20 and min(degrees) <= -2, degrees


def _sabotaged(units, rng: random.Random):
    """One certificate per kind of table sabotage, each a fresh copy of
    units: a dropped child, a child retargeted to a wrong (k − 1, A) that
    is listed, a wrong root, a wrong p_A at k = 0 and a child whose node
    is not listed."""
    inner = [key for key in units.nodes if key[0] >= 1]
    leaves = [key for key in units.nodes if key[0] == 0]
    key = rng.choice(inner)
    kids = units.nodes[key]
    i = rng.randrange(len(kids))
    e, (j, a) = kids[i]
    dropped = dict(units.nodes)
    dropped[key] = kids[:i] + kids[i + 1 :]
    others = [b for (k, b) in units.nodes if k == j and b != a]
    retargeted = None
    if others:
        retargeted = dict(units.nodes)
        retargeted[key] = kids[:i] + ((e, (j, rng.choice(others))),) + kids[i + 1 :]
    listed = [n for n, root in enumerate(units.roots, 1) if root is not None]
    n = rng.choice(listed)
    universe = units.roots[n - 1][1]
    roots = [r for r in units.nodes if r != units.roots[n - 1]]
    wrong_root = list(units.roots)
    wrong_root[n - 1] = rng.choice(roots) if roots else (n + 1, universe)
    wrong_p = dict(units.nodes)
    leaf = rng.choice(leaves)
    wrong_p[leaf] = universe if leaf[1] != universe else leaf[1].difference(leaf[1])
    unlisted = dict(units.nodes)
    del unlisted[rng.choice(kids)[1]]
    out = {
        "dropped": units._replace(nodes=dropped),
        "unlisted": units._replace(nodes=unlisted),
        "wrong root": units._replace(roots=tuple(wrong_root)),
        "wrong p_A": units._replace(nodes=wrong_p),
    }
    if retargeted is not None:
        out["retargeted"] = units._replace(nodes=retargeted)
    return out


def test_sabotaged_unit_nodes_are_rejected(monkeypatch):
    rng = random.Random(2032)
    seen = dict.fromkeys(("dropped", "retargeted", "wrong root", "wrong p_A", "unlisted"), 0)
    for pres, degrees in _unit_inputs():
        for h in degrees:
            units = epsilon_candidate(pres, h)
            if not units.nodes:
                continue
            for kind, bad in _sabotaged(units, rng).items():
                failed = algebra._verify_unit_table(pres, bad.roots, bad.nodes)
                assert failed is not None, (pres.name, h, kind)
                seen[kind] += 1
                if kind == "dropped":
                    # the path-by-path check rejects the smaller sum too,
                    # in every degree whose root reaches the node
                    smaller = [
                        n for n in range(1, h + 1) if expand_unit(pres, bad, n) != expand_unit(pres, units, n)
                    ]
                    assert smaller, (pres.name, h)
                    for n in smaller:
                        assert not verify_listing_oracle(pres, n, expand_unit(pres, bad, n))
            assert algebra._verify_unit_table(pres, units.roots, units.nodes) is None
    assert min(seen.values()) >= 100, seen
    # heights that miss one path: the nodes built from them and checked
    # against them agree, but the heights fail their own equation
    pres = layered_dag(3, 5)
    real = algebra._type_heights(pres)
    top = max(real, key=real.get)
    short = dict(real)
    short[top] -= 1
    monkeypatch.setattr(algebra, "_type_heights", lambda _: short)
    units = epsilon_candidate(pres, 5)
    assert units.roots[4] is None and expand_unit(pres, units, 5).is_zero()
    assert verify_epsilon(pres, units) == 1
    assert verify_epsilon(pres, epsilon_candidate(pres, 4)) == 1


def _f_degree(key):
    return FreeWord.from_path(key[0]) * FreeWord.from_path(key[1], sign=-1)


def test_sabotaged_units_are_rejected(monkeypatch):
    """Each sabotage of the units or of the product is rejected: a c_m
    that misses one vertex of reached(m); two degrees of different units
    swapped, so that the chain breaks; a unit of degree 0 that is not
    homogeneous, p_V + s_e; and a multiply that drops one free-group
    component of one product that has several.  The per-degree check
    rejects the first three too."""
    rng = random.Random(2036)
    seen = dict.fromkeys(("missing vertex", "swapped", "not homogeneous", "dropped component"), 0)
    real = algebra.multiply
    more = (random_dag(rng) for _ in range(300))
    inputs = itertools.chain(_unit_inputs(), ((p, range(1, _longest(p) + 2)) for p in more))
    for pres, degrees in inputs:
        units = epsilon_candidate(pres, degrees[-1])
        if verify_epsilon(pres, units) is not None:
            continue
        h = len(units.roots)
        bad = {}
        m = rng.choice([m for m in range(1, h + 1) if units.negative[m - 1].terms])
        have = list(itertools.islice(units.negative[m - 1].terms[((), ())][0][1].iter_vertices(), 50))
        gone = units.negative[m - 1].terms[((), ())][0][1].difference(VertexSet.of(rng.choice(have)))
        negative = list(units.negative)
        negative[m - 1] = AlgebraElement.projection(pres, gone)
        bad["missing vertex"] = units._replace(negative=tuple(negative))
        pairs = [(i, j) for i in range(h) for j in range(i + 1, h) if units.negative[i] != units.negative[j]]
        if pairs:
            i, j = rng.choice(pairs)
            negative = list(units.negative)
            negative[i], negative[j] = negative[j], negative[i]
            bad["swapped"] = units._replace(negative=tuple(negative))
        e = rng.choice(pres.all_edge_insts())
        bad["not homogeneous"] = units._replace(zero=units.zero + AlgebraElement.s(pres, (e,)))
        for kind, wrong in bad.items():
            assert verify_epsilon(pres, wrong) is not None, (pres.name, kind)
            assert verify_per_degree_oracle(pres, wrong) is not None, (pres.name, kind)
            seen[kind] += 1
        # the products with several free-group components, counted on a
        # clean run, and then one of them loses one component
        several = []

        def counting(x, y):
            z = real(x, y)
            several.append(len({_f_degree(k) for k in z.terms}) > 1)
            return z

        monkeypatch.setattr(algebra, "multiply", counting)
        assert verify_epsilon(pres, units) is None
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
        assert verify_epsilon(pres, units) is not None, pres.name
        monkeypatch.setattr(algebra, "multiply", real)
        seen["dropped component"] += 1
    assert min(seen.values()) >= 100, seen


def test_a_negative_unit_of_mixed_degree_is_rejected():
    """Four parallel edges a -> {b, c} and g : b -> {c}.  With
    x = (s_f − s_f') p_{b,c} (s_e1* − s_e2*), the unit c_1 = p_V + x passes
    every product of the check: x s_e1 = −x s_e2 and s_f* x = s_f'* x, so
    x cancels against the sum of the edges on either side, and a, the
    source of x's paths, lies in no range.  But c_1 s_e1 ≠ s_e1.  Only the
    test that c_1 has free-group degree 1 rejects it; p_V in its place
    passes, alone and degree by degree."""
    pres = parse_presentation(
        "ultragraph fan4\nvertex a\nvertex b\nvertex c\n"
        + "".join(f"edge {e} : a -> {{ b, c }}\n" for e in ("e1", "e2", "f", "f2"))
        + "edge g : b -> { c }\n"
    )
    units = epsilon_candidate(pres, 2)
    whole = AlgebraElement.projection(pres, pres.g0_universe())
    units = units._replace(negative=(whole, units.negative[1]))
    assert verify_epsilon(pres, units) is None and verify_per_degree_oracle(pres, units) is None
    e1, e2, f, f2 = (EdgeInst(e) for e in ("e1", "e2", "f", "f2"))
    bc = pres.edge_range(e1)
    x = AlgebraElement.zero(pres)
    for a, b, c in ((f, e1, 1), (f, e2, -1), (f2, e1, -1), (f2, e2, 1)):
        x = x + AlgebraElement.monomial(pres, (a,), bc, (b,), c)
    bad = units._replace(negative=(whole + x, units.negative[1]))
    assert verify_epsilon(pres, bad) == -1
    assert verify_per_degree_oracle(pres, bad) == -1
    # the batched products alone let it through
    assert algebra._verify_negative_units(pres, bad.negative) == -1
    s = _edge_sum(pres, pres.all_edge_insts())
    assert multiply(bad.negative[0], s) == s and multiply(star(s), bad.negative[0]) == star(s)


def test_unit_levels_are_multiplied_once_per_type(monkeypatch):
    """The node checks make exactly two products per range type A with a
    node (k, A), k >= 1, over all degrees: L(A) S_A and S_A* L(A), with
    S_A the sum of s_e over the children of those nodes; and a wrong
    product fails the check."""
    calls = _spy(monkeypatch)
    rng = random.Random(2033)
    for pres in [layered_dag(3, 5), layered_dag(2, 6)] + [random_dag(rng) for _ in range(50)]:
        longest = _longest(pres)
        units = epsilon_candidate(pres, longest)
        calls.clear()
        assert algebra._verify_unit_table(pres, units.roots, units.nodes) is None
        want = expected_positive_products(pres, longest)
        types = {key[1] for key in units.nodes if key[0]}
        assert Counter(calls) == want and len(calls) == 2 * len(types), pres.name
    # a product that drops every term fails the identities
    monkeypatch.setattr(algebra, "multiply", lambda x, y: AlgebraElement.zero(x.pres))
    pres = layered_dag(3, 3)
    units = epsilon_candidate(pres, 2)
    assert algebra._verify_unit_table(pres, units.roots, units.nodes) == 1


def test_one_classification_makes_few_products(monkeypatch):
    """The whole check, degree 0 included, makes exactly the products of
    the negative and the node checks plus six at degree 0; the layered
    DAGs of the benchmark stay under 120 products at 3 × 7 and 200 at
    3 × 12, where the check of each degree alone made 494 and 1214."""
    calls = _spy(monkeypatch)
    for (w, d), most in (((3, 7), 120), ((3, 12), 200), ((2, 4), None), ((3, 5), None)):
        pres = layered_dag(w, d)
        units = epsilon_candidate(pres, d)
        s = _edge_sum(pres, pres.all_edge_insts())
        zero = Counter({(units.zero, g): 1 for g in (units.zero, s, star(s))})
        zero.update({(g, units.zero): 1 for g in (units.zero, s, star(s))})
        want = expected_negative_products(pres, units) + zero + expected_positive_products(pres, d)
        calls.clear()
        assert classify_eps_strong_z(pres).status == "Yes"
        assert Counter(calls) == want, pres.name
        if most is not None:
            assert len(calls) <= most, (pres.name, len(calls))


def test_unit_nodes_stay_within_longest_times_ranges():
    """The one table of degrees 1 … longest, the nodes of length 0
    included, holds at most longest × (distinct ranges + 1) nodes, and it
    is the union of the tables of the degrees built alone.  On a layered
    DAG of depth d with r distinct ranges into each layer i >= 1, each of
    those ranges carries the lengths 0 … d − i, so there are d roots and
    r · d(d + 1)/2 other nodes: r = 3 on the 3 × 12 DAG, and r = 1 on
    dag2x14, where both edges of a layer have the whole next layer as
    range."""
    inputs = [(p, None) for p, _ in _unit_inputs()] + [
        (layered_dag(3, 12), 12 + 3 * 12 * 13 // 2),
        (load("dag2x14.ug"), 14 + 14 * 15 // 2),
    ]
    for pres, exact in inputs:
        longest = _longest(pres)
        if not longest:
            continue
        keys = set(epsilon_candidate(pres, longest).nodes)
        assert keys == {key for n in range(1, longest + 1) for key in unit_nodes_oracle(pres, n)[1]}
        ranges = {pres.edge_range(e) for e in algebra.edge_successors(pres)}
        assert len(keys) <= longest * (len(ranges) + 1), pres.name
        if exact is not None:
            assert len(keys) == exact, (pres.name, len(keys))


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


def _certificate_gammas(pres, v):
    """The degree −1 factorization of p_v, re-checked, and the path γ of
    each of its pairs s_γ p_u s_τ*, s_τ p_u s_γ*."""
    pairs = strong_factorization(pres, v, -1)
    assert verify_factorization(pres, v, pairs, -1)
    gammas = []
    for a, _ in pairs:
        ((gamma, _),) = a.terms
        gammas.append(gamma)
    return gammas


def test_certificate_branches_close_by_the_settle_length():
    rng = random.Random(1717)
    longest = 0
    for _ in range(300):
        pres = random_presentation(rng, sinkless=True)
        settle = incoming_length_profile(pres).settle
        for v in pres.all_vertices():
            for gamma in _certificate_gammas(pres, v):
                assert len(gamma) <= settle
                longest = max(longest, len(gamma))
    assert longest >= 2
    assert source_chain(64).edges == load("source_chain64.ug").edges
    for n in (64, 70, 200):
        pres = source_chain(n)
        settle = incoming_length_profile(pres).settle
        assert settle == n + 1
        for v in pres.all_vertices():
            gammas = _certificate_gammas(pres, v)
            assert all(len(gamma) <= settle for gamma in gammas)
        # the source's one branch runs down the chain and closes at the
        # loop with a replacement path one edge longer
        (pair,) = strong_factorization(pres, VertexRef("t", 0), -1)
        ((gamma, tau),) = pair[0].terms
        assert len(gamma) == n and len(tau) == n + 1
