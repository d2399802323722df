"""Path enumeration, the longest path and the product, each against the
straightforward version it replaced: every length enumerated anew,
lengths tried one by one, a recursive cycle search, and a product that
pairs every term with every term."""

from __future__ import annotations

import random

from conftest import (
    FINITE_CORPUS,
    load,
    random_element,
    random_path,
    random_presentation,
    random_vertex_set,
)
from ultragrade import algebra
from ultragrade.algebra import (
    PATH_LENGTH_CAP,
    AlgebraElement,
    all_paths,
    multiply,
)
from ultragrade.grading import _longest_path_length, analyze, classify_eps_strong_z
from ultragrade.model import Edge, EdgeInst, UltragraphPresentation, VertexRef, VertexSet

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


def seeded_presentations():
    rng = random.Random(2024)
    out = [load(name) for name in FINITE_CORPUS + ["cosingleton12.ug"]]
    out += [random_presentation(rng) for _ in range(60)]
    out += [random_presentation(rng, sinkless=True) for _ in range(20)]
    out += [random_dag(rng) for _ in range(60)]
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


def test_longest_path_matches_the_oracle():
    cyclic = acyclic = 0
    for pres in seeded_presentations():
        got = _longest_path_length(pres)
        if edge_cycle_oracle(pres):
            assert got is None, pres.name
            cyclic += 1
        else:
            assert got == longest_path_oracle(pres), pres.name
            acyclic += 1
    assert cyclic >= 20 and acyclic >= 60


def test_long_chains_stay_clear_of_the_recursion_limit():
    assert _longest_path_length(chain(1100)) == 1100
    assert _longest_path_length(chain(1100, closed=True)) is None


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
            # the first-edge index, once built, serves later products
            assert multiply(y, x) == multiply_oracle(y, x)
            assert multiply(x, x) == multiply_oracle(x, x)
        x, y = random_element(rng, pres), random_element(rng, pres)
        assert multiply(x, y) == multiply_oracle(x, y)
    assert empty_beta >= 100 and empty_gamma >= 100 and pruned >= 100


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


def test_relevant_edges_and_negative_units_match_the_path_oracle():
    relevant = 0
    for pres in seeded_presentations():
        for m in (1, 2, 3):
            got = algebra._relevant_edges(pres, m)
            assert got == relevant_edges_oracle(pres, m), (pres.name, m)
            relevant += len(got)
            covered = VertexSet.empty()
            for q in all_paths_oracle(pres, m):
                covered = covered.union(pres.edge_range(q[-1]))
            assert algebra.epsilon_candidate(pres, -m) == AlgebraElement.projection(pres, covered)
    assert relevant >= 500


def test_chain_beyond_the_path_length_cap_is_undetermined():
    pres = load("chain70.ug")
    assert _longest_path_length(pres) == 70
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
