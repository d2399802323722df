"""Path enumeration, the longest path, the product, the epsilon units and
their checks, and the replacement paths, each against the straightforward
version it replaced: every length enumerated anew, lengths tried one by
one, a recursive cycle search, a product that pairs every term with every
term, a product that pairs terms through a first-edge index, units listed
and checked path by path, a range check per path, a walk per edge for the
relevant edges, and a backward search over the in-edges."""

from __future__ import annotations

import random

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
    UnitNodes,
    all_paths,
    epsilon_candidate,
    multiply,
    strong_factorization,
    verify_epsilon,
    verify_factorization,
)
from ultragrade.condition_y import incoming_length_profile
from ultragrade.errors import CertificateError
from ultragrade.grading import PATH_LENGTH_CAP, analyze, classify_eps_strong_z
from ultragrade.lattice import is_unital
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
        for n in range(1, d + 1):
            cand = expand_unit(pres, epsilon_candidate(pres, n))
            neg = epsilon_candidate(pres, -n)
            gens = [AlgebraElement.s(pres, p) for p in all_paths(pres, n)]
            gens += [star(g) for g in gens]
            gens += [AlgebraElement.projection(pres, r) for r in algebra._last_ranges(pres, n)]
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


def test_relevant_edges_and_negative_units_match_the_path_oracle():
    """The relevant edges, read off the bounds B(e) of one pass per
    presentation, against the walk per edge and length, for every length
    up to one past the settle length, on cyclic and acyclic input and on
    the finite-edge corpus, infinite ranges included."""
    relevant = cyclic = 0
    for pres in seeded_presentations() + _finite_edge_corpus():
        profile = incoming_length_profile(pres)
        cyclic += profile.longest is None
        for m in range(1, profile.settle + 2):
            got = algebra._relevant_edges(pres, m)
            assert got == relevant_edges_oracle(pres, m), (pres.name, m)
            relevant += len(got)
            if m <= 3:
                covered = VertexSet.empty()
                for q in all_paths_oracle(pres, m):
                    covered = covered.union(pres.edge_range(q[-1]))
                assert algebra.epsilon_candidate(pres, -m) == AlgebraElement.projection(pres, covered)
    assert relevant >= 500 and cyclic >= 20


def test_negative_units_check_each_last_range_once(monkeypatch):
    """verify_epsilon(-m) checks the candidate against p_R once per
    distinct last range R of the paths of length m, and against nothing
    else of that shape."""
    calls = []
    real = algebra.multiply

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(algebra, "multiply", spy)
    rng = random.Random(2027)
    shared = 0
    for _ in range(200):
        pres = random_dag(rng)
        for m in range(1, 5):
            paths = all_paths_oracle(pres, m)
            want = {pres.edge_range(p[-1]) for p in paths}
            assert set(algebra._last_ranges(pres, m)) == want, (pres.name, m)
            assert len(algebra._last_ranges(pres, m)) == len(want)
            shared += len(paths) - len(want)
            cand = epsilon_candidate(pres, -m)
            calls.clear()
            verify_epsilon(pres, -m, cand)
            tested = [
                z.terms[((), ())][0][1]
                for x, y in calls
                for z in (x, y)
                if z is not cand and set(z.terms) == {((), ())}
            ]
            # each range twice: as a right and as a left factor
            assert set(tested) == want and len(tested) == 2 * len(want), (pres.name, m)
    assert shared >= 200


def test_a_unit_wrong_on_one_shared_range_is_rejected():
    """Six sources feed a hub whose one edge reaches v[7], so six paths of
    length 2 share the last range {v[7]}; one more path ends in {v[10]}.
    A degree -2 unit that misses only v[7] fails the one check of that
    range, and no other check would catch it: no edge begins a longer
    path into those ranges."""
    pres = UltragraphPresentation("fan", {"v": 11})
    ends = {f"f{i}": (i, 6) for i in range(6)}
    ends.update(h=(6, 7), a=(8, 9), b=(9, 10))
    for eid, (src, dst) in ends.items():
        pres.edges[eid] = Edge(eid, VertexRef("v", src), VertexSet.of(VertexRef("v", dst)))
    pres.validate()
    assert len(all_paths(pres, 2)) == 7
    # the shared range comes last, after the one it is not wrong on
    assert algebra._last_ranges(pres, 2) == [
        VertexSet.of(VertexRef("v", 10)),
        VertexSet.of(VertexRef("v", 7)),
    ]
    assert algebra._relevant_edges(pres, 2) == []
    unit = epsilon_candidate(pres, -2)
    assert unit == AlgebraElement.projection(pres, VertexSet.of(VertexRef("v", 7), VertexRef("v", 10)))
    assert verify_epsilon(pres, -2, unit)
    assert not verify_epsilon(pres, -2, AlgebraElement.projection(pres, VertexSet.of(VertexRef("v", 10))))


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


def test_unit_nodes_expand_to_the_path_listing():
    """The node certificate stands for the unit that was listed path by
    path, term for term, and the node checker and the path-by-path check
    give the same verdict on it; past the longest path both are zero."""
    checked = zero = 0
    for pres, degrees in _unit_inputs():
        for n in degrees:
            cand = epsilon_candidate(pres, n)
            listed = unit_listing_oracle(pres, n)
            assert expand_unit(pres, cand) == listed, (pres.name, n)
            assert verify_epsilon(pres, n, cand) == verify_listing_oracle(pres, n, listed) is True
            zero += cand.root is None
            checked += 1
    assert checked >= 800 and zero >= 200


def _sabotaged(cand: UnitNodes, rng: random.Random):
    """One certificate per kind of sabotage, each a fresh copy of cand:
    a dropped child, a child retargeted to a wrong (k − 1, A) that is
    listed, a wrong root, a wrong p_A at k = 0 and a child whose node is
    not listed."""
    inner = [key for key in cand.nodes if key[0] >= 1]
    leaves = [key for key in cand.nodes if key[0] == 0]
    key = rng.choice(inner)
    kids = cand.nodes[key]
    i = rng.randrange(len(kids))
    e, (j, a) = kids[i]
    dropped = dict(cand.nodes)
    dropped[key] = kids[:i] + kids[i + 1 :]
    others = [b for (k, b) in cand.nodes if k == j and b != a]
    retargeted = None
    if others:
        retargeted = dict(cand.nodes)
        retargeted[key] = kids[:i] + ((e, (j, rng.choice(others))),) + kids[i + 1 :]
    n, universe = cand.root
    roots = [r for r in cand.nodes if r != cand.root]
    wrong_p = dict(cand.nodes)
    leaf = rng.choice(leaves)
    wrong_p[leaf] = universe if leaf[1] != universe else leaf[1].difference(leaf[1])
    unlisted = dict(cand.nodes)
    del unlisted[rng.choice(kids)[1]]
    out = {
        "dropped": UnitNodes(cand.root, dropped),
        "unlisted": UnitNodes(cand.root, unlisted),
        "wrong root": UnitNodes(rng.choice(roots) if roots else (n + 1, universe), cand.nodes),
        "wrong p_A": UnitNodes(cand.root, wrong_p),
    }
    if retargeted is not None:
        out["retargeted"] = UnitNodes(cand.root, retargeted)
    return out


def test_sabotaged_unit_nodes_are_rejected(monkeypatch):
    rng = random.Random(2032)
    seen = dict.fromkeys(("dropped", "retargeted", "wrong root", "wrong p_A", "unlisted"), 0)
    for pres, degrees in _unit_inputs():
        for n in degrees:
            cand = epsilon_candidate(pres, n)
            if cand.root is None:
                continue
            for kind, bad in _sabotaged(cand, rng).items():
                assert not verify_epsilon(pres, n, bad), (pres.name, n, kind)
                seen[kind] += 1
                if kind == "dropped":
                    # the path-by-path check rejects the smaller sum too
                    assert not verify_listing_oracle(pres, n, expand_unit(pres, bad))
            assert verify_epsilon(pres, n, cand)
    assert min(seen.values()) >= 100, seen
    # heights that miss one path: the nodes built from them and checked
    # against them agree, but the heights fail their own equation
    pres = layered_dag(3, 5)
    real = algebra._type_heights(pres)
    top = max(real, key=real.get)
    short = dict(real)
    short[top] -= 1
    monkeypatch.setattr(algebra, "_type_heights", lambda _: short)
    cand = epsilon_candidate(pres, 5)
    assert cand.root is None and expand_unit(pres, cand).is_zero()
    assert not verify_epsilon(pres, 5, cand)
    assert not verify_epsilon(pres, 4, epsilon_candidate(pres, 4))


def test_unit_levels_are_multiplied_once_per_type(monkeypatch):
    """The one-level identities L(A) s_e = s_e and s_e* L(A) = s_e* go
    through multiply once per range type A and child e, however many
    degrees share them, and a wrong product fails the check."""
    calls = []
    real = algebra.multiply

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(algebra, "multiply", spy)
    rng = random.Random(2033)
    for pres in [layered_dag(3, 5), layered_dag(2, 6)] + [random_dag(rng) for _ in range(50)]:
        longest = _longest(pres)
        pairs = set()
        calls.clear()
        for n in range(1, longest + 1):
            cand = epsilon_candidate(pres, n)
            assert verify_epsilon(pres, n, cand)
            pairs.update((key[1], e) for key, kids in cand.nodes.items() if key[0] for e, _ in kids)
        assert len(calls) == 2 * len(pairs), pres.name
    # a product that drops every term fails the identities
    monkeypatch.setattr(algebra, "multiply", lambda x, y: AlgebraElement.zero(x.pres))
    pres = layered_dag(3, 3)
    assert not verify_epsilon(pres, 2, epsilon_candidate(pres, 2))


def test_unit_nodes_stay_within_longest_times_ranges():
    """Over all degrees 1 … longest, the distinct nodes, those of length
    0 included, number at most longest × (distinct ranges + 1).  On a
    layered DAG of depth d with r distinct ranges into each layer i >= 1,
    each of those ranges carries the lengths 0 … d − i, so there are d
    roots and r · d(d + 1)/2 other nodes: r = 3 on the 3 × 12 DAG, and
    r = 1 on dag2x14, where both edges of a layer have the whole next
    layer as range."""
    inputs = [(p, None) for p, _ in _unit_inputs()] + [
        (layered_dag(3, 12), 12 + 3 * 12 * 13 // 2),
        (load("dag2x14.ug"), 14 + 14 * 15 // 2),
    ]
    for pres, exact in inputs:
        longest = _longest(pres)
        if not longest:
            continue
        keys = set()
        for n in range(1, longest + 1):
            keys.update(epsilon_candidate(pres, n).nodes)
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
