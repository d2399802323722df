"""The symbolic algebra: normal forms, relations, degrees, units,
epsilon candidates, and strong-grading factorizations."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import (
    FINITE_CORPUS,
    expand_unit,
    is_sink,
    load,
    random_element,
    random_path,
    random_presentation,
    source_chain,
    star,
    t0_left_unit_for,
    t0_unit_for,
)
from ultragrade import algebra
from ultragrade.algebra import (
    TERM_COUNT_CAP,
    AlgebraElement,
    _atomize,
    _vset_sort_key,
    all_paths,
    epsilon_candidate,
    f_degree,
    monomial_degrees,
    multiply,
    pretty,
    pretty_units,
    strong_factorization,
    verify_epsilon,
    verify_factorization,
    z_degree,
)
from ultragrade.condition_y import LengthProfile
from ultragrade.errors import (
    CertificateError,
    NotFinite,
    NotHomogeneous,
    NotStronglyGraded,
    TermCountCap,
    UltragradeError,
)
from ultragrade.freegroup import FreeWord
from ultragrade.indexset import IndexSet
from ultragrade.grading import classify_strong_z
from ultragrade.model import EdgeInst, UltragraphPresentation, VertexRef, VertexSet, parse_presentation


def E(*names):
    return tuple(EdgeInst(n) for n in names)


# -- vertex splitting (CK2), applied only by explicit expansion ------------


class NotRegular(UltragradeError):
    def __init__(self, vertex):
        super().__init__(f"{vertex} is not a regular vertex")
        self.vertex = vertex


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
            if is_sink(pres, u):
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


# -- defining relations ---------------------------------------------------


def test_projection_product_is_intersection():
    pres = load("two_range.ug")
    a = pres.edges["e"].range  # {v, w}
    b = pres.edges["g"].range  # {u, v}
    pa = AlgebraElement.projection(pres, a)
    pb = AlgebraElement.projection(pres, b)
    assert multiply(pa, pb) == AlgebraElement.projection(pres, a.intersection(b))


def test_source_range_absorption():
    pres = load("two_range.ug")
    se = AlgebraElement.s(pres, E("e"))
    pu = AlgebraElement.projection(pres, VertexSet.of(VertexRef("u", 0)))
    pr = AlgebraElement.projection(pres, pres.edges["e"].range)
    assert multiply(pu, se) == se
    assert multiply(se, pr) == se


def test_star_cancellation():
    pres = load("two_range.ug")
    se = AlgebraElement.s(pres, E("e"))
    sf = AlgebraElement.s(pres, E("f"))
    assert multiply(star(se), sf).is_zero()
    assert multiply(star(se), se) == AlgebraElement.projection(
        pres, pres.edges["e"].range
    )


def test_vertex_splitting_mod_ck2():
    pres = load("two_range.ug")
    pu = AlgebraElement.projection(pres, VertexSet.of(VertexRef("u", 0)))
    split = ck2_expand(pu, VertexRef("u", 0))
    assert split == multiply(AlgebraElement.s(pres, E("e")), AlgebraElement.s_star(pres, E("e")))
    assert equal_mod_ck2(pu, split)


def test_ck2_expand_rejects_sinks():
    pres = load("one_edge.ug")
    pv = AlgebraElement.projection(pres, VertexSet.of(VertexRef("v", 0)))
    with pytest.raises(NotRegular):
        ck2_expand(pv, VertexRef("v", 0))


def test_path_monomial_normal_form():
    pres = load("ef.ug")
    prod = multiply(AlgebraElement.s(pres, E("e")), AlgebraElement.s(pres, E("f")))
    assert prod == AlgebraElement.s(pres, E("e", "f"))
    assert pretty(prod) == "s(e f) p{v}"


# -- randomized structural invariants -------------------------------------


def test_associativity_300_triples():
    rng = random.Random(301)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_involution_300_cases():
    rng = random.Random(307)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y = (random_element(rng, pres) for _ in range(2))
        assert star(multiply(x, y)) == multiply(star(y), star(x))
        assert star(star(x)) == x


def test_distributivity_and_scaling():
    rng = random.Random(311)
    for _ in range(100):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
        assert multiply(x.scale(Fraction(3, 2)), y) == multiply(x, y).scale(Fraction(3, 2))


@pytest.mark.dash_o
def test_coefficients_are_exact_rationals():
    # ints and Fractions pass through monomial, scale and *; a bool, a float,
    # a Decimal or a complex number is refused by a raised check, not an assert
    pres = load("ef.ug")
    u = VertexSet.of(VertexRef("u", 0))
    p_u = AlgebraElement.projection(pres, u)
    for c in (2, -1, Fraction(1, 3), Fraction(-4, 1)):
        x = AlgebraElement.monomial(pres, (), u, (), c)
        assert x.terms == {((), ()): ((c, u),)}
        assert p_u.scale(c) == p_u * c == c * p_u == x
    for c in (True, 1.5, Decimal("1"), 1j):
        with pytest.raises(TypeError, match="exact rationals"):
            AlgebraElement.monomial(pres, (), u, (), c)
        with pytest.raises(TypeError, match="exact rationals"):
            p_u.scale(c)
        with pytest.raises(TypeError, match="exact rationals"):
            p_u * c
        with pytest.raises(TypeError):
            c * p_u


def test_degree_additivity_300_cases():
    rng = random.Random(313)
    checked = 0
    while checked < 300:
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        a1, b1 = random_path(rng, pres), random_path(rng, pres)
        a2, b2 = random_path(rng, pres), random_path(rng, pres)
        x = AlgebraElement.monomial(pres, a1, pres.g0_universe(), b1)
        y = AlgebraElement.monomial(pres, a2, pres.g0_universe(), b2)
        xy = multiply(x, y)
        if x.is_zero() or y.is_zero() or xy.is_zero():
            continue
        assert z_degree(xy) == z_degree(x) + z_degree(y)
        assert f_degree(xy) == f_degree(x) * f_degree(y)
        checked += 1


def test_t0_units_300_cases():
    rng = random.Random(317)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x = random_element(rng, pres)
        assert multiply(x, t0_unit_for(x)) == x
        assert multiply(t0_left_unit_for(x), x) == x


def test_mixed_degrees_raise():
    pres = load("ef.ug")
    x = AlgebraElement.s(pres, E("e")) + AlgebraElement.s_star(pres, E("f"))
    with pytest.raises(NotHomogeneous):
        z_degree(x)
    with pytest.raises(NotHomogeneous):
        f_degree(x)
    assert sorted(d for d, _ in monomial_degrees(x)) == [-1, 1]


def test_f_degree_values():
    pres = load("ef.ug")
    x = AlgebraElement.monomial(
        pres, E("e"), pres.edges["e"].range, E("f")
    )
    assert f_degree(x) == FreeWord([(EdgeInst("e"), 1), (EdgeInst("f"), -1)])
    assert z_degree(x) == 0


# -- epsilon units ---------------------------------------------------------


def test_one_edge_epsilon_certificates():
    pres = load("one_edge.ug")
    nodes = epsilon_candidate(pres)
    se = AlgebraElement.s(pres, E("e"))
    universe = pres.g0_universe()
    assert expand_unit(pres, nodes, 1) == multiply(se, star(se))
    assert expand_unit(pres, nodes, -1) == AlgebraElement.projection(pres, pres.edges["e"].range)
    # one type per range stands for every positive degree, read off the
    # presentation, and the degree ±2 components are zero, so the zero
    # units are theirs; the table holds the one negative node
    assert algebra._type_out_edges(pres) == {universe: E("e"), pres.edges["e"].range: ()}
    assert nodes == {(1, universe): (pres.edges["e"].range, ())}
    assert expand_unit(pres, nodes, 2).is_zero() and expand_unit(pres, nodes, -2).is_zero()
    verify_epsilon(pres, nodes)


def test_wrong_epsilon_candidate_rejected():
    pres = load("one_edge.ug")
    nodes = epsilon_candidate(pres)
    universe = pres.g0_universe()
    wrong = VertexSet.of(VertexRef("v", 0))
    # a zero root listed, a wrong set, and a root left out, each named
    with pytest.raises(CertificateError, match=r"node D\(2, V\) does not follow its rule"):
        verify_epsilon(pres, {**nodes, (2, universe): (wrong, ())})
    with pytest.raises(CertificateError, match=r"node D\(1, V\) does not follow its rule"):
        verify_epsilon(pres, {(1, universe): (wrong, ())})
    with pytest.raises(CertificateError, match=r"the root D\(1, V\) is not listed"):
        verify_epsilon(pres, {})
    verify_epsilon(pres, nodes)


def test_epsilon_zero_needs_unit_everywhere():
    """ε_0 is not in the table: it is p_V over every vertex, printed from
    the presentation, and a projection that misses a vertex is no unit
    on the generators, so it could not stand in for it."""
    pres = load("two_cycle.ug")
    nodes = epsilon_candidate(pres)
    verify_epsilon(pres, nodes)
    universe = pres.g0_universe()
    assert pretty_units(pres, nodes)[0]["0"] == pretty(AlgebraElement.projection(pres, universe))
    assert expand_unit(pres, nodes, 0) == AlgebraElement.projection(pres, universe)
    missing = AlgebraElement.projection(pres, VertexSet.of(*pres.all_vertices()[:1]))
    gens = [AlgebraElement.s(pres, (e,)) for e in pres.all_edge_insts()]
    assert any(multiply(missing, g) != g or multiply(star(g), missing) != star(g) for g in gens)


# -- strong factorizations -------------------------------------------------


@pytest.mark.parametrize("name", ["single_loop.ug", "ef.ug", "two_cycle.ug", "two_range.ug"])
def test_factorizations_verify_on_corpus(name):
    pres = load(name)
    for n in (1, -1):
        table = strong_factorization(pres, n)
        verify_factorization(pres, table, n)
        roots = set(table) if n == 1 else {u for k, u in table if k == 0}
        assert roots == set(pres.all_vertices())


def test_source_vertex_factorization_shape():
    # degree -1 at the source u of ef needs path surgery through v: the
    # root (0, u) splits over e into (1, v), which closes with the
    # replacement path e f, and the one branch they stand for is the pair
    # s_e (p_v st(e f)), (s(e f) p_v) s_e*
    pres = load("ef.ug")
    u, v = VertexRef("u", 0), VertexRef("v", 0)
    table = strong_factorization(pres, -1)
    assert set(table) == {(0, u), (1, v), (0, v)}
    e, f = EdgeInst("e"), EdgeInst("f")
    assert table[0, u] == (None, ((e, (1, v)),))
    assert table[1, v] == ((e, f), ()) and table[0, v] == ((e,), ())
    # the pair of the closing node (1, v), built from its τ as the check
    # builds it
    a = AlgebraElement.monomial(pres, (), VertexSet.of(v), (e, f))
    b = AlgebraElement.monomial(pres, (e, f), VertexSet.of(v), ())
    assert z_degree(a) == -2 and z_degree(b) == 2
    assert (pretty(a), pretty(b)) == ("p{v} st(e f)", "s(e f) p{v}")
    assert pretty(AlgebraElement.s(pres, E("e")) * a) == "s(e) p{v} st(e f)"
    assert pretty(b * AlgebraElement.s_star(pres, E("e"))) == "s(e f) p{v} st(e)"


@pytest.mark.dash_o
def test_pretty_labels_each_vertex_set_once(monkeypatch):
    # the certificate of a 60-cycle fed by a source names each of its 61
    # vertices once and prints no vertex set; pretty, over the 122 factors
    # of the 61 degree 1 pairs, labels each of their 60 distinct ranges once,
    # with the labels of a fresh presentation
    from ultragrade import grading, model

    text = "\n".join(
        ["ultragraph cyc", "vertex src", "vertex_family c finite 60", "edge feed : src -> { c[0] }"]
        + [f"edge e{i} : c[{i}] -> {{ c[{(i + 1) % 60}] }}" for i in range(60)]
    )
    expected = classify_strong_z(parse_presentation(text)).certificate
    fresh = parse_presentation(text)

    def pair_factors(p):
        """s_e and s_e* for each edge of the degree 1 table, in order."""
        edges = [e for listed in strong_factorization(p, 1).values() for e in listed]
        return [z for e in edges for z in (AlgebraElement.s(p, (e,)), AlgebraElement.s_star(p, (e,)))]

    fresh_printed = [pretty(z) for z in pair_factors(fresh)]
    labelled, named = [], []
    real_vset, real_vref = model._print_vset, grading._print_vref
    monkeypatch.setattr(model, "_print_vset", lambda pres, vs: labelled.append(vs) or real_vset(pres, vs))
    monkeypatch.setattr(grading, "_print_vref", lambda pres, v: named.append(v) or real_vref(pres, v))
    pres = parse_presentation(text)
    assert classify_strong_z(pres).certificate == expected
    assert not labelled
    assert sorted(named) == sorted(pres.all_vertices()) and len(named) == 61
    factors = pair_factors(pres)
    assert [pretty(z) for z in factors] == fresh_printed
    assert "s(feed) p{c[0]}" in fresh_printed and "p{c[1]} st(e0)" in fresh_printed
    assert len(factors) == 122 and len(labelled) == len(set(labelled)) == 60
    x = AlgebraElement.projection(pres, VertexSet.of(VertexRef("c", 1))) + AlgebraElement.s(pres, [EdgeInst("e0")])
    assert pretty(x) == "p{c[1]} + s(e0) p{c[1]}"
    assert len(labelled) == 60


def test_strong_z_certificate_asks_each_vertex_once_on_a_cycle(monkeypatch):
    # the certificate reads each vertex's out-edges and in-edges from facts
    # built once per presentation, so a cycle's certificate is not
    # quadratic in its length, and no vertex is asked for its in-edges
    n = 200
    lines = ["ultragraph cyc", "vertex src", f"vertex_family c finite {n}", "edge feed : src -> { c[0] }"]
    lines += [f"edge e{i} : c[{i}] -> {{ c[{(i + 1) % n}] }}" for i in range(n)]
    pres = parse_presentation("\n".join(lines) + "\n")
    asked: dict[str, list[VertexRef]] = {"out_edges": [], "in_edges": []}
    for name, calls in asked.items():
        real = getattr(UltragraphPresentation, name)

        def spy(self, v, *args, real=real, calls=calls):
            calls.append(v)
            return real(self, v, *args)

        monkeypatch.setattr(UltragraphPresentation, name, spy)
    assert classify_strong_z(pres).status == "Yes"
    out, into = asked["out_edges"], asked["in_edges"]
    assert len(out) == len(set(out)) == n + 1, len(out)
    assert not into, len(into)


def test_strong_z_certificate_builds_reached_only_when_a_source_expands(monkeypatch):
    """A vertex in some range closes at γ = () through the in-edge map, so
    the length profile's reached sets are built only for the paths out of
    a source: none on the corpus files without a source, and lengths
    2 … 201, never 1, on a chain of 200 vertices that one source at its
    head feeds into a loop."""
    asked = []
    real = LengthProfile.reached

    def spy(self, length):
        asked.append(length)
        return real(self, length)

    monkeypatch.setattr(LengthProfile, "reached", spy)
    for name in ("single_loop.ug", "two_cycle.ug", "two_range.ug", "cosingleton12.ug"):
        pres = load(name)
        verify_factorization(pres, strong_factorization(pres, -1), -1)
    assert asked == []
    pres = source_chain(200)
    verify_factorization(pres, strong_factorization(pres, -1), -1)
    assert sorted(set(asked)) == list(range(2, 202))


def test_factorization_rejected_with_sinks():
    pres = load("one_edge.ug")
    with pytest.raises(NotStronglyGraded):
        strong_factorization(pres, 1)


@pytest.mark.dash_o
def test_verify_rejects_wrong_certificates(monkeypatch):
    pres = load("ef.ug")
    u, v = VertexRef("u", 0), VertexRef("v", 0)
    good = strong_factorization(pres, 1)
    verify_factorization(pres, good, 1)
    # a vertex listing another vertex's edges
    with pytest.raises(CertificateError, match="does not list its out-edges"):
        verify_factorization(pres, {u: good[v], v: good[v]}, 1)
    # wrong degree claim
    with pytest.raises(CertificateError, match="root"):
        verify_factorization(pres, good, -1)
    # dropped pair
    with pytest.raises(CertificateError, match="does not list its out-edges"):
        verify_factorization(pres, {**good, v: ()}, 1)
    # a vertex left out
    with pytest.raises(CertificateError, match="not the vertices"):
        verify_factorization(pres, {v: good[v]}, 1)
    # a product that breaks the identities is caught by the re-multiplication
    table = strong_factorization(pres, -1)
    monkeypatch.setattr(algebra, "multiply", lambda x, y: multiply(x, y).scale(-1))
    for n, t in ((1, good), (-1, table)):
        with pytest.raises(CertificateError, match="does not multiply"):
            verify_factorization(pres, t, n)


def test_all_paths_counts():
    pres = load("two_cycle.ug")
    assert len(all_paths(pres, 1)) == 2
    assert len(all_paths(pres, 2)) == 2  # ef and fe
    pres2 = load("one_edge.ug")
    assert all_paths(pres2, 2) == []


# -- the normal form's middle layer ----------------------------------------


def _atomize_by_subsets(pairs):
    """The middle layer as it was computed before VertexSet.refine: split
    the union by each set in turn, then sum the coefficient of every set
    that holds each atom."""
    pairs = [(c, vs) for c, vs in pairs if c != 0 and not vs.is_empty()]
    if not pairs:
        return ()
    universe = VertexSet.empty()
    for _, vs in pairs:
        universe = universe.union(vs)
    atoms = [universe]
    for _, vs in pairs:
        refined = []
        for a in atoms:
            for piece in (a.intersection(vs), a.difference(vs)):
                if not piece.is_empty():
                    refined.append(piece)
        atoms = refined
    by_coeff = {}
    for a in atoms:
        total = 0
        for c, vs in pairs:
            if a.subset_of(vs):
                total += c
        if total != 0:
            by_coeff[total] = by_coeff.get(total, VertexSet.empty()).union(a)
    return tuple(sorted(by_coeff.items(), key=lambda p: _vset_sort_key(p[1])))


@pytest.mark.dash_o
def test_atomize_matches_the_subset_oracle():
    rng = random.Random(41)
    coeffs = [1, -1, 2, 3, 0, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(400):
        pairs = []
        for _ in range(rng.randint(0, 6)):
            parts = {}
            for fam in rng.sample(["a", "b"], rng.randint(1, 2)):
                prefix = [rng.random() < 0.5 for _ in range(rng.randint(0, 8))]
                period = [rng.random() < 0.3 for _ in range(rng.randint(1, 3))]
                parts[fam] = IndexSet.make(prefix, period)
            pairs.append((rng.choice(coeffs), VertexSet.make(parts.items())))
        assert _atomize(pairs) == _atomize_by_subsets(pairs), pairs

