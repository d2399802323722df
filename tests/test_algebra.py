"""The symbolic algebra: normal forms, relations, degrees, units,
epsilon candidates, and strong-grading factorizations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    FINITE_CORPUS,
    load,
    random_element,
    random_path,
    random_presentation,
)
from ultragrade.algebra import (
    AlgebraElement,
    _atomize,
    _vset_sort_key,
    all_paths,
    ck2_expand,
    epsilon_candidate,
    equal_mod_ck2,
    f_degree,
    monomial_degrees,
    multiply,
    pretty,
    strong_factorization,
    t0_left_unit_for,
    t0_unit_for,
    verify_epsilon,
    verify_factorization,
    z_degree,
)
from ultragrade.errors import (
    NotHomogeneous,
    NotRegular,
    NotStronglyGraded,
)
from ultragrade.freegroup import FreeWord
from ultragrade.indexset import IndexSet
from ultragrade.model import EdgeInst, VertexRef, VertexSet


def E(*names):
    return tuple(EdgeInst(n) for n in names)


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
    assert multiply(se.star(), sf).is_zero()
    assert multiply(se.star(), se) == AlgebraElement.projection(
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
        assert multiply(x, y).star() == multiply(y.star(), x.star())
        assert x.star().star() == x


def test_distributivity_and_scaling():
    rng = random.Random(311)
    for _ in range(100):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)
        assert multiply(x.scale(Fraction(3, 2)), y) == multiply(x, y).scale(Fraction(3, 2))


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
    e1 = epsilon_candidate(pres, 1)
    se = AlgebraElement.s(pres, E("e"))
    assert e1 == multiply(se, se.star())
    assert verify_epsilon(pres, 1, e1)
    em1 = epsilon_candidate(pres, -1)
    assert em1 == AlgebraElement.projection(pres, pres.edges["e"].range)
    assert verify_epsilon(pres, -1, em1)
    assert verify_epsilon(pres, 0, epsilon_candidate(pres, 0))
    # the degree-2 component is zero, so the zero candidate is its unit
    assert epsilon_candidate(pres, 2).is_zero()
    assert verify_epsilon(pres, 2, epsilon_candidate(pres, 2))
    assert verify_epsilon(pres, -2, epsilon_candidate(pres, -2))


def test_wrong_epsilon_candidate_rejected():
    pres = load("one_edge.ug")
    assert not verify_epsilon(pres, 1, AlgebraElement.zero(pres))
    wrong = AlgebraElement.projection(pres, VertexSet.of(VertexRef("v", 0)))
    assert not verify_epsilon(pres, -1, wrong)


def test_epsilon_zero_needs_unit_everywhere():
    pres = load("two_cycle.ug")
    e0 = epsilon_candidate(pres, 0)
    assert e0 == AlgebraElement.projection(pres, pres.g0_universe())
    assert verify_epsilon(pres, 0, e0)


# -- strong factorizations -------------------------------------------------


@pytest.mark.parametrize("name", ["single_loop.ug", "ef.ug", "two_cycle.ug", "two_range.ug"])
def test_factorizations_verify_on_corpus(name):
    pres = load(name)
    for v in pres.all_vertices():
        for n in (1, -1):
            pairs = strong_factorization(pres, v, n)
            assert verify_factorization(pres, v, pairs, n)


def test_source_vertex_factorization_shape():
    # degree -1 at the source u of ef needs path surgery through v
    pres = load("ef.ug")
    pairs = strong_factorization(pres, VertexRef("u", 0), -1)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert z_degree(a) == -1 and z_degree(b) == 1
    assert pretty(a) == "s(e) p{v} st(e f)"
    assert pretty(b) == "s(e f) p{v} st(e)"


def test_factorization_rejected_with_sinks():
    pres = load("one_edge.ug")
    with pytest.raises(NotStronglyGraded):
        strong_factorization(pres, VertexRef("u", 0), 1)


def test_verify_rejects_wrong_certificates():
    pres = load("ef.ug")
    v = VertexRef("v", 0)
    good = strong_factorization(pres, v, 1)
    assert verify_factorization(pres, v, good, 1)
    # wrong target vertex
    assert not verify_factorization(pres, VertexRef("u", 0), good, 1)
    # wrong degree claim
    assert not verify_factorization(pres, v, good, -1)
    # dropped pair
    assert not verify_factorization(pres, v, [], 1)


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
            pairs.append((rng.choice(coeffs), VertexSet.make(parts)))
        assert _atomize(pairs) == _atomize_by_subsets(pairs), pairs
