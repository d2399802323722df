"""The path-space partial action, the coefficient algebra, the skew
product, and the generator-image verification."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import FINITE_CORPUS, is_sink, load, random_path, random_presentation
from ultragrade.algebra import AlgebraElement, f_degree
from ultragrade.errors import NotInDomain, NotInIdeal
from ultragrade.freegroup import FreeWord
from ultragrade.model import (
    CycleTail,
    Edge,
    EdgeInst,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
)
from ultragrade.partial_action import (
    DElement,
    Infinite,
    SinkPath,
    SinkVertex,
    SkewElement,
    PathPoint,
    _atom_sort_key,
    _path_space,
    atoms,
    beta,
    indicator_vertex_set,
    indicator_word,
    phi_image,
    phi_of_element,
    point_in_word,
    theta,
    verify_generator_relations,
)


def w(*letters):
    return FreeWord([(EdgeInst(n), s) for n, s in letters])


INF_EF = Infinite(InfinitePathRep((EdgeInst("e"),), CycleTail((EdgeInst("f"),))))


def atom_point(pres: UltragraphPresentation, key: tuple) -> PathPoint:
    """The library's representative point of an atom."""
    return _path_space(pres).point(key)


def valid_point(pres: UltragraphPresentation, x: PathPoint) -> bool:
    if isinstance(x, Infinite):
        return pres.valid_infinite_path(x.rep, depth=30)
    if isinstance(x, SinkPath):
        return (
            len(x.alpha) >= 1
            and pres.is_path(x.alpha)
            and is_sink(pres, x.v)
            and pres.edge_range(x.alpha[-1]).member(x.v)
        )
    return is_sink(pres, x.v)


def check_supports(elt: SkewElement) -> bool:
    """Every component f_t lies in its ideal D_t."""
    return all(f.supported_in(t) for t, f in elt.comps.items())


# -- points and the action ---------------------------------------------------


def test_point_membership():
    pres = load("ef.ug")
    assert point_in_word(pres, INF_EF, w(("e", 1)))
    assert not point_in_word(pres, INF_EF, w(("f", 1)))
    # x starts at v = r(e), so x lies in X_{e^-1}
    x = Infinite(InfinitePathRep((), CycleTail((EdgeInst("f"),))))
    assert point_in_word(pres, x, w(("e", -1)))
    assert point_in_word(pres, x, w(("f", -1)))


def test_theta_prepend_and_strip():
    pres = load("ef.ug")
    x = Infinite(InfinitePathRep((), CycleTail((EdgeInst("f"),))))
    moved = theta(pres, w(("e", 1)), x)
    assert moved == Infinite(InfinitePathRep((EdgeInst("e"),), CycleTail((EdgeInst("f"),))))
    back = theta(pres, w(("e", -1)), moved)
    assert point_in_word(pres, back, w(("f", 1)))
    with pytest.raises(NotInDomain):
        theta(pres, w(("f", -1)), moved)  # moved starts with e, not f


def test_theta_on_sink_points():
    pres = load("one_edge.ug")
    x = SinkPath((EdgeInst("e"),), VertexRef("v", 0))
    assert valid_point(pres, x)
    stripped = theta(pres, w(("e", -1)), x)
    assert stripped == SinkVertex(VertexRef("v", 0))
    assert theta(pres, w(("e", 1)), stripped) == x


def test_partial_action_composition_words_up_to_three():
    # theta_g . theta_h agrees with theta_{gh} wherever both sides act
    pres = load("two_range.ug")
    letters = [(n, s) for n in pres.edges for s in (1, -1)]
    words = [FreeWord([(EdgeInst(n), s)]) for n, s in letters]
    words += [a * b for a in words for b in words]
    points = [atom_point(pres, key) for key in atoms(pres, 3)]
    checked = 0
    for g, h in itertools.product(words, repeat=2):
        if len(g) + len(h) > 3:
            continue
        gh = g * h
        for x in points:
            if not point_in_word(pres, x, h.inverse()):
                continue
            y = theta(pres, h, x)
            if not point_in_word(pres, y, g.inverse()):
                continue
            assert point_in_word(pres, x, gh.inverse())
            assert theta(pres, g, y) == theta(pres, gh, x)
            checked += 1
    assert checked > 50


# -- the coefficient algebra -------------------------------------------------


def test_atoms_partition_points():
    pres = load("one_edge.ug")
    keys = atoms(pres, 2)
    points = [atom_point(pres, k) for k in keys]
    assert all(valid_point(pres, p) for p in points)
    # one sink-pair per sink in r(e), plus the isolated-sink atoms
    assert ("sp", (EdgeInst("e"),), VertexRef("v", 0)) in keys
    assert ("sp", (EdgeInst("e"),), VertexRef("w", 0)) in keys
    assert ("sv", VertexRef("v", 0)) in keys


def test_indicators_multiply_pointwise():
    pres = load("ef.ug")
    one_e = indicator_word(pres, w(("e", 1)))
    one_v = indicator_vertex_set(pres, VertexSet.of(VertexRef("u", 0)))
    prod = one_e * one_v
    # X_e is exactly the set of points starting at u, so the product is 1_e
    assert prod == one_e
    assert (one_e - one_e).is_zero()


def test_beta_needs_support():
    pres = load("ef.ug")
    one_e = indicator_word(pres, w(("e", 1)))
    # points of X_e start at u, which is outside r(e) = {v}
    with pytest.raises(NotInIdeal):
        beta(pres, w(("e", 1)), one_e)


def test_beta_conjugates_indicators():
    pres = load("ef.ug")
    one_einv = indicator_word(pres, w(("e", -1)))
    pushed = beta(pres, w(("e", 1)), one_einv)
    assert pushed == indicator_word(pres, w(("e", 1)))


# -- the path-space cache against the uncached walk --------------------------


def _walk_children(pres, key):
    if key[0] != "cyl":
        return [key]
    alpha = key[1]
    out = []
    for u in pres.edge_range(alpha[-1]).vertices():
        if is_sink(pres, u):
            out.append(("sp", alpha, u))
        else:
            out.extend(("cyl", alpha + (e,)) for e in pres.out_edges(u))
    return out


def _walk_atoms(pres, depth):
    level = [("cyl", (EdgeInst(eid),)) for eid in sorted(pres.edges)]
    level += [("sv", v) for v in pres.all_vertices() if is_sink(pres, v)]
    for _ in range(depth - 1):
        nxt = []
        for key in level:
            if key[0] == "cyl" and len(key[1]) < depth:
                nxt.extend(_walk_children(pres, key))
            else:
                nxt.append(key)
        level = nxt
    return sorted(level, key=_atom_sort_key)


def _walk_point(pres, key):
    if key[0] == "sv":
        return SinkVertex(key[1])
    if key[0] == "sp":
        return SinkPath(key[1], key[2])
    alpha, ext, seen = key[1], [], {}
    rng = pres.edge_range(alpha[-1])
    while True:
        candidates, sink = [], None
        for u in sorted(rng.vertices()):
            if is_sink(pres, u):
                sink = sink or u
            else:
                candidates.extend(pres.out_edges(u))
        if not candidates:
            return SinkPath(alpha + tuple(ext), sink)
        e = sorted(candidates, key=EdgeInst.sort_key)[0]
        if e in seen:
            j = seen[e]
            return Infinite(InfinitePathRep(alpha + tuple(ext[:j]), CycleTail(tuple(ext[j:]))))
        seen[e] = len(ext)
        ext.append(e)
        rng = pres.edge_range(e)


def _walk_refine(pres, key, depth):
    out, stack = [], [key]
    while stack:
        k = stack.pop()
        if k[0] == "cyl" and len(k[1]) < depth:
            stack.extend(_walk_children(pres, k))
        else:
            out.append(k)
    return out


def test_path_space_cache_matches_the_uncached_walk():
    rng = random.Random(4242)
    cases = [load(name) for name in FINITE_CORPUS]
    cases += [random_presentation(rng, max_vertices=4, max_edges=5) for _ in range(40)]
    for pres in cases:
        for depth in range(1, 5):
            keys = atoms(pres, depth)
            assert keys == _walk_atoms(pres, depth), (pres.name, depth)
            for key in keys:
                assert atom_point(pres, key) == _walk_point(pres, key), key
                for finer in range(depth + 1, 5):
                    refined = DElement(pres, depth, {key: 1}).refine_to(finer)
                    assert list(refined.values) == _walk_refine(pres, key, finer), (key, finer)
        # atoms hands out a fresh list each time
        atoms(pres, 2).clear()
        assert atoms(pres, 2) == _walk_atoms(pres, 2)


def test_relations_ask_each_vertex_for_its_out_edges_once(monkeypatch):
    pres = load("two_range.ug")
    asked = []
    real = UltragraphPresentation.out_edges

    def spy(self, v):
        asked.append(v)
        return real(self, v)

    monkeypatch.setattr(UltragraphPresentation, "out_edges", spy)
    assert verify_generator_relations(pres, depth=3)["all_pass"]
    assert asked
    assert len(asked) == len(set(asked)) <= len(pres.all_vertices())


def test_validate_drops_the_cached_path_space():
    pres = load("one_edge.ug")
    before = atoms(pres, 2)
    v = VertexRef("v", 0)
    pres.edges["loop"] = Edge("loop", v, VertexSet.of(v))
    pres.validate()
    after = atoms(pres, 2)
    assert after != before
    assert after == _walk_atoms(pres, 2)
    assert ("cyl", (EdgeInst("loop"), EdgeInst("loop"))) in after
    assert not any(key == ("sv", v) for key in after)


# -- skew product and the generator images ----------------------------------


def test_skew_relation3_mirror():
    pres = load("ef.ug")
    se = phi_image(pres, "s", EdgeInst("e"))
    sf = phi_image(pres, "s", EdgeInst("f"))
    ste = phi_image(pres, "st", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    assert (ste * sf).is_zero()
    assert (stf * se).is_zero()
    assert ste * se == phi_image(pres, "p", pres.edges["e"].range)


def test_skew_product_with_shared_range_is_nonzero():
    # r(e) = r(f) = {v} here, so s_e s_f* is a genuine degree-(e f^-1)
    # element and its image cannot vanish
    pres = load("ef.ug")
    se = phi_image(pres, "s", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    prod = se * stf
    assert not prod.is_zero()
    assert prod.grading_tags() == [w(("e", 1), ("f", -1))]
    x = AlgebraElement.monomial(pres, (EdgeInst("e"),), pres.edges["e"].range, (EdgeInst("f"),))
    assert prod == phi_of_element(pres, x)


def test_skew_product_disjoint_ranges_is_zero():
    pres = load("two_cycle.ug")  # r(e) = {v}, r(f) = {u}
    se = phi_image(pres, "s", EdgeInst("e"))
    stf = phi_image(pres, "st", EdgeInst("f"))
    assert (se * stf).is_zero()


def test_phi_respects_components():
    pres = load("ef.ug")
    for elt in (
        phi_image(pres, "s", EdgeInst("e")) * phi_image(pres, "st", EdgeInst("e")),
        phi_image(pres, "p", pres.g0_universe()),
    ):
        assert elt.grading_tags() == [FreeWord.identity()]
        assert check_supports(elt)


def test_generator_relations_pass_on_corpus():
    for name in FINITE_CORPUS:
        report = verify_generator_relations(load(name), depth=3)
        assert report["all_pass"], (name, report["failures"])


def test_sabotaged_images_are_caught():
    pres = load("ef.ug")

    def sabotage(p, kind, payload):
        if kind == "st":
            # wrong inverse: reuse the positive generator image
            return phi_image(p, "s", payload)
        return phi_image(p, kind, payload)

    report = verify_generator_relations(pres, depth=3, image=sabotage)
    assert not report["all_pass"]
    assert report["failures"]

    def sabotage2(p, kind, payload):
        if kind == "p" and not payload.is_empty():
            return phi_image(p, "p", p.g0_universe())
        return phi_image(p, kind, payload)

    report2 = verify_generator_relations(pres, depth=3, image=sabotage2)
    assert not report2["all_pass"]


def test_f_degree_matches_grading_tag_random_monomials():
    rng = random.Random(919)
    checked = 0
    while checked < 100:
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        alpha, bet = random_path(rng, pres), random_path(rng, pres)
        x = AlgebraElement.monomial(pres, alpha, pres.g0_universe(), bet)
        if x.is_zero():
            continue
        image = phi_of_element(pres, x)
        assert image.grading_tags() == [f_degree(x)]
        checked += 1
