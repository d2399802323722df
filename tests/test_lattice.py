"""Membership in the lattice of generalized vertices, against two
independent oracles: the brute-force closure of the singletons and ranges
on finite instances, and the worklist closure of all range intersections,
which the library used before it decided membership by range types."""

from __future__ import annotations

import itertools
import random

from conftest import FINITE_CORPUS, INFINITE_CORPUS, load, named_chain, random_presentation
from ultragrade.errors import NotFinite
from ultragrade.grading import analyze
from ultragrade.lattice import _range_types, g0_contains, is_unital, unit_witness
from ultragrade.model import VertexRef, VertexSet, parse_presentation


# -- oracles ------------------------------------------------------------------


def g0_closure_finite(pres) -> set:
    """Full closure of singletons and ranges under finite unions and
    nonempty intersections, for finite vertex sets."""
    if any(c is None for c in pres.vertex_families.values()):
        raise NotFinite("G0 is infinite")
    vertices = pres.all_vertices() if pres.is_finite else [
        VertexRef(fam, i)
        for fam, card in pres.vertex_families.items()
        for i in range(card)
    ]
    sets: set[frozenset[VertexRef]] = {frozenset([v]) for v in vertices}
    for e in pres.edges.values():
        sets.add(frozenset(e.range.vertices()))
    for fam in pres.edge_families.values():
        # finite G0 forces constant templates; ranges repeat from n0 on
        sets.add(frozenset(fam.member_range(fam.n0).vertices()))
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for i, s in enumerate(current):
            for t in current[i + 1 :]:
                for new in (s | t, s & t):
                    if new and new not in sets:
                        sets.add(new)
                        changed = True
    return sets


def range_intersections(pres) -> dict[tuple[str, ...], VertexSet]:
    """All distinct nonempty intersections of individually specified ranges,
    keyed by a representative edge-id set, computed by worklist closure.
    There can be 2^m - 1 of them for m ranges."""
    found: dict = {}
    by_set: dict = {}
    for eid, e in sorted(pres.edges.items()):
        key = (eid,)
        if e.range not in by_set:
            by_set[e.range] = key
            found[key] = e.range
    changed = True
    while changed:
        changed = False
        for key, vs in list(found.items()):
            for eid, e in sorted(pres.edges.items()):
                if eid in key:
                    continue
                inter = vs.intersection(e.range)
                if inter.is_empty() or inter in by_set:
                    continue
                new_key = tuple(sorted(set(key) | {eid}))
                by_set[inter] = new_key
                found[new_key] = inter
                changed = True
    return found


def _union(sets) -> VertexSet:
    out = VertexSet.empty()
    for s in sets:
        out = out.union(s)
    return out


def _intersection_of(pres, ids) -> VertexSet:
    out = pres.edges[ids[0]].range
    for eid in ids[1:]:
        out = out.intersection(pres.edges[eid].range)
    return out


# -- exhaustive comparison with the full closure -------------------------------


def _all_subsets(pres):
    verts = pres.all_vertices()
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            yield combo


def check_exhaustively(pres) -> int:
    """Compare g0_contains with the closure oracle on every subset."""
    closure = {frozenset(s) for s in g0_closure_finite(pres)}
    checked = 0
    for combo in _all_subsets(pres):
        a = VertexSet.of(*combo)
        got, witness = g0_contains(pres, a)
        assert got == (frozenset(combo) in closure), (pres.name, combo)
        if got:
            assert witness.reevaluate(pres) == a
        checked += 1
    return checked


def test_corpus_exhaustive():
    for name in FINITE_CORPUS:
        check_exhaustively(load(name))


def test_random_exhaustive():
    rng = random.Random(11)
    for _ in range(40):
        check_exhaustively(random_presentation(rng, max_vertices=5))


# -- differential test against the intersection closure ------------------------


def cosingleton(n: int):
    """n vertices, and an edge e_i : v[i] -> {all but v[i]} for each i: the
    ranges have 2^n - 2 distinct nonempty intersections but n types."""
    lines = [f"ultragraph cosingleton{n}", f"vertex_family v finite {n}"]
    for i in range(n):
        others = ", ".join(f"v[{j}]" for j in range(n) if j != i)
        lines.append(f"edge e{i} : v[{i}] -> {{ {others} }}")
    return parse_presentation("\n".join(lines) + "\n")


def _candidate_sets(pres, rng: random.Random) -> list[VertexSet]:
    """The universe, every range, the union of the ranges and each range's
    complement, plus a few random subsets on finite input."""
    ranges = [e.range for e in pres.edges.values()]
    out = [pres.g0_universe(), _union(ranges)]
    out += ranges + [pres.complement(r) for r in ranges]
    if pres.is_finite:
        verts = pres.all_vertices()
        out += [VertexSet.of(*(v for v in verts if rng.random() < 0.6)) for _ in range(4)]
    return [a for a in out if a]


def check_against_intersections(pres, rng: random.Random) -> None:
    """The types cover what the intersections cover, inside every candidate
    set, and g0_contains gives the closure's verdict with a witness that
    names exactly the types inside the set."""
    inters = range_intersections(pres)
    types = _range_types(pres)
    for a in _candidate_sets(pres, rng):
        old = _union(s for s in inters.values() if s.subset_of(a))
        new = _union(s for _, s in types if s.subset_of(a))
        assert new == old, (pres.name, a)
        got, witness = g0_contains(pres, a)
        assert got == a.difference(old).is_finite(), (pres.name, a)
        if got:
            assert _union(_intersection_of(pres, ids) for ids in witness.intersections) == new
    covered = _union(s for s in inters.values())
    assert is_unital(pres) == pres.complement(covered).is_finite(), pres.name


def test_types_match_the_intersection_closure():
    rng = random.Random(23)
    for name in FINITE_CORPUS + INFINITE_CORPUS:
        check_against_intersections(load(name), rng)
    for _ in range(100):
        check_against_intersections(random_presentation(rng), rng)
    for n in range(3, 9):
        check_against_intersections(cosingleton(n), rng)


def test_cosingleton_needs_one_type_per_vertex():
    report = analyze(cosingleton(12))
    assert report["unital"]
    types = report["unit_witness"]["range_intersections"]
    assert len(types) == 12 and all(len(ids) == 11 for ids in types)
    assert report["unit_witness"]["finite_part"] == []
    # past the 2^20 intersections that the closure could list
    assert analyze(cosingleton(24))["unital"]


# -- unit cases -----------------------------------------------------------------


def test_empty_set_is_not_a_generalized_vertex():
    pres = load("single_loop.ug")
    got, witness = g0_contains(pres, VertexSet.empty())
    assert not got and witness is None


def test_ex2_not_unital():
    pres = load("ex2.ug")
    assert not is_unital(pres)
    # the only infinite range is r(e); its complement contains all v[n], n>=2
    got, _ = g0_contains(pres, pres.edges["e"].range)
    assert got
    assert not pres.complement(pres.edges["e"].range).is_finite()


def test_one_edge_unital():
    pres = load("one_edge.ug")
    assert is_unital(pres)
    _, witness = g0_contains(pres, pres.g0_universe())
    assert witness.reevaluate(pres) == pres.g0_universe()


def test_unit_witness_is_decided_once():
    pres = load("two_range.ug")
    witness = unit_witness(pres)
    assert unit_witness(pres) is witness
    universe = pres.g0_universe()
    assert pres.g0_universe() is universe
    pres.validate()
    assert unit_witness(pres) is not witness
    assert unit_witness(pres) == witness
    # a family added before validate() is in the universe built after it
    pres.vertex_families["z"] = 2
    pres.validate()
    assert pres.g0_universe().difference(universe) == VertexSet.of(VertexRef("z", 0), VertexRef("z", 1))


def test_finite_sets_always_members():
    pres = load("ex2.ug")
    a = VertexSet.of(VertexRef("v", 4), VertexRef("w", 9))
    got, witness = g0_contains(pres, a)
    assert got and witness.intersections == ()


def test_unit_witness_walks_vertex_sets_linearly_on_a_named_chain(monkeypatch):
    # every vertex of the chain is its own family, so a subset test that
    # walks the whole vertex set's part list once per range type is
    # quadratic; the types must look their families up instead
    n = 1100
    pres = named_chain(n)
    parts = 0

    def count(name):
        real = getattr(VertexSet, name)

        def spy(self, other, *args):
            nonlocal parts
            parts += len(self.parts) + len(other.parts)
            return real(self, other, *args)

        monkeypatch.setattr(VertexSet, name, spy)

    count("_merge")
    count("subset_of")
    witness = unit_witness(pres)
    assert witness is not None and len(witness.intersections) == n
    assert parts <= 8 * n, parts
