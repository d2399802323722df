"""Presentation parsing, validation, printing, and path predicates."""

from __future__ import annotations

import random
from math import lcm

import pytest

from conftest import FINITE_CORPUS, INFINITE_CORPUS, load, random_presentation
from ultragrade.errors import EmptyRange, InfiniteEmitter, ParseError
from ultragrade.indexset import IndexSet
from ultragrade.model import (
    CycleTail,
    EdgeInst,
    FamilyTail,
    InfinitePathRep,
    VertexRef,
    VertexSet,
    parse_presentation,
    print_presentation,
    shift_path,
)


def test_single_loop_counts():
    pres = parse_presentation("ultragraph g\nvertex u\nedge e : u -> { u }\n")
    assert len(pres.vertex_families) == 1
    assert len(pres.edges) == 1
    assert pres.is_finite


def test_ex2_accepted():
    pres = load("ex2.ug")
    assert set(pres.edges) == {"e", "e1"}
    assert set(pres.edge_families) == {"f"}
    assert not pres.is_finite


def test_empty_range_rejected():
    with pytest.raises(EmptyRange):
        parse_presentation("ultragraph g\nvertex u\nedge e : u -> {  }\n")


def test_parse_error_has_line_number():
    with pytest.raises(ParseError) as exc:
        parse_presentation("ultragraph g\nvertex u\nwhat is this\n")
    assert exc.value.line_no == 3


def test_out_edges():
    pres = load("ex2.ug")
    assert pres.out_edges(VertexRef("v", 1)) == [EdgeInst("f", 2)]
    assert pres.out_edges(VertexRef("u", 0)) == [EdgeInst("e")]
    assert pres.is_sink(VertexRef("w", 5))


def test_constant_source_family_is_infinite_emitter():
    pres = parse_presentation(
        "ultragraph g\nvertex u\nvertex_family y infinite\n"
        "edge_family h[n] (n >= 0) : u -> { y[n] }\n"
    )
    with pytest.raises(InfiniteEmitter):
        pres.out_edges(VertexRef("u", 0))
    assert pres.vertex_emits(VertexRef("u", 0))


def test_is_path_ex2():
    pres = load("ex2.ug")
    assert pres.is_path([EdgeInst("e"), EdgeInst("f", 2)])
    assert not pres.is_path([EdgeInst("e1"), EdgeInst("f", 2)])
    assert pres.is_path([EdgeInst("e1"), EdgeInst("e1"), EdgeInst("e1")])


def test_shift_path():
    p = InfinitePathRep((EdgeInst("e"),), FamilyTail("f", 2))
    q = shift_path(p)
    assert q == InfinitePathRep((), FamilyTail("f", 2))
    assert shift_path(q) == InfinitePathRep((), FamilyTail("f", 3))
    c = InfinitePathRep((), CycleTail((EdgeInst("a"), EdgeInst("b"))))
    assert shift_path(c).tail.edges == (EdgeInst("b"), EdgeInst("a"))


def test_unroll():
    p = InfinitePathRep((EdgeInst("e"),), FamilyTail("f", 2))
    assert p.unroll(3) == [EdgeInst("e"), EdgeInst("f", 2), EdgeInst("f", 3)]


@pytest.mark.parametrize("name", FINITE_CORPUS + INFINITE_CORPUS)
def test_print_parse_round_trip_corpus(name):
    pres = load(name)
    text = print_presentation(pres)
    again = parse_presentation(text)
    assert print_presentation(again) == text
    assert set(again.edges) == set(pres.edges)
    assert again.vertex_families == pres.vertex_families


def test_print_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        pres = random_presentation(rng)
        text = print_presentation(pres)
        again = parse_presentation(text)
        for eid, e in pres.edges.items():
            assert again.edges[eid].source == e.source
            assert again.edges[eid].range == e.range


# -- Boolean atoms of vertex sets ------------------------------------------


def _random_vertex_set(rng: random.Random) -> VertexSet:
    """Up to three families, each an eventually periodic index set."""
    parts = {}
    for fam in rng.sample(["a", "b", "c"], rng.randint(1, 3)):
        prefix = [rng.random() < 0.4 for _ in range(rng.randint(0, 12))]
        period = [rng.random() < 0.3 for _ in range(rng.randint(1, 4))]
        parts[fam] = IndexSet.make(prefix, period)
    return VertexSet.make(parts)


def test_refine_gives_the_atoms_of_the_inputs():
    rng = random.Random(5)
    for _ in range(300):
        sets = [_random_vertex_set(rng) for _ in range(rng.randint(0, 5))]
        atoms = VertexSet.refine(sets)
        union = VertexSet.empty()
        for s in sets:
            union = union.union(s)
        covered = VertexSet.empty()
        for i, (a, held) in enumerate(atoms):
            assert a
            for b, _ in atoms[i + 1 :]:
                assert a.intersection(b).is_empty()
            covered = covered.union(a)
        assert covered == union
        assert len({held for _, held in atoms}) == len(atoms)
        # membership repeats past every prefix by the joint period
        parts = [s for vs in sets for _, s in vs.parts]
        bound = max((s.prefix_len for s in parts), default=0) + lcm(
            *(s.period_len for s in parts)
        )
        for a, held in atoms:
            for v in a.iter_vertices(bound=bound):
                assert held == tuple(j for j, s in enumerate(sets) if s.member(v))
