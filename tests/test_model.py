"""Presentation parsing, validation, printing, and path predicates."""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from math import lcm

import pytest

from conftest import FINITE_CORPUS, INFINITE_CORPUS, is_sink, load, random_presentation, shift_path
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
    assert is_sink(pres, VertexRef("w", 5))


def test_constant_source_family_is_infinite_emitter():
    pres = parse_presentation(
        "ultragraph g\nvertex u\nvertex_family y infinite\n"
        "edge_family h[n] (n >= 0) : u -> { y[n] }\n"
    )
    with pytest.raises(InfiniteEmitter):
        pres.out_edges(VertexRef("u", 0))
    assert not is_sink(pres, VertexRef("u", 0))


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


def unroll_edge_by_edge(p: InfinitePathRep, depth: int) -> list[EdgeInst]:
    out = list(p.prefix[:depth])
    i = 0
    while len(out) < depth:
        if isinstance(p.tail, CycleTail):
            out.append(p.tail.edges[i % len(p.tail.edges)])
        else:
            out.append(EdgeInst(p.tail.family, p.tail.start + i))
        i += 1
    return out


def test_unroll_matches_the_edge_by_edge_walk():
    prefixes = [(), (EdgeInst("e"),), (EdgeInst("e"), EdgeInst("g", 4), EdgeInst("h"))]
    tails = [
        CycleTail((EdgeInst("a"),)),
        CycleTail((EdgeInst("a"), EdgeInst("b", 1), EdgeInst("c"))),
        FamilyTail("f", 0),
        FamilyTail("f", 2),
    ]
    for prefix in prefixes:
        for tail in tails:
            p = InfinitePathRep(prefix, tail)
            for depth in range(51):
                assert p.unroll(depth) == unroll_edge_by_edge(p, depth), (p, depth)


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
    return VertexSet.make(parts.items())


@pytest.mark.dash_o
def test_make_matches_the_pairwise_union_fold():
    # repeated families, empty index sets and families out of order, all
    # against one VertexSet per pair folded with union
    rng = random.Random(17)
    repeated = 0
    for _ in range(400):
        pairs = []
        for _ in range(rng.randint(0, 8)):
            fam = rng.choice(["a", "b", "c"])
            prefix = [rng.random() < 0.3 for _ in range(rng.randint(0, 10))]
            period = [rng.random() < 0.2 for _ in range(rng.randint(1, 4))]
            pairs.append((fam, IndexSet.make(prefix, period)))
        fold = VertexSet.empty()
        for fam, s in pairs:
            fold = fold.union(VertexSet(((fam, s),) if s else ()))
        got = VertexSet.make(pairs)
        assert got == fold, pairs
        assert [fam for fam, _ in got.parts] == sorted({fam for fam, s in pairs if s})
        repeated += len({fam for fam, _ in pairs}) < len(pairs)
    assert repeated >= 200


def refine_by_pairs_oracle(sets):
    """VertexSet.refine as it was before signatures: split every atom found
    so far by each set in turn, then add what the set holds outside them."""
    atoms = []
    seen = VertexSet.empty()
    for i, vs in enumerate(sets):
        refined = []
        for a, held in atoms:
            inner = a.intersection(vs)
            if inner:
                refined.append((inner, held + (i,)))
            outer = a.difference(vs)
            if outer:
                refined.append((outer, held))
        fresh = vs.difference(seen)
        if fresh:
            refined.append((fresh, (i,)))
        seen = seen.union(vs)
        atoms = refined
    return atoms


@pytest.mark.dash_o
def test_refine_matches_the_pairwise_oracle():
    rng = random.Random(11)
    repeated = 0
    for _ in range(300):
        sets = [_random_vertex_set(rng) for _ in range(rng.randint(0, 5))]
        if sets and rng.random() < 0.3:
            sets.insert(rng.randrange(len(sets) + 1), rng.choice(sets))
            repeated += 1
        got = VertexSet.refine(sets)
        want = refine_by_pairs_oracle(sets)
        assert len(got) == len(want)
        assert {held: a for a, held in got} == {held: a for a, held in want}, sets
    assert repeated >= 50


@pytest.mark.dash_o
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


# -- vertex sets as values ---------------------------------------------------


@dataclass(frozen=True)
class FrozenVertexSet:
    """The frozen dataclass VertexSet used to be: the reference for its
    equality and its hash."""

    parts: tuple


def _seeded_vertex_sets(rng: random.Random) -> list[VertexSet]:
    """Periodic sets, finite sets of one to four vertices, the empty set,
    repeats of the same value and equal values built anew."""
    sets = []
    for _ in range(100):
        sets.append(_random_vertex_set(rng))
        vrefs = [VertexRef(rng.choice("abc"), rng.randrange(40)) for _ in range(rng.randint(1, 4))]
        sets.append(VertexSet.of(*vrefs))
    sets.append(VertexSet.empty())
    sets += [rng.choice(sets) for _ in range(40)]
    sets += [VertexSet.make(rng.choice(sets).parts) for _ in range(40)]
    return sets


@pytest.mark.dash_o
def test_vertex_sets_compare_and_hash_as_the_frozen_dataclass():
    rng = random.Random(29)
    sets = _seeded_vertex_sets(rng)
    periodic = sum(not vs.is_finite() for vs in sets)
    assert periodic >= 50 and len(sets) - periodic >= 50
    refs = [FrozenVertexSet(vs.parts) for vs in sets]
    for vs, ref in zip(sets, refs):
        assert hash(vs) == hash(ref) == hash((vs.parts,))
        assert hash(vs) == hash(vs)  # the kept hash
        assert vs != vs.parts and vs != ref
    equal = 0
    for a, ra in zip(sets, refs):
        for b, rb in zip(sets, refs):
            assert (a == b) == (ra == rb) == (a.parts == b.parts)
            assert (a != b) == (ra != rb)
            equal += a == b and a is not b
    assert equal >= 100
    # sets and dicts keyed by vertex sets iterate in the reference's order
    assert [vs.parts for vs in set(sets)] == [ref.parts for ref in set(refs)]
    assert repr(sets[0]) == repr(refs[0]).replace("FrozenVertexSet", "VertexSet")


@pytest.mark.dash_o
def test_one_vertex_sets_match_make():
    for i in range(301):
        got = VertexSet.of(VertexRef("a", i))
        want = VertexSet.make([("a", IndexSet.from_indices([i]))])
        assert got == want and hash(got) == hash(want)
        assert got.parts[0][1] == IndexSet.make([j == i for j in range(i + 1)], [False])
    with pytest.raises(ValueError, match="nonnegative"):
        VertexSet.of(VertexRef("a", -1))
    with pytest.raises(ValueError, match="nonnegative"):
        VertexSet.of(VertexRef("a", 0), VertexRef("b", -1))


@pytest.mark.dash_o
def test_operations_of_a_set_with_itself_match_the_general_ones():
    rng = random.Random(31)
    for a in _seeded_vertex_sets(rng):
        copy = VertexSet(tuple(list(a.parts)))  # equal parts in another tuple
        for op in (VertexSet.union, VertexSet.intersection, VertexSet.difference):
            assert op(a, a) == op(a, copy) == op(copy, a), (op.__name__, a)
        assert a.union(a) == a.intersection(a) == a
        assert a.difference(a) == VertexSet.empty()


@pytest.mark.dash_o
def test_vertex_sets_are_slotted_values():
    vs = VertexSet.of(VertexRef("a", 3), VertexRef("b", 0))
    assert not hasattr(vs, "__dict__")
    with pytest.raises(AttributeError):
        vs.extra = 1
    hash(vs)
    copy = pickle.loads(pickle.dumps(vs))
    assert copy == vs and copy._hash is None and hash(copy) == hash(vs)
