"""The replacement-prefix condition on infinite paths.

The exact decision on a finite ultragraph is a theorem (the condition
always holds), checked against an independent oracle: the condition
fails iff the layered "no replacement path of this length" graph
contains a reachable cycle, which we find with networkx primitives."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

import networkx as nx
import pytest

from conftest import CORPUS, FINITE_CORPUS, PathSearch, load, named_chain, random_presentation, shift_path
from ultragrade import condition_y
from ultragrade.condition_y import (
    ConditionYVerdict,
    LengthProfile,
    check_condition_y_bounded,
    decide_condition_y,
    incoming_length_profile,
)
from ultragrade.errors import NotFinite, NotFiniteEdges
from ultragrade.grading import classify_eps_strong_z
from ultragrade.lattice import is_unital
from ultragrade.model import (
    Affine,
    CycleTail,
    Edge,
    EdgeFamily,
    EdgeInst,
    FamilyTail,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
    VertexTemplate,
    parse_presentation,
)
from ultragrade.structure import build_associated_graph


def _incoming_states(pres):
    """R_k = vertices admitting an incoming path of length k, iterated to
    the repeat; returns (states, index-of-repeat-target)."""
    edges = [(e.source, sorted(e.range.vertices())) for e in pres.edges.values()]
    cur = frozenset(v for _, r in edges for v in r)
    seen = {}
    states = []
    while cur not in seen:
        seen[cur] = len(states)
        states.append(cur)
        cur = frozenset(v for s, r in edges if s in cur for v in r)
    return states, seen[cur]


def oracle_fails(pres) -> bool:
    """True iff some infinite path avoids replacement prefixes forever,
    i.e. the layered bad graph has a cycle reachable from layer 0."""
    states, loop = _incoming_states(pres)
    size = len(states)
    g = nx.DiGraph()
    # (v, c) present iff v has no incoming path of length c + 1
    nodes = [
        (v, c)
        for v in pres.all_vertices()
        for c in range(size)
        if v not in states[c]
    ]
    g.add_nodes_from(nodes)
    for v, c in nodes:
        nxt = c + 1 if c + 1 < size else loop
        for e in pres.edges.values():
            if e.source != v:
                continue
            for w in e.range.vertices():
                if (w, nxt) in g:
                    g.add_edge((v, c), (w, nxt))
    cyclic = set()
    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1:
            cyclic.update(comp)
        else:
            (n,) = comp
            if g.has_edge(n, n):
                cyclic.add(n)
    starts = [(v, 0) for v in pres.all_vertices() if (v, 0) in g]
    return any(nx.has_path(g, s, t) for s in starts for t in cyclic)


def test_oracle_agreement_500_random():
    rng = random.Random(101)
    disagreements = 0
    for _ in range(500):
        pres = random_presentation(rng)
        verdict = decide_condition_y(pres)
        if (verdict.status == "fails") != oracle_fails(pres):
            disagreements += 1
    assert disagreements == 0


def _random_lasso(rng, pres):
    """A random infinite path written as prefix + cycle, or None when the
    presentation has no infinite paths."""
    insts = pres.all_edge_insts()
    walk, seen = [], {}
    e = rng.choice(insts)
    while e not in seen:
        seen[e] = len(walk)
        walk.append(e)
        nxt = [f for f in insts if pres.edge_range(e).member(pres.edge_source(f))]
        if not nxt:
            return None
        e = rng.choice(nxt)
    i = seen[e]
    return InfinitePathRep(tuple(walk[:i]), CycleTail(tuple(walk[i:])))


def is_violation(
    pres: UltragraphPresentation,
    profile: LengthProfile,
    lasso: InfinitePathRep,
) -> bool:
    """Exact check that a lasso path witnesses failure: past its prefix
    the path repeats its tail, and from profile.settle on the profile
    reads one set, so later positions add no new case."""
    if not isinstance(lasso.tail, CycleTail):
        raise ValueError("exact violation check needs a cycle tail")
    if not pres.valid_infinite_path(lasso, depth=50):
        return False
    horizon = len(lasso.prefix) + profile.settle + len(lasso.tail.edges)
    edges = lasso.unroll(horizon + 1)
    for k in range(horizon):
        v_k = pres.edge_source(edges[k])
        if profile.reached(k + 1).member(v_k):
            return False
    return True


def test_finite_presentations_always_satisfy_the_condition():
    # an infinite path over finitely many vertices revisits a source vertex,
    # which then lies on a cycle; walking backwards around that cycle gives
    # incoming paths of every length, so a replacement prefix always exists.
    # The exact decision must agree, and no lasso can pass is_violation.
    rng = random.Random(103)
    lassos_checked = 0
    for _ in range(200):
        pres = random_presentation(rng)
        assert decide_condition_y(pres).status == "holds"
        lasso = _random_lasso(rng, pres)
        if lasso is not None:
            profile = incoming_length_profile(pres)
            assert not is_violation(pres, profile, lasso)
            lassos_checked += 1
    assert lassos_checked > 100


def test_the_proof_names_a_replacement_prefix_on_random_lassos():
    # decide_condition_y's argument, followed on each lasso: the first
    # position i2 that repeats an edge e, first seen at i1 (0-based); with
    # k = i1, the k + 1 edges just before position i2 are a path whose
    # range holds s(e_{k+1}), so they replace the first k edges
    rng = random.Random(109)
    lassos_checked = 0
    for _ in range(300):
        pres = random_presentation(rng)
        lasso = _random_lasso(rng, pres)
        if lasso is None:
            continue
        edges = lasso.unroll(len(lasso.prefix) + 2 * len(lasso.tail.edges))
        first_at = {}
        for i2, e in enumerate(edges):
            if e in first_at:
                break
            first_at[e] = i2
        k = first_at[edges[i2]]
        alpha = edges[i2 - k - 1 : i2]
        assert len(alpha) == k + 1 and i2 - k - 1 >= 0
        assert pres.is_path(alpha)
        assert pres.edge_range(alpha[-1]).member(pres.edge_source(edges[k]))
        assert pres.is_path(alpha + edges[k:])
        lassos_checked += 1
    assert lassos_checked >= 200


def test_exact_decision_refuses_infinite_presentations():
    with pytest.raises(NotFinite):
        decide_condition_y(load("ex2.ug"))


def test_transfer_to_associated_graph_200_random():
    rng = random.Random(107)
    for _ in range(200):
        pres = random_presentation(rng)
        assoc = build_associated_graph(pres)
        assert decide_condition_y(pres).status == decide_condition_y(assoc).status


def test_single_loop_holds():
    assert decide_condition_y(load("single_loop.ug")).status == "holds"
    assert check_condition_y_bounded(load("single_loop.ug")).status == "holds_no_sources"


def test_ef_holds_exactly_despite_source():
    verdict = check_condition_y_bounded(load("ef.ug"))
    assert verdict.status == "holds"


def test_ex2_violation():
    verdict = check_condition_y_bounded(load("ex2.ug"), horizon=40)
    assert verdict.status == "violation_up_to_horizon"
    assert verdict.witness.prefix == (EdgeInst("e"),)
    assert verdict.witness.tail == FamilyTail("f", 2)


def test_infinite_range_no_sources():
    assert check_condition_y_bounded(load("infinite_range.ug")).status == "holds_no_sources"


# -- the length profile against the frozenset profile it replaced -----------


@dataclass(frozen=True)
class FrozensetProfile:
    """The reached vertices per length as frozensets, iterated to the
    first repeat of any earlier state, with the preperiod and period that
    repeat gives."""

    states: tuple[frozenset, ...]
    preperiod: int
    period: int

    def contains(self, v: VertexRef, length: int) -> bool:
        if length <= len(self.states):
            i = length - 1
        else:
            i = self.preperiod + (length - 1 - self.preperiod) % self.period
        return v in self.states[i]


def frozenset_profile(pres) -> FrozensetProfile:
    edges = [(e.source, frozenset(e.range.vertices())) for e in pres.edges.values()]
    if not edges:
        return FrozensetProfile((frozenset(),), 0, 1)
    states, seen = [], {}
    cur = frozenset().union(*(r for _, r in edges))
    while cur not in seen:
        seen[cur] = len(states)
        states.append(cur)
        cur = frozenset().union(*(r for s, r in edges if s in cur))
    first = seen[cur]
    return FrozensetProfile(tuple(states), first, len(states) - first)


def profile_inputs():
    rng = random.Random(307)
    out = [load(name) for name in FINITE_CORPUS + ["cosingleton12.ug", "chain70.ug"]]
    out += [random_presentation(rng) for _ in range(150)]
    out += [random_presentation(rng, sinkless=True) for _ in range(60)]
    return out


def state_profile(pres) -> tuple[VertexSet, ...]:
    """The reached sets per length as VertexSet states, to the first
    repeat: the first is the union of every range, and each next one the
    union of the ranges of the edges whose source the state before holds.
    The states only shrink, so the first repeat is of the state just
    before, and every longer length reads the last state."""
    live = list(pres.edges.values())
    states: list[VertexSet] = []
    while True:
        cur = VertexSet.empty()
        for e in live:
            cur = cur.union(e.range)
        if states and cur == states[-1]:
            return tuple(states)
        states.append(cur)
        live = [e for e in live if cur.member(e.source)]


def state_reached(states, length: int) -> VertexSet:
    return states[min(length, len(states)) - 1]


def state_last_ranges(pres, states, m: int) -> list[VertexSet]:
    """The distinct last ranges of the paths of length m, in sorted edge
    order: e ends such a path iff m = 1 or the state of length m - 1 holds
    s(e)."""
    edges = [pres.edges[eid] for eid in sorted(pres.edges)]
    if m > 1:
        edges = [e for e in edges if state_reached(states, m - 1).member(e.source)]
    return list(dict.fromkeys(e.range for e in edges))


def test_profile_matches_the_frozenset_profile():
    inputs = profile_inputs()
    assert len(inputs) >= 200
    for pres in inputs:
        profile = incoming_length_profile(pres)
        oracle = frozenset_profile(pres)
        states = state_profile(pres)
        for length in range(1, profile.settle + 4):
            for v in pres.all_vertices():
                assert profile.reached(length).member(v) == oracle.contains(v, length), (pres.name, v, length)
        assert [frozenset(s.vertices()) for s in states] == list(oracle.states)
        # the states only shrink, so the first repeat is of the state just before
        assert oracle.period == 1
        for shorter, longer in zip(states, states[1:]):
            assert longer.subset_of(shorter) and longer != shorter


@pytest.mark.dash_o
def test_profile_matches_the_state_oracle():
    # profile_inputs() holds the one-family chain chain70.ug
    inputs = profile_inputs() + [named_chain(70)]
    sufficient = gaps = 0
    for pres in inputs:
        profile = incoming_length_profile(pres)
        states = state_profile(pres)
        # the settle length bounds the strong-Z certificate's depth cap
        assert len(states) <= profile.settle, pres.name
        assert profile.longest == (None if states[-1] else len(states) - 1), pres.name
        # an edge ends a path of length m iff its depth is at least m or
        # None, so the ranges of those edges are the last ranges of length m
        ranges = [pres.edges[eid].range for eid in sorted(profile.depth)]
        assert list(dict.fromkeys(ranges)) == state_last_ranges(pres, states, 1), pres.name
        for length in range(1, profile.settle + 4):
            assert profile.reached(length) == state_reached(states, length), (pres.name, length)
            got = list(
                dict.fromkeys(
                    pres.edges[eid].range
                    for eid, d in sorted(profile.depth.items())
                    if d is None or d >= length
                )
            )
            want = state_last_ranges(pres, states, length)
            assert len(got) == len(want) and set(got) == set(want), (pres.name, length)
        covered = all(states[0].member(e.source) for e in pres.edges.values())
        assert (1 not in profile.depth.values()) == covered, pres.name
        if is_unital(pres):
            reasons = classify_eps_strong_z(pres).reasons
            assert ("every edge source lies in some edge range (sufficient)" in reasons) == covered
            sufficient, gaps = sufficient + covered, gaps + (not covered)
    assert sufficient >= 20 and gaps >= 20, (sufficient, gaps)
    chain70 = next(pres for pres in inputs if pres.name == "chain70")
    assert incoming_length_profile(chain70).longest == incoming_length_profile(inputs[-1]).longest == 70


def test_profile_over_an_infinite_vertex_family():
    pres = load("sink_family.ug")
    profile = incoming_length_profile(pres)
    w = pres.edges["e"].range
    assert state_profile(pres) == (w, VertexSet.empty())
    assert profile.depth == {"e": 1} and profile.settle == 2 and profile.longest == 1
    assert profile.reached(1) == w and profile.reached(5).is_empty()
    assert profile.reached(1).member(VertexRef("w", 10**6))
    with pytest.raises(ValueError):
        profile.reached(0)


def test_profile_refuses_edge_families():
    with pytest.raises(NotFiniteEdges):
        incoming_length_profile(load("ex2.ug"))


# -- replacement paths for a given infinite path ----------------------------


@dataclass(frozen=True)
class NoWitnessUpTo:
    horizon: int


def condition_y_witness(
    pres: UltragraphPresentation,
    p: InfinitePathRep,
    m: int,
    horizon: int = 40,
) -> Union[tuple[int, tuple[EdgeInst, ...]], NoWitnessUpTo]:
    """A pair (k, alpha) with |alpha| = k + m and alpha . sigma^k(p) an
    infinite path, searched for k up to the horizon."""
    if m < 1:
        raise ValueError("m must be positive")
    search = PathSearch(pres)
    edges = p.unroll(horizon + 2)
    shifted = p
    for k in range(horizon + 1):
        v_k = pres.edge_source(edges[k])
        alpha = search.find(v_k, k + m)
        if alpha is not None:
            tail20 = shifted.unroll(20)
            if pres.is_path(list(alpha) + tail20):
                return k, alpha
        shifted = shift_path(shifted)
    return NoWitnessUpTo(horizon)


def test_witness_search_m_version():
    pres = load("ef.ug")
    p = InfinitePathRep((EdgeInst("e"),), CycleTail((EdgeInst("f"),)))
    got = condition_y_witness(pres, p, 1)
    assert not isinstance(got, NoWitnessUpTo)
    k, alpha = got
    assert len(alpha) == k + 1
    assert pres.is_path(list(alpha) + p.unroll(10)[k:])
    # m = 2 as well: replacement paths exist with two extra letters
    got2 = condition_y_witness(pres, p, 2)
    k2, alpha2 = got2
    assert len(alpha2) == k2 + 2


def test_ex2_witness_has_no_replacements():
    pres = load("ex2.ug")
    p = InfinitePathRep((EdgeInst("e"),), FamilyTail("f", 2))
    assert isinstance(condition_y_witness(pres, p, 1, horizon=20), NoWitnessUpTo)


# -- the bounded semi-decision against a representative-by-representative
# oracle ----------------------------------------------------------------
#
# The oracle lists every representative infinite path (bounded concrete
# cycle or self-composing family tail, behind every backward prefix of at
# most three edges), keeps those that are paths to depth 20, and runs the
# replacement search along each in turn.  The library decides the prefix
# and the tail positions separately and never lists the representatives;
# both must give the same status, witness and horizon.


def _oracle_concrete_cycles(pres, idx_span=6, max_len=6):
    insts = [EdgeInst(eid) for eid in pres.edges]
    for name, fam in pres.edge_families.items():
        insts.extend(EdgeInst(name, n) for n in range(fam.n0, fam.n0 + idx_span))
    cycles = set()

    def canon(cyc):
        return min(cyc[i:] + cyc[:i] for i in range(len(cyc)))

    def extend(path):
        last_range = pres.edge_range(path[-1])
        if last_range.member(pres.edge_source(path[0])):
            cycles.add(canon(tuple(path)))
        if len(path) >= max_len:
            return
        for e in insts:
            if e not in path and last_range.member(pres.edge_source(e)):
                extend(path + [e])

    for e in insts:
        extend([e])
    return sorted(cycles, key=lambda c: [e.sort_key() for e in c])


def _concrete_cycles(pres):
    """Every concrete cycle, walked from each first edge in sorted order;
    _cycles_from yields each first edge's cycles sorted, so the list is
    sorted without a sort."""
    return [cyc for first in condition_y._edge_successors(pres) for cyc in condition_y._cycles_from(pres, first)]


def _oracle_representatives(pres, prefix_len=3):
    tails = [CycleTail(cyc) for cyc in _oracle_concrete_cycles(pres)]
    for name, fam in pres.edge_families.items():
        if condition_y._family_self_composes(pres, name):
            tails.append(FamilyTail(name, fam.n0))
            tails.append(FamilyTail(name, fam.n0 + 1))
    reps = {}

    def backward(prefix, v, tail):
        if (prefix, tail) in reps:
            return
        reps[(prefix, tail)] = InfinitePathRep(prefix, tail)
        if len(prefix) >= prefix_len:
            return
        for e in pres.in_edges(v, cap=4)[0]:
            backward((e,) + prefix, pres.edge_source(e), tail)

    for tail in tails:
        start = InfinitePathRep((), tail).unroll(1)[0]
        backward((), pres.edge_source(start), tail)
    return [r for r in reps.values() if pres.valid_infinite_path(r, depth=20)]


def oracle_bounded(pres, horizon, reps):
    """The semi-decision on an infinite presentation with sources, one
    representative of `reps` at a time."""
    search = condition_y._BackwardSearch(pres)
    for rep in reps:
        edges = rep.unroll(horizon + 2)
        found, complete = False, True
        for k in range(horizon + 1):
            ok, comp = search.exists(pres.edge_source(edges[k]), k + 1)
            if ok:
                found = True
                break
            complete = complete and comp
        if not found and complete:
            return ConditionYVerdict("violation_up_to_horizon", witness=rep, horizon=horizon)
    return ConditionYVerdict("unknown", horizon=horizon)


def random_ray_presentation(rng, max_vertices=5, max_edges=6):
    """A conftest-shaped finite core over v plus an infinite ray
    f[n] : r[n-1] -> r[n].  The ray is entered from a core vertex or, as
    in ex2, only through a fresh source u; its range sometimes also
    holds a core vertex (truncated in-edge lists), and an edge sometimes
    leads back from the ray into the core (cycles through the family)."""
    pres = random_presentation(rng, max_vertices, max_edges)
    nv = pres.vertex_families["v"]
    pres.vertex_families["r"] = None
    atoms = [VertexTemplate("r", Affine(1, 0))]
    if rng.random() < 0.25:
        atoms.append(VertexTemplate("v", Affine(0, rng.randrange(nv))))
    pres.edge_families["f"] = EdgeFamily(
        "f", 1, VertexTemplate("r", Affine(1, -1)), tuple(atoms)
    )
    entry = VertexRef("r", rng.randrange(2))
    if rng.random() < 0.5:
        pres.vertex_families["u"] = 1
        pres.atoms.add("u")
        members = [entry] + ([VertexRef("v", rng.randrange(nv))] if rng.random() < 0.5 else [])
        pres.edges["in"] = Edge("in", VertexRef("u", 0), VertexSet.of(*members))
    else:
        pres.edges["in"] = Edge("in", VertexRef("v", rng.randrange(nv)), VertexSet.of(entry))
    if rng.random() < 0.25:
        pres.edges["back"] = Edge(
            "back", VertexRef("r", rng.randrange(1, 4)), VertexSet.of(VertexRef("v", rng.randrange(nv)))
        )
    pres.validate()
    return pres


def clique_ray(k):
    """A source feeding a complete directed graph on k vertices, one of
    which feeds an infinite ray."""
    lines = [
        f"ultragraph clique{k}",
        "vertex src",
        f"vertex_family q finite {k}",
        "vertex_family r infinite",
        "edge feed : src -> { q[0] }",
        f"edge out : q[{k - 1}] -> {{ r[0] }}",
    ]
    lines += [f"edge c{i}_{j} : q[{i}] -> {{ q[{j}] }}" for i in range(k) for j in range(k) if i != j]
    lines.append("edge_family f[n] (n >= 1) : r[n-1] -> { r[n] }")
    return parse_presentation("\n".join(lines) + "\n")


def ex2_clique(k):
    """ex2 plus a complete directed graph on k vertices entered from v[0]
    (corpus/ex2_clique7.ug at k = 7)."""
    lines = [(CORPUS / "ex2.ug").read_text().replace("ultragraph ex2", f"ultragraph ex2_clique{k}")]
    lines += [f"vertex_family q finite {k}", "edge into : v[0] -> { q[0] }"]
    lines += [f"edge c{i}_{j} : q[{i}] -> {{ q[{j}] }}" for i in range(k) for j in range(k) if i != j]
    return parse_presentation("\n".join(lines) + "\n")


@pytest.fixture
def searches(monkeypatch):
    """Every backward search started while the test runs."""
    started = []

    class Recorded(condition_y._BackwardSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(condition_y, "_BackwardSearch", Recorded)
    return started


def _same_verdicts(pres, horizons):
    """The library's statuses at each horizon, after checking that the
    oracle gives the same status, witness and horizon, and the same
    cycles."""
    assert _concrete_cycles(pres) == _oracle_concrete_cycles(pres)
    reps = None
    statuses = []
    for horizon in horizons:
        got = check_condition_y_bounded(pres, horizon)
        statuses.append(got.status)
        if got.status == "holds_no_sources":
            continue
        if reps is None:
            reps = _oracle_representatives(pres)
        want = oracle_bounded(pres, horizon, reps)
        assert got.to_dict() == want.to_dict(), pres.name
        assert got.witness == want.witness
    return statuses


# Horizons 2 and 3 lie on the two sides of the span from which no cycle
# is listed (span = horizon + 1 > _PREFIX_LEN).
ORACLE_HORIZONS = (40, 9, 8, 7, 5, 3, 2, 1, 0)


def test_bounded_matches_oracle_on_corpus_and_clique_rays(searches):
    inputs = {
        "ex2": load("ex2.ug"),
        "infinite_range": load("infinite_range.ug"),
        "clique3": clique_ray(3),
        "clique4": clique_ray(4),
        "clique5": clique_ray(5),
        "ex2_clique4": ex2_clique(4),
        "ex2_clique5": ex2_clique(5),
    }
    horizons = ORACLE_HORIZONS
    statuses = {}
    for name, pres in inputs.items():
        for horizon, status in zip(horizons, _same_verdicts(pres, horizons)):
            statuses[name, horizon] = status
    assert statuses["ex2", 40] == "violation_up_to_horizon"
    assert statuses["infinite_range", 40] == "holds_no_sources"
    assert statuses["clique3", 40] == statuses["clique4", 40] == "unknown"
    assert statuses["clique5", 40] == statuses["clique5", 8] == "unknown"
    # at horizon 0 only the first position counts, and the source has no
    # incoming path at all
    assert statuses["clique4", 0] == "violation_up_to_horizon"
    for horizon in ORACLE_HORIZONS:
        assert statuses["ex2_clique5", horizon] == "violation_up_to_horizon"
    assert searches and all(s.nodes <= s.budget for s in searches)


def test_bounded_matches_oracle_on_random_rays(searches):
    rng = random.Random(211)
    seen = {}
    for i in range(60):
        # a smaller core than conftest's default keeps the oracle, which
        # lists every representative, to a few seconds
        pres = random_ray_presentation(rng, max_vertices=5, max_edges=5)
        pres.name = f"ray{i}"
        for status in _same_verdicts(pres, (40, 9, 8, 7, 3, 2)):
            seen[status] = seen.get(status, 0) + 1
    assert seen.get("violation_up_to_horizon", 0) >= 5, seen
    assert seen.get("unknown", 0) >= 5, seen
    assert all(s.nodes <= s.budget for s in searches)


@pytest.mark.dash_o
def test_ex2_clique7_witnesses():
    # at horizon 0 a clique cycle behind a one-edge prefix carries the
    # witness; from horizon 1 on the family tail does, and from horizon 3
    # on no cycle is listed at all
    pres = load("ex2_clique7.ug")
    assert check_condition_y_bounded(pres, 0).to_dict()["witness"] == "e into (c0_1 c1_0)^inf"
    for horizon in (1, 2, 3, 8, 40):
        assert check_condition_y_bounded(pres, horizon).to_dict()["witness"] == "e f[2..]", horizon


@pytest.mark.dash_o
def test_cycle_tails_need_no_search():
    # the lemma of check_condition_y_bounded: on a cycle tail, tail_bad as a
    # search would answer it is span <= j, whichever search asks; a budget
    # of 0 leaves every answer incomplete, and the random rays whose range
    # also holds a core vertex have truncated in-edge lists
    rng = random.Random(211)
    inputs = [clique_ray(k) for k in (3, 4, 5, 6)] + [ex2_clique(k) for k in (3, 4, 5)]
    inputs += [random_ray_presentation(rng, max_vertices=5, max_edges=5) for _ in range(60)]
    cycles = truncated = 0
    for pres in inputs:
        shared = condition_y._BackwardSearch(pres)
        for cyc in _concrete_cycles(pres):
            cycles += 1
            truncated += any(not pres.in_edges(pres.edge_source(e))[1] for e in cyc)
            for span in range(13):
                edges = InfinitePathRep((), CycleTail(cyc)).unroll(max(span, 1))
                want = [span <= j for j in range(condition_y._PREFIX_LEN + 1)]
                fresh = condition_y._BackwardSearch(pres)
                for search in (fresh, shared, condition_y._BackwardSearch(pres, 0)):
                    got = [
                        condition_y._unanswered(pres, search, edges[: max(0, span - j)], j + 1)
                        for j in range(condition_y._PREFIX_LEN + 1)
                    ]
                    assert got == want, (pres.name, cyc, span)
    assert cycles > 1000 and truncated >= 20, (cycles, truncated)


@pytest.mark.dash_o
def test_no_cycle_is_walked_from_horizon_3_on(monkeypatch):
    walks = []
    cycles_from = condition_y._cycles_from

    def counted(pres, first):
        walks.append(first)
        return cycles_from(pres, first)

    monkeypatch.setattr(condition_y, "_cycles_from", counted)
    rng = random.Random(211)
    inputs = [load("ex2_clique7.ug"), clique_ray(6)]
    inputs += [random_ray_presentation(rng, max_vertices=5, max_edges=5) for _ in range(20)]
    for pres in inputs:
        for horizon in (3, 8, 40):
            check_condition_y_bounded(pres, horizon)
    assert walks == []
    # below that, one walk per first edge at most, up to the witness
    pres = load("ex2_clique7.ug")
    for horizon in (0, 1, 2):
        walks.clear()
        check_condition_y_bounded(pres, horizon)
        assert walks and len(walks) == len(set(walks)) <= len(condition_y._edge_successors(pres))


def test_concrete_cycles_use_the_sixth_family_member():
    # in6 f[6] back6 closes through the sixth member of f; the cycle
    # through b needs f[7], beyond the slice, so exactly one cycle is listed
    pres = parse_presentation(
        "ultragraph slice_edge\nvertex a\nvertex b\nvertex_family r infinite\n"
        "edge in6 : a -> { r[5] }\nedge back6 : r[6] -> { a }\n"
        "edge in7 : b -> { r[6] }\nedge back7 : r[7] -> { b }\n"
        "edge_family f[n] (n >= 1) : r[n-1] -> { r[n] }\n"
    )
    assert _concrete_cycles(pres) == [
        (EdgeInst("back6"), EdgeInst("in6"), EdgeInst("f", 6))
    ]


def test_every_tail_is_an_infinite_path():
    # check_condition_y_bounded relies on this and does not re-check tails
    inputs = [load(f.name) for f in sorted(CORPUS.glob("*.ug"))]
    inputs += [clique_ray(3), clique_ray(4)]
    # f[n] reaches the source of f[n+1] for n = 1, 2, 3 only, so f is not
    # self-composing and must give no family tail
    inputs.append(parse_presentation(
        "ultragraph early\nvertex src\nvertex_family r infinite\n"
        "edge in : src -> { r[0] }\n"
        "edge_family f[n] (n >= 1) : r[n-1] -> { r[1], r[2], r[3] }\n"
    ))
    rng = random.Random(211)
    inputs += [random_ray_presentation(rng, max_vertices=5, max_edges=5) for _ in range(60)]
    tails = 0
    for pres in inputs:
        for tail in [CycleTail(cyc) for cyc in _concrete_cycles(pres)] + condition_y._family_tails(pres):
            assert pres.valid_infinite_path(InfinitePathRep((), tail), depth=20), pres.name
            tails += 1
    assert tails > 100


@pytest.mark.dash_o
def test_negative_horizons_are_refused():
    # a negative horizon would check no position at all and read as a
    # violation of every representative
    for name in ("ex2.ug", "ef.ug", "single_loop.ug"):
        with pytest.raises(ValueError, match="at least 0"):
            check_condition_y_bounded(load(name), -1)
    assert check_condition_y_bounded(clique_ray(3), 0).status == "violation_up_to_horizon"


def test_budget_cut_search_stays_unknown(monkeypatch):
    # with no search budget every answer is incomplete, so the ex2
    # violation cannot be proved and must not turn into a definite verdict
    class NoBudget(condition_y._BackwardSearch):
        def __init__(self, pres, budget=0):
            super().__init__(pres, 0)

    monkeypatch.setattr(condition_y, "_BackwardSearch", NoBudget)
    verdict = check_condition_y_bounded(load("ex2.ug"))
    assert verdict.status == "unknown"
    assert verdict.witness is None
