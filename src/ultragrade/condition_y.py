"""Condition (Y): the replacement-prefix condition on infinite paths.

An infinite path e1 e2 e3 ... violates the condition iff for every k
there is no finite path of length k+1 whose range contains s(e_{k+1}).
On a finite ultragraph no infinite path violates it (see
decide_condition_y), so the exact decision needs no search.  On an
infinite presentation, check_condition_y_bounded looks for replacement
paths up to a horizon along a bounded set of representative infinite
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import CertificateError, NotFinite, NotFiniteEdges
from .indexset import IndexSet
from .model import (
    CycleTail,
    EdgeInst,
    FamilyTail,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
)
from .structure import structural_report

SEARCH_NODE_BUDGET = 10**5
_PREFIX_LEN = 3  # edges of backward prefix in front of a representative's tail
_VALID_DEPTH = 20  # edges unrolled to check that a witness is a path
_CYCLE_SPAN = 6  # members of each edge family that concrete cycles may use
_CYCLE_LEN = 6  # edges on the longest concrete cycle


class LengthProfile:
    """Which vertices the paths of each length reach, over a finite edge
    set, from one number per edge: depth[eid] is the number of edges on a
    longest path that ends with the edge, or None when a cycle reaches it
    and such paths are arbitrarily long.

    An edge e ends a path of length l iff depth[e] >= l or is None: the
    last l edges of a longer path ending with e are a path ending with e.
    So reached(l), the vertices in the range of some path of length l, is
    the union of the ranges of those edges.  From the settle length, one
    more than the largest finite depth, the edges counted are those with
    depth None, so every longer length reads the same set.  `longest` is
    the number of edges on a longest path, or None when the edges hold a
    cycle, and then paths are arbitrarily long."""

    def __init__(self, depth: dict[str, Optional[int]], ranges: dict[str, VertexSet]):
        self.depth = depth
        finite = [d for d in depth.values() if d is not None]
        self.settle = 1 + max(finite, default=0)
        self.longest = self.settle - 1 if len(finite) == len(depth) else None
        self._ranges = ranges
        self._reached: dict[int, VertexSet] = {}

    def reached(self, length: int) -> VertexSet:
        if length < 1:
            raise ValueError("lengths start at 1")
        length = min(length, self.settle)
        if length not in self._reached:
            ends = [eid for eid, d in self.depth.items() if d is None or d >= length]
            self._reached[length] = VertexSet.make(part for eid in ends for part in self._ranges[eid].parts)
        return self._reached[length]


@dataclass(frozen=True)
class ConditionYVerdict:
    status: str  # holds | holds_no_sources | violation_up_to_horizon | unknown
    witness: Optional[InfinitePathRep] = None
    horizon: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.label() if self.witness else None,
            "horizon": self.horizon,
        }


def incoming_length_profile(pres: UltragraphPresentation) -> LengthProfile:
    """The length profile of a presentation with finitely many edges,
    built once per presentation."""
    if pres.edge_families:
        raise NotFiniteEdges("the length profile needs a finite edge set")
    return pres.derived("length_profile", _build_length_profile)


def _build_length_profile(pres: UltragraphPresentation) -> LengthProfile:
    # Kahn's count (CACM 1962) over f -> g when s(g) is in r(f): an edge is
    # taken once every edge before it is, and one that a cycle reaches never is
    succ = _successors({eid: (e.source, e.range) for eid, e in pres.edges.items()})
    waiting = dict.fromkeys(succ, 0)
    for nxt in succ.values():
        for g in nxt:
            waiting[g] += 1
    count = dict.fromkeys(succ, 1)
    ready = [e for e in succ if not waiting[e]]
    for f in ready:  # grows while it is read
        for g in succ[f]:
            count[g] = max(count[g], count[f] + 1)
            waiting[g] -= 1
            if not waiting[g]:
                ready.append(g)
    depth = {eid: None if waiting[eid] else count[eid] for eid in succ}
    return LengthProfile(depth, {eid: e.range for eid, e in pres.edges.items()})


def decide_condition_y(pres: UltragraphPresentation) -> ConditionYVerdict:
    """Exact decision for a finite ultragraph: the condition always holds.

    Let e1 e2 ... be an infinite path.  It uses finitely many edges, so
    some edge e occurs at positions p1 < p2 < ....  Set k = p1 - 1.  The
    k + 1 edges just before position p2 (positions p2 - k - 1 >= 1 up to
    p2 - 1) form a path, being a piece of the infinite path, and its last
    range holds s(e_{p2}) = s(e) = s(e_{k+1}).  That path is a replacement
    prefix at position k."""
    if not pres.is_finite:
        raise NotFinite("exact decision requires a finite ultragraph")
    return ConditionYVerdict("holds")


# -- backward search for replacement paths ------------------------------


class _BackwardSearch:
    """Existence (and construction) of paths of given length ending with a
    given vertex in range, over an arbitrary presentation.  Truncated
    predecessor enumerations make negative answers incomplete; the
    `complete` flag records that."""

    def __init__(self, pres: UltragraphPresentation, budget: int = SEARCH_NODE_BUDGET):
        self.pres = pres
        self.budget = budget
        self.nodes = 0
        self.memo: dict[tuple[VertexRef, int], tuple[bool, bool]] = {}
        self.in_cache: dict[VertexRef, tuple[list[EdgeInst], bool]] = {}

    def _in_edges(self, v: VertexRef) -> tuple[list[EdgeInst], bool]:
        if v not in self.in_cache:
            self.in_cache[v] = self.pres.in_edges(v)
        return self.in_cache[v]

    def exists(self, v: VertexRef, length: int) -> tuple[bool, bool]:
        key = (v, length)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        if self.nodes > self.budget:
            return False, False
        incoming, complete = self._in_edges(v)
        if length == 1:
            result = (bool(incoming), complete or bool(incoming))
        else:
            found = False
            sub_complete = complete
            for e in incoming:
                ok, comp = self.exists(self.pres.edge_source(e), length - 1)
                if ok:
                    found = True
                    break
                sub_complete = sub_complete and comp
            result = (found, True if found else sub_complete)
        self.memo[key] = result
        return result

    def find(self, v: VertexRef, length: int) -> Optional[tuple[EdgeInst, ...]]:
        ok, _ = self.exists(v, length)
        if not ok:
            return None
        incoming, _ = self._in_edges(v)
        if length == 1:
            return (incoming[0],)
        for e in incoming:
            head = self.find(self.pres.edge_source(e), length - 1)
            if head is not None:
                return head + (e,)
        return None


# -- representatives of infinite paths ----------------------------------


def _family_self_composes(pres: UltragraphPresentation, name: str) -> bool:
    """True iff some range atom of the family is its source shifted by
    one; that atom gives atom(n) = a·(n+1) + b = s(n+1), so r(f[n]) holds
    s(f[n+1]) for every n."""
    fam = pres.edge_families[name]
    src = fam.source
    return any(
        atom.family == src.family
        and atom.aff.a == src.aff.a
        and atom.aff.b == src.aff.a + src.aff.b
        for atom in fam.range_atoms
    )


def _edge_successors(pres: UltragraphPresentation) -> dict[EdgeInst, list[EdgeInst]]:
    """e ↦ the edges f with s(f) ∈ r(e), over the individually specified
    edges and the first _CYCLE_SPAN members of each edge family, keys and
    lists in EdgeInst.sort_key order; built once per presentation."""
    return pres.derived("edge_successors", _build_edge_successors)


def _build_edge_successors(pres: UltragraphPresentation) -> dict[EdgeInst, list[EdgeInst]]:
    insts = [EdgeInst(eid) for eid in pres.edges]
    for name, fam in pres.edge_families.items():
        insts.extend(EdgeInst(name, n) for n in range(fam.n0, fam.n0 + _CYCLE_SPAN))
    insts.sort(key=EdgeInst.sort_key)
    succ = _successors({e: (pres.edge_source(e), pres.edge_range(e)) for e in insts})
    return {e: sorted(nxt, key=EdgeInst.sort_key) for e, nxt in succ.items()}


def _successors(edges: dict) -> dict:
    """e ↦ the keys f with s(f) ∈ r(e), over a dict from each edge's key to
    its (source, range), in no set order."""
    # the sources are finitely many, so r(e) ∩ sources is finite even when
    # r(e) is not, and only its members are looked up, one family at a time
    at: dict[str, dict[int, list]] = {}
    for f, (src, _) in edges.items():
        at.setdefault(src.family, {}).setdefault(src.index, []).append(f)
    sources = {fam: IndexSet.from_indices(idx) for fam, idx in at.items()}
    return {
        e: [
            f
            for fam, s in rng.parts
            if fam in at
            for i in s.intersection(sources[fam]).iter_elements()
            for f in at[fam][i]
        ]
        for e, (_, rng) in edges.items()
    }


def _concrete_cycles(pres: UltragraphPresentation, skip: frozenset[EdgeInst] = frozenset()):
    """Simple cycles of at most _CYCLE_LEN edges among the edges of
    _edge_successors that are not in `skip`."""
    succ = {
        e: [f for f in nxt if f not in skip] for e, nxt in _edge_successors(pres).items() if e not in skip
    }
    closes = {e: set(nxt) for e, nxt in succ.items()}
    cycles: list[tuple[EdgeInst, ...]] = []

    # A simple cycle is listed once, in its rotation that starts with its
    # least edge: a walk from `first` only steps to edges greater than it.
    def extend(path: list[EdgeInst]) -> None:
        first, last = path[0], path[-1]
        if first in closes[last]:
            cycles.append(tuple(path))
        if len(path) >= _CYCLE_LEN:
            return
        for e in succ[last]:
            if e > first and e not in path:
                path.append(e)
                extend(path)
                path.pop()

    for e in succ:
        extend([e])
    return sorted(cycles, key=lambda c: [e.sort_key() for e in c])


def _tails(
    pres: UltragraphPresentation, skip: frozenset[EdgeInst] = frozenset()
) -> list[Union[CycleTail, FamilyTail]]:
    """The tails of the representative infinite paths: the bounded concrete
    cycles that avoid `skip` in sorted order, then two starts of each
    self-composing family.

    Every tail is an infinite path, so no caller re-checks it.  A concrete
    cycle composes by construction: _concrete_cycles steps from e only to
    an f with s(f) in r(e), and closes only when s(first) is in r(last).
    A self-composing family has a range atom equal to its own source
    shifted by one, so r(f[n]) holds s(f[n+1]) for every n, and every
    index from n0 on resolves."""
    tails: list[Union[CycleTail, FamilyTail]] = [
        CycleTail(cyc) for cyc in _concrete_cycles(pres, skip)
    ]
    for name, fam in pres.edge_families.items():
        if _family_self_composes(pres, name):
            tails.append(FamilyTail(name, fam.n0))
            tails.append(FamilyTail(name, fam.n0 + 1))
    return tails


def _prefix_tree(
    pres: UltragraphPresentation,
    v: VertexRef,
    in_edges: dict[VertexRef, list[EdgeInst]],
) -> list[tuple[EdgeInst, ...]]:
    """The backward prefixes into v of up to _PREFIX_LEN edges, each edge
    from the in-edge list of the next source truncated at 4 members per
    family, in DFS preorder: (), then for each in-edge e of v in order,
    (e,) and the prefixes that extend it."""
    out: list[tuple[EdgeInst, ...]] = []

    def walk(prefix: tuple[EdgeInst, ...], u: VertexRef) -> None:
        out.append(prefix)
        if len(prefix) >= _PREFIX_LEN:
            return
        if u not in in_edges:
            in_edges[u] = pres.in_edges(u, cap=4)[0]
        for e in in_edges[u]:
            walk((e,) + prefix, pres.edge_source(e))

    walk((), v)
    return out


def _unanswered(
    pres: UltragraphPresentation,
    search: _BackwardSearch,
    edges: Sequence[EdgeInst],
    first_len: int,
) -> bool:
    """True iff, for every i, the search proves that no path of length
    first_len + i has s(edges[i]) in its range."""
    for i, e in enumerate(edges):
        ok, complete = search.exists(pres.edge_source(e), first_len + i)
        if ok or not complete:
            return False
    return True


def _skipped_cycle_edges(pres: UltragraphPresentation, span: int) -> frozenset[EdgeInst]:
    """The edges that no violating concrete-cycle tail can use when the
    tail scan covers `span` >= _CYCLE_LEN + _PREFIX_LEN positions: those
    of _edge_successors whose source a backward search finds at every
    length from 1 to _CYCLE_LEN + _PREFIX_LEN.

    An edge e of a listed cycle sits at some position i0 <= _CYCLE_LEN - 1
    of its tail's unrolling.  That position lies inside the window
    edges[:span - j] for every j <= _PREFIX_LEN, where it is asked at
    length j + 1 + i0 <= _CYCLE_LEN + _PREFIX_LEN.  A found path is a real
    path, whichever search found it, so _unanswered is False for every j,
    and the scan already passes over every tail through e.  The kept tails
    keep their order, so the first violation and its witness are the
    same; the scan makes a subset of its old queries, so its node count
    can only fall, and its answers are the same whenever the full scan
    stays within SEARCH_NODE_BUDGET.  The check runs its own search, so
    it spends none of that budget.

    At smaller spans the windows are short or empty and nothing is
    skipped: ex2 plus a clique entered from v[0] has the witness
    e into (c0_1 c1_0)^inf at horizon 0."""
    longest = _CYCLE_LEN + _PREFIX_LEN
    if span < longest:
        return frozenset()
    search = _BackwardSearch(pres)
    return frozenset(
        e
        for e in _edge_successors(pres)
        if all(search.exists(pres.edge_source(e), n)[0] for n in range(1, longest + 1))
    )


def check_condition_y_bounded(
    pres: UltragraphPresentation, horizon: int = 40
) -> ConditionYVerdict:
    """Semi-decision: no-sources shortcut, exact decision on finite inputs,
    and otherwise a search for replacement paths up to the horizon along
    every representative infinite path.

    A representative is a tail (a bounded concrete cycle or a
    self-composing family) behind a backward prefix of at most
    _PREFIX_LEN edges taken from truncated in-edge lists, so it is an
    infinite path (see _tails).  It violates the condition up to the
    horizon iff, for every k <= horizon, the search proves that no path
    of length k + 1 has the source of its (k+1)-th edge in range.
    Those k split into the prefix positions, which depend only on the
    prefix, and the tail positions, which depend only on the tail and the
    prefix length; each part is decided once and the representatives are
    never listed, and neither is a cycle through an edge of
    _skipped_cycle_edges, which could not violate.  The first violation
    in the order tails, then prefixes in DFS preorder, is the witness,
    and it is re-checked on its own before it is returned."""
    if not structural_report(pres).has_sources:
        return ConditionYVerdict("holds_no_sources")
    if pres.is_finite:
        return decide_condition_y(pres)

    span = max(0, horizon + 1)  # the positions k = 0..horizon
    search = _BackwardSearch(pres)
    trees: dict[VertexRef, list[tuple[EdgeInst, ...]]] = {}
    prefix_bad: dict[tuple[EdgeInst, ...], bool] = {}
    in_edges: dict[VertexRef, list[EdgeInst]] = {}

    for tail in _tails(pres, _skipped_cycle_edges(pres, span)):
        edges = InfinitePathRep((), tail).unroll(max(span, 1))
        tail_bad = [
            _unanswered(pres, search, edges[: max(0, span - j)], j + 1)
            for j in range(_PREFIX_LEN + 1)
        ]
        if not any(tail_bad):
            continue
        start = pres.edge_source(edges[0])
        if start not in trees:
            trees[start] = _prefix_tree(pres, start, in_edges)
        for prefix in trees[start]:
            if not tail_bad[len(prefix)]:
                continue
            if prefix not in prefix_bad:
                prefix_bad[prefix] = _unanswered(pres, search, prefix[:span], 1)
            if prefix_bad[prefix]:
                witness = InfinitePathRep(prefix, tail)
                _recheck_violation(pres, witness, horizon)
                return ConditionYVerdict(
                    "violation_up_to_horizon", witness=witness, horizon=horizon
                )
    return ConditionYVerdict("unknown", horizon=horizon)


def _recheck_violation(
    pres: UltragraphPresentation, rep: InfinitePathRep, horizon: int
) -> None:
    """Re-derive a violation witness from scratch: a path to depth
    _VALID_DEPTH with no replacement path at any position up to the
    horizon, by a fresh search along its own unrolling."""
    if not pres.valid_infinite_path(rep, depth=_VALID_DEPTH):
        raise CertificateError(f"witness {rep.label()} is not an infinite path")
    edges = rep.unroll(max(0, horizon + 1))
    if not _unanswered(pres, _BackwardSearch(pres), edges, 1):
        raise CertificateError(
            f"witness {rep.label()} has a replacement path up to horizon {horizon}"
        )

