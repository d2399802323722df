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

from typing import NamedTuple, Optional, Sequence

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


class ConditionYVerdict(NamedTuple):
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
    # Kahn's count (CACM 1962) over f -> g when s(g) is in r(f), the shared
    # _edge_successors: an edge is taken once every edge before it is, and one
    # that a cycle reaches never is; the counts do not depend on list order
    succ = _edge_successors(pres)
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
    depth = {e.name: None if waiting[e] else count[e] for e in succ}
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
    """Existence of paths of given length ending with a given vertex in
    range, over an arbitrary presentation.  Truncated predecessor
    enumerations make negative answers incomplete; the `complete` flag
    records that."""

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


def _cycles_from(pres: UltragraphPresentation, first: EdgeInst):
    """The simple cycles of at most _CYCLE_LEN edges of _edge_successors
    whose least edge is `first`, each in its rotation that starts with
    `first`, lazily and in sorted order.

    The walk is a preorder over the simple paths from `first` that step
    only to edges greater than it, with each node's children taken in the
    sort_key order of its successor list; a cycle is yielded at its node,
    before the paths that extend it.  So of two cycles, a proper prefix of
    the other comes first, and otherwise they first differ at a position
    where they share a parent node, and the one with the smaller edge there
    is yielded, with every path below it, before the other: the order is
    that of sorting by [e.sort_key() for e in cycle].  Every cycle is an
    infinite path: the walk steps from e only to an f with s(f) in r(e),
    and it closes only when s(first) is in r(last)."""
    succ = _edge_successors(pres)

    def extend(path: list[EdgeInst]):
        last = path[-1]
        if first in succ[last]:
            yield tuple(path)
        if len(path) < _CYCLE_LEN:
            for e in succ[last]:
                if e > first and e not in path:
                    path.append(e)
                    yield from extend(path)
                    path.pop()

    return extend([first])


def _family_tails(pres: UltragraphPresentation) -> list[FamilyTail]:
    """Two starts of each self-composing family.  Each is an infinite path,
    so no caller re-checks it: the family has a range atom equal to its own
    source shifted by one, so r(f[n]) holds s(f[n+1]) for every n, and
    every index from n0 on resolves."""
    tails = []
    for name, fam in pres.edge_families.items():
        if _family_self_composes(pres, name):
            tails.append(FamilyTail(name, fam.n0))
            tails.append(FamilyTail(name, fam.n0 + 1))
    return tails


def _prefix_tree(
    pres: UltragraphPresentation,
    v: VertexRef,
    in_edges: dict[VertexRef, list[EdgeInst]],
):
    """The backward prefixes into v of up to _PREFIX_LEN edges, each edge
    from the in-edge list of the next source truncated at 4 members per
    family, lazily in DFS preorder: (), then for each in-edge e of v in
    order, (e,) and the prefixes that extend it."""

    def walk(prefix: tuple[EdgeInst, ...], u: VertexRef):
        yield prefix
        if len(prefix) < _PREFIX_LEN:
            if u not in in_edges:
                in_edges[u] = pres.in_edges(u, cap=4)[0]
            for e in in_edges[u]:
                yield from walk((e,) + prefix, pres.edge_source(e))

    return walk((), v)


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


def check_condition_y_bounded(
    pres: UltragraphPresentation, horizon: int = 40
) -> ConditionYVerdict:
    """Semi-decision: no-sources shortcut, exact decision on finite inputs,
    and otherwise a search for replacement paths up to the horizon (at
    least 0) along every representative infinite path.

    A representative is a tail (a concrete cycle of _cycles_from or a
    family tail of _family_tails) behind a backward prefix of at most
    _PREFIX_LEN edges from truncated in-edge lists, so it is an infinite
    path.  It violates the condition up to the horizon iff, for every
    k <= horizon, the search proves that no path of length k + 1 has the
    source of its (k+1)-th edge in range.  Of these span = horizon + 1
    positions, those before j = len(prefix) depend only on the prefix, and
    the rest only on the tail and j: tail_bad[j] says the search proves
    them all.  The first violating prefix is looked up once per start
    vertex and tail_bad, so no representative is listed.  The first
    violation in the order cycles (sorted), family tails, and for each,
    prefixes in DFS preorder, is the witness; it is re-checked on its own.

    A cycle tail needs no search: its tail_bad[j] is span <= j.  For each
    edge e of a concrete cycle and each l >= 1, the l edges before e
    backward around the cycle are a path with s(e) in its last range.  By
    induction on l, exists(s(e), l) never answers (False, complete): a
    complete in-edge list of s(e) holds the cycle edge p before e, so it
    is nonempty at l = 1, and at l > 1 exists(s(p), l - 1) finds a path or
    is incomplete, s(p) being on the cycle too, which makes the answer
    found or incomplete.  A truncated list or a spent budget gives only
    incomplete answers, and the memo holds only answers so made.  So
    _unanswered is False on every nonempty window of a cycle's unrolling,
    and the window behind j prefix edges is empty iff span <= j.

    As span >= 1, a cycle can violate only behind a prefix of span or more
    edges, so when span > _PREFIX_LEN no cycle is listed.  Below that, a
    cycle's verdict depends only on its start vertex, and the sorted
    cycles come grouped by first edge, so only the first cycle that
    _cycles_from yields from each first edge is taken."""
    if horizon < 0:
        raise ValueError(f"the horizon must be at least 0, not {horizon}")
    if not structural_report(pres).has_sources:
        return ConditionYVerdict("holds_no_sources")
    if pres.is_finite:
        return decide_condition_y(pres)

    span = horizon + 1  # the positions k = 0..horizon
    search = _BackwardSearch(pres)
    in_edges: dict[VertexRef, list[EdgeInst]] = {}
    first_bad: dict[tuple, Optional[tuple[EdgeInst, ...]]] = {}

    def tails():
        if span <= _PREFIX_LEN:
            cycle_bad = tuple(span <= j for j in range(_PREFIX_LEN + 1))
            for first in _edge_successors(pres):
                cycle = next(_cycles_from(pres, first), None)
                if cycle is not None:
                    yield CycleTail(cycle), pres.edge_source(first), cycle_bad
        for tail in _family_tails(pres):
            edges = InfinitePathRep((), tail).unroll(span)
            bad = tuple(
                _unanswered(pres, search, edges[: max(0, span - j)], j + 1) for j in range(_PREFIX_LEN + 1)
            )
            yield tail, pres.edge_source(edges[0]), bad

    for tail, start, tail_bad in tails():
        key = (start, tail_bad)
        if any(tail_bad) and key not in first_bad:
            asked = (p for p in _prefix_tree(pres, start, in_edges) if tail_bad[len(p)])
            first_bad[key] = next((p for p in asked if _unanswered(pres, search, p[:span], 1)), None)
        prefix = first_bad.get(key)
        if prefix is not None:
            witness = InfinitePathRep(prefix, tail)
            _recheck_violation(pres, witness, horizon)
            return ConditionYVerdict("violation_up_to_horizon", witness=witness, horizon=horizon)
    return ConditionYVerdict("unknown", horizon=horizon)


def _recheck_violation(
    pres: UltragraphPresentation, rep: InfinitePathRep, horizon: int
) -> None:
    """Re-derive a violation witness from scratch: a path to depth
    _VALID_DEPTH with no replacement path at any position up to the
    horizon, by a fresh search along its own unrolling."""
    if not pres.valid_infinite_path(rep, depth=_VALID_DEPTH):
        raise CertificateError(f"witness {rep.label()} is not an infinite path")
    edges = rep.unroll(horizon + 1)
    if not _unanswered(pres, _BackwardSearch(pres), edges, 1):
        raise CertificateError(
            f"witness {rep.label()} has a replacement path up to horizon {horizon}"
        )

