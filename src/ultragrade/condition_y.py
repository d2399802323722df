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

from .errors import CertificateError, NotFinite
from .model import (
    CycleTail,
    EdgeInst,
    FamilyTail,
    InfinitePathRep,
    UltragraphPresentation,
    VertexRef,
    shift_path,
)
from .structure import structural_report

SEARCH_NODE_BUDGET = 10**5
_PREFIX_LEN = 3  # edges of backward prefix in front of a representative's tail
_VALID_DEPTH = 20  # edges unrolled to check that a witness is a path


@dataclass(frozen=True)
class LengthProfile:
    """For each vertex v, the set N'(v) of lengths l >= 1 such that some
    path of length l has v in its range; shared preperiod/period."""

    states: tuple[frozenset[VertexRef], ...]  # states[i] = reached at length i+1
    preperiod: int
    period: int

    def _idx(self, length: int) -> int:
        if length < 1:
            raise ValueError("lengths start at 1")
        if length <= len(self.states):
            return length - 1
        return self.preperiod + ((length - 1 - self.preperiod) % self.period)

    def contains(self, v: VertexRef, length: int) -> bool:
        return v in self.states[self._idx(length)]


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


@dataclass(frozen=True)
class NoWitnessUpTo:
    horizon: int


def _finite_edges(pres: UltragraphPresentation) -> list[tuple[EdgeInst, VertexRef, frozenset[VertexRef]]]:
    if not pres.is_finite:
        raise NotFinite("exact decision requires a finite ultragraph")
    out = []
    for eid, e in pres.edges.items():
        out.append((EdgeInst(eid), e.source, frozenset(e.range.vertices())))
    return out


def incoming_length_profile(pres: UltragraphPresentation) -> LengthProfile:
    """The length profile of a finite presentation, built once per
    presentation."""
    return pres.derived("length_profile", _build_length_profile)


def _build_length_profile(pres: UltragraphPresentation) -> LengthProfile:
    edges = _finite_edges(pres)
    states: list[frozenset[VertexRef]] = []
    seen: dict[frozenset[VertexRef], int] = {}
    cur: frozenset[VertexRef] = frozenset().union(*(r for _, _, r in edges)) if edges else frozenset()
    while cur not in seen:
        seen[cur] = len(states)
        states.append(cur)
        cur = frozenset().union(
            *(r for _, s, r in edges if s in cur)
        ) if edges else frozenset()
        if not edges:
            break
    if not edges:
        # no paths at all: N'(v) empty for every v
        return LengthProfile((frozenset(),), 0, 1)
    first = seen[cur]
    return LengthProfile(tuple(states), first, len(states) - first)


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


def _concrete_cycles(pres: UltragraphPresentation, idx_span: int = 6, max_len: int = 6):
    """Simple cycles among a finite slice of the concrete edges."""
    insts: list[EdgeInst] = [EdgeInst(eid) for eid in pres.edges]
    for name, fam in pres.edge_families.items():
        insts.extend(EdgeInst(name, n) for n in range(fam.n0, fam.n0 + idx_span))
    succ: dict[EdgeInst, list[EdgeInst]] = {}
    for e in insts:
        rng = pres.edge_range(e)
        succ[e] = [f for f in insts if rng.member(pres.edge_source(f))]
    closes = {e: set(nxt) for e, nxt in succ.items()}
    cycles: list[tuple[EdgeInst, ...]] = []

    # A simple cycle is listed once, in its rotation that starts with its
    # least edge: a walk from `first` only steps to edges greater than it.
    def extend(path: list[EdgeInst]) -> None:
        first, last = path[0], path[-1]
        if first in closes[last]:
            cycles.append(tuple(path))
        if len(path) >= max_len:
            return
        for e in succ[last]:
            if e > first and e not in path:
                path.append(e)
                extend(path)
                path.pop()

    for e in insts:
        extend([e])
    return sorted(cycles, key=lambda c: [e.sort_key() for e in c])


def _tails(pres: UltragraphPresentation) -> list[Union[CycleTail, FamilyTail]]:
    """The tails of the representative infinite paths: the bounded concrete
    cycles in sorted order, then two starts of each self-composing family.

    Every tail is an infinite path, so no caller re-checks it.  A concrete
    cycle composes by construction: _concrete_cycles steps from e only to
    an f with s(f) in r(e), and closes only when s(first) is in r(last).
    A self-composing family has a range atom equal to its own source
    shifted by one, so r(f[n]) holds s(f[n+1]) for every n, and every
    index from n0 on resolves."""
    tails: list[Union[CycleTail, FamilyTail]] = [
        CycleTail(cyc) for cyc in _concrete_cycles(pres)
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
    never listed.  The first violation in the order tails, then prefixes
    in DFS preorder, is the witness, and it is re-checked on its own
    before it is returned."""
    if not structural_report(pres).has_sources:
        return ConditionYVerdict("holds_no_sources")
    if pres.is_finite:
        return decide_condition_y(pres)

    span = max(0, horizon + 1)  # the positions k = 0..horizon
    search = _BackwardSearch(pres)
    trees: dict[VertexRef, list[tuple[EdgeInst, ...]]] = {}
    prefix_bad: dict[tuple[EdgeInst, ...], bool] = {}
    in_edges: dict[VertexRef, list[EdgeInst]] = {}

    for tail in _tails(pres):
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
    search = _BackwardSearch(pres)
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
