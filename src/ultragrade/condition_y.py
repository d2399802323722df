"""Condition (Y): exact decision for finite ultragraphs, bounded
semi-decision for infinite presentations.

An infinite path e1 e2 e3 ... violates the condition iff for every k
there is no finite path of length k+1 whose range contains s(e_{k+1}).
For finite ultragraphs the family of "reached by some length-l path"
vertex sets is eventually periodic in l, so violations reduce to an
infinite walk inside the bad part of a finite (vertex, length-class)
product graph; by pigeonhole such a walk can be taken eventually
periodic, which is why failure witnesses are lassos.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Union

from .errors import CertificateError, NotFinite
from .indexset import IndexSet
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

    def as_indexset(self, v: VertexRef) -> IndexSet:
        prefix = [False] + [v in self.states[i] for i in range(self.preperiod)]
        period = [
            v in self.states[self.preperiod + j] for j in range(self.period)
        ]
        return IndexSet.make(prefix, period)


@dataclass(frozen=True)
class ConditionYVerdict:
    status: str  # holds | fails | holds_no_sources | violation_up_to_horizon | unknown
    witness: Optional[InfinitePathRep] = None
    horizon: Optional[int] = None

    @property
    def is_definite(self) -> bool:
        return self.status in ("holds", "fails", "holds_no_sources")

    @property
    def holds(self) -> Optional[bool]:
        if self.status in ("holds", "holds_no_sources"):
            return True
        if self.status == "fails":
            return False
        return None

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


def _product_succ(profile: LengthProfile, c: int) -> int:
    size = len(profile.states)
    return c + 1 if c + 1 < size else profile.preperiod


def _bad(profile: LengthProfile, v: VertexRef, c: int) -> bool:
    return v not in profile.states[c]


def decide_condition_y(pres: UltragraphPresentation) -> ConditionYVerdict:
    """Exact decision; failure witnesses are lasso paths."""
    edges = _finite_edges(pres)
    profile = incoming_length_profile(pres)
    size = len(profile.states)
    vertices = pres.all_vertices()

    out_by_src: dict[VertexRef, list[tuple[EdgeInst, frozenset[VertexRef]]]] = {}
    for inst, s, r in edges:
        out_by_src.setdefault(s, []).append((inst, r))

    bad_nodes = {
        (v, c) for v in vertices for c in range(size) if _bad(profile, v, c)
    }
    adj: dict[tuple, list[tuple[tuple, EdgeInst]]] = {}
    for (v, c) in bad_nodes:
        nxt = _product_succ(profile, c)
        targets = []
        for inst, r in out_by_src.get(v, []):
            for v2 in sorted(r):
                if (v2, nxt) in bad_nodes:
                    targets.append(((v2, nxt), inst))
        adj[(v, c)] = targets

    # nodes lying on a cycle within the bad subgraph (Tarjan, iterative)
    index: dict[tuple, int] = {}
    low: dict[tuple, int] = {}
    on_stack: set = set()
    stack: list = []
    counter = [0]
    cycle_nodes: set = set()

    def strongconnect(root):
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for (child, _inst) in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    cycle_nodes.update(scc)
                else:
                    w = scc[0]
                    if any(t == w for t, _ in adj[w]):
                        cycle_nodes.add(w)

    for node in adj:
        if node not in index:
            strongconnect(node)

    # reachability from bad start nodes (class 0 = length requirement 1)
    starts = [(v, 0) for v in vertices if (v, 0) in bad_nodes]
    parent: dict[tuple, tuple[tuple, EdgeInst] | None] = {s: None for s in starts}
    frontier = list(starts)
    hit = None
    for s in starts:
        if s in cycle_nodes:
            hit = s
            break
    while hit is None and frontier:
        nxt_frontier = []
        for node in frontier:
            for child, inst in adj[node]:
                if child in parent:
                    continue
                parent[child] = (node, inst)
                if child in cycle_nodes:
                    hit = child
                    break
                nxt_frontier.append(child)
            if hit is not None:
                break
        frontier = nxt_frontier
    if hit is None:
        return ConditionYVerdict("holds")

    prefix: list[EdgeInst] = []
    node = hit
    while parent[node] is not None:
        prev, inst = parent[node]
        prefix.append(inst)
        node = prev
    prefix.reverse()

    # one cycle through `hit` inside the bad subgraph
    cyc_parent: dict[tuple, tuple[tuple, EdgeInst]] = {}
    frontier = [hit]
    closing = None
    while closing is None:
        nxt_frontier = []
        for nd in frontier:
            for child, inst in adj[nd]:
                if child == hit:
                    closing = (nd, inst)
                    break
                if child not in cyc_parent:
                    cyc_parent[child] = (nd, inst)
                    nxt_frontier.append(child)
            if closing is not None:
                break
        frontier = nxt_frontier
    cycle: list[EdgeInst] = [closing[1]]
    nd = closing[0]
    while nd != hit:
        prev, inst = cyc_parent[nd]
        cycle.append(inst)
        nd = prev
    cycle.reverse()

    lasso = InfinitePathRep(tuple(prefix), CycleTail(tuple(cycle)))
    if not is_violation(pres, profile, lasso):
        raise CertificateError(f"witness {lasso.label()} is not a violation")
    return ConditionYVerdict("fails", witness=lasso)


def is_violation(
    pres: UltragraphPresentation,
    profile: LengthProfile,
    lasso: InfinitePathRep,
) -> bool:
    """Exact check that a lasso path witnesses failure, using joint
    periodicity of the path and the length profile."""
    if not isinstance(lasso.tail, CycleTail):
        raise ValueError("exact violation check needs a cycle tail")
    if not pres.valid_infinite_path(lasso, depth=50):
        return False
    horizon = (
        len(lasso.prefix)
        + profile.preperiod
        + lcm(len(lasso.tail.edges), profile.period)
    )
    edges = lasso.unroll(horizon + 1)
    for k in range(horizon):
        v_k = pres.edge_source(edges[k])
        if profile.contains(v_k, k + 1):
            return False
    return True


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
    fam = pres.edge_families[name]
    src = fam.source
    identical = any(
        atom.family == src.family
        and atom.aff.a == src.aff.a
        and atom.aff.b == src.aff.a + src.aff.b
        for atom in fam.range_atoms
    )
    if not identical:
        return False
    return all(
        fam.member_range(n).member(fam.member_source(n + 1))
        for n in range(fam.n0, fam.n0 + 3)
    )


def _concrete_cycles(pres: UltragraphPresentation, idx_span: int = 6, max_len: int = 6):
    """Simple cycles among a finite slice of the concrete edges."""
    insts: list[EdgeInst] = [EdgeInst(eid) for eid in pres.edges]
    for name, fam in pres.edge_families.items():
        insts.extend(EdgeInst(name, n) for n in range(fam.n0, fam.n0 + idx_span))
    cycles: set[tuple[EdgeInst, ...]] = set()

    def canon(cyc: tuple[EdgeInst, ...]) -> tuple[EdgeInst, ...]:
        rots = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
        return min(rots)

    def extend(path: list[EdgeInst]) -> None:
        last_range = pres.edge_range(path[-1])
        if last_range.member(pres.edge_source(path[0])):
            cycles.add(canon(tuple(path)))
        if len(path) >= max_len:
            return
        for e in insts:
            if e in path:
                continue
            if last_range.member(pres.edge_source(e)):
                extend(path + [e])

    for e in insts:
        extend([e])
    return sorted(cycles, key=lambda c: [e.sort_key() for e in c])


def _representatives(
    pres: UltragraphPresentation, prefix_len: int = 3
) -> list[InfinitePathRep]:
    tails: list[Union[CycleTail, FamilyTail]] = []
    for cyc in _concrete_cycles(pres):
        tails.append(CycleTail(cyc))
    for name, fam in pres.edge_families.items():
        if _family_self_composes(pres, name):
            tails.append(FamilyTail(name, fam.n0))
            tails.append(FamilyTail(name, fam.n0 + 1))

    reps: dict[tuple, InfinitePathRep] = {}

    def tail_start(tail) -> VertexRef:
        if isinstance(tail, CycleTail):
            return pres.edge_source(tail.edges[0])
        return pres.edge_source(EdgeInst(tail.family, tail.start))

    def backward(prefix: tuple[EdgeInst, ...], v: VertexRef, tail) -> None:
        rep = InfinitePathRep(prefix, tail)
        key = (prefix, tail)
        if key in reps:
            return
        reps[key] = rep
        if len(prefix) >= prefix_len:
            return
        incoming, _ = pres.in_edges(v, cap=4)
        for e in incoming:
            backward((e,) + prefix, pres.edge_source(e), tail)

    for tail in tails:
        backward((), tail_start(tail), tail)
    return [r for r in reps.values() if pres.valid_infinite_path(r, depth=20)]


def check_condition_y_bounded(
    pres: UltragraphPresentation, horizon: int = 40
) -> ConditionYVerdict:
    """Semi-decision: no-sources shortcut, exact decision on finite inputs,
    and otherwise a per-representative search for replacement paths up to
    the horizon."""
    report = structural_report(pres)
    if not report.has_sources:
        return ConditionYVerdict("holds_no_sources")
    if pres.is_finite:
        return decide_condition_y(pres)

    search = _BackwardSearch(pres)
    for rep in _representatives(pres):
        edges = rep.unroll(horizon + 2)
        found = False
        complete = True
        for k in range(horizon + 1):
            v_k = pres.edge_source(edges[k])
            ok, comp = search.exists(v_k, k + 1)
            if ok:
                found = True
                break
            complete = complete and comp
        if not found and complete:
            return ConditionYVerdict(
                "violation_up_to_horizon", witness=rep, horizon=horizon
            )
    return ConditionYVerdict("unknown", horizon=horizon)


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
