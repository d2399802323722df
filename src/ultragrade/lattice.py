"""The lattice of generalized vertices and its membership decision.

A subset A of the vertices is a generalized vertex iff it can be written
as F ∪ I_1 ∪ ... ∪ I_k with F finite and each I_j a nonempty intersection
of ranges of individually specified edges.  This normal form follows from
closure under finite unions and nonempty finite intersections: edge-family
ranges are finite per member, so all the infinite content comes from the
individually specified ranges.

The intersections need not be listed.  The type T(v) of a vertex v is the
set of ranges that hold it, and R_T is the intersection of the ranges in
T.  An intersection that holds v is taken over ranges in T(v), so it
contains R_{T(v)}, and R_{T(v)} holds v.  Hence the intersections inside
A cover exactly what the sets R_T ⊆ A cover, and A is a generalized
vertex iff A minus their union is finite.  The types are the index sets
that VertexSet.refine gives the atoms of the ranges, so there is one R_T
per atom rather than one per intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .model import UltragraphPresentation, VertexRef, VertexSet


@dataclass(frozen=True)
class GeneralizedVertex:
    """Witness decomposition: a finite remainder plus range intersections."""

    underlying: VertexSet
    finite_part: tuple[VertexRef, ...]
    intersections: tuple[tuple[str, ...], ...]  # each a set of edge ids

    def reevaluate(self, pres: UltragraphPresentation) -> VertexSet:
        out = VertexSet.of(*self.finite_part)
        for ids in self.intersections:
            cur = pres.edges[ids[0]].range
            for eid in ids[1:]:
                cur = cur.intersection(pres.edges[eid].range)
            out = out.union(cur)
        return out


def _range_types(pres: UltragraphPresentation) -> list[tuple[tuple[str, ...], VertexSet]]:
    """One pair (T, R_T) per type T of vertex: the ids of the individually
    specified edges whose ranges hold it, and those ranges' intersection."""
    ids = sorted(pres.edges)
    ranges = [pres.edges[eid].range for eid in ids]
    out = []
    for _, held in VertexSet.refine(ranges):
        inter = ranges[held[0]]
        for i in held[1:]:
            inter = inter.intersection(ranges[i])
        out.append((tuple(ids[i] for i in held), inter))
    return out


def g0_contains(
    pres: UltragraphPresentation, a: VertexSet
) -> tuple[bool, GeneralizedVertex | None]:
    """Decide A ∈ 𝒢⁰, with a witness decomposition on success; the witness
    is re-evaluated from the edge ranges before it is returned."""
    if a.is_empty():
        return False, None
    covered = VertexSet.empty()
    used: list[tuple[str, ...]] = []
    for ids, inter in pres.derived("range_types", _range_types):
        if inter.subset_of(a):
            covered = covered.union(inter)
            used.append(ids)
    rest = a.difference(covered)
    if not rest.is_finite():
        return False, None
    witness = GeneralizedVertex(a, tuple(rest.vertices()), tuple(sorted(used)))
    if witness.reevaluate(pres) != a:
        raise CertificateError("the generalized-vertex witness does not rebuild its set")
    return True, witness


def unit_witness(pres: UltragraphPresentation) -> GeneralizedVertex | None:
    """The witness that the whole vertex set is a generalized vertex, or
    None when it is not; decided once per presentation."""
    return pres.derived("unit_witness", lambda p: g0_contains(p, p.g0_universe())[1])


def is_unital(pres: UltragraphPresentation) -> bool:
    """The algebra is unital iff the whole vertex set is a generalized vertex."""
    return unit_witness(pres) is not None
