"""Structural predicates and the associated directed graph.

The associated graph replaces every edge e by one edge e@u per vertex u in
r(e), with source s(e) and range {u}.  Infinite ranges decompose into
finitely many arithmetic progressions, each becoming a constant-source
edge family (a faithful infinite emitter).
"""

from __future__ import annotations

from dataclasses import dataclass

from .indexset import IndexSet
from .model import (
    Affine,
    Edge,
    EdgeFamily,
    UltragraphPresentation,
    VertexRef,
    VertexSet,
    VertexTemplate,
)


@dataclass(frozen=True)
class StructuralReport:
    has_sinks: bool
    sink_witness: VertexRef | None
    has_sources: bool
    source_witness: VertexRef | None
    has_infinite_emitter: bool
    infinite_emitter_witness: VertexRef | None
    row_finite: bool
    finite_range: bool

    def to_dict(self) -> dict:
        def w(v):
            return v.label() if v is not None else None

        return {
            "has_sinks": self.has_sinks,
            "sink_witness": w(self.sink_witness),
            "has_sources": self.has_sources,
            "source_witness": w(self.source_witness),
            "has_infinite_emitter": self.has_infinite_emitter,
            "infinite_emitter_witness": w(self.infinite_emitter_witness),
            "row_finite": self.row_finite,
            "finite_range": self.finite_range,
        }


def _emitting_cover(pres: UltragraphPresentation) -> VertexSet:
    """All vertices that emit at least one edge."""
    parts: dict[str, IndexSet] = {}

    def add(fam: str, s: IndexSet) -> None:
        parts[fam] = parts.get(fam, IndexSet.empty()).union(s)

    for e in pres.edges.values():
        add(e.source.family, IndexSet.from_indices([e.source.index]))
    for fam in pres.edge_families.values():
        t = fam.source
        add(t.family, IndexSet.progression(t.aff.a, t.aff.b, fam.n0))
    return VertexSet.make(parts)


def _range_cover(pres: UltragraphPresentation) -> VertexSet:
    """All vertices that lie in the range of at least one edge."""
    cover = VertexSet.empty()
    for e in pres.edges.values():
        cover = cover.union(e.range)
    parts: dict[str, IndexSet] = {}
    for fam in pres.edge_families.values():
        for t in fam.range_atoms:
            s = IndexSet.progression(t.aff.a, t.aff.b, fam.n0)
            parts[t.family] = parts.get(t.family, IndexSet.empty()).union(s)
    return cover.union(VertexSet.make(parts))


def _first_vertex(vs: VertexSet) -> VertexRef | None:
    for fam, s in vs.parts:
        i = s.min_element()
        if i is not None:
            return VertexRef(fam, i)
    return None


def structural_report(pres: UltragraphPresentation) -> StructuralReport:
    """Sinks, sources, infinite emitters and row-finiteness, built once
    per presentation."""
    return pres.derived("structural_report", _build_structural_report)


def _build_structural_report(pres: UltragraphPresentation) -> StructuralReport:
    sinks = pres.g0_universe().difference(_emitting_cover(pres))
    sources = pres.g0_universe().difference(_range_cover(pres))
    emitter_witness = None
    for fam in pres.edge_families.values():
        if fam.source.is_constant():
            emitter_witness = fam.source.at(fam.n0)
            break
    finite_range = all(e.range.is_finite() for e in pres.edges.values())
    has_emitter = emitter_witness is not None
    return StructuralReport(
        has_sinks=not sinks.is_empty(),
        sink_witness=_first_vertex(sinks),
        has_sources=not sources.is_empty(),
        source_witness=_first_vertex(sources),
        has_infinite_emitter=has_emitter,
        infinite_emitter_witness=emitter_witness,
        row_finite=finite_range and not has_emitter,
        finite_range=finite_range,
    )


def _vref_tag(pres: UltragraphPresentation, v: VertexRef) -> str:
    if v.family in pres.atoms and v.index == 0:
        return v.family
    return f"{v.family}.{v.index}"


def build_associated_graph(pres: UltragraphPresentation) -> UltragraphPresentation:
    """The directed graph E_G: same vertices, one edge e@u per u in r(e)."""
    out = UltragraphPresentation(
        name=f"{pres.name}_assoc",
        vertex_families=dict(pres.vertex_families),
        atoms=set(pres.atoms),
    )
    for eid, e in pres.edges.items():
        for fam, s in e.range.parts:
            for i in (j for j, b in enumerate(s.prefix) if b):
                u = VertexRef(fam, i)
                nid = f"{eid}@{_vref_tag(pres, u)}"
                out.edges[nid] = Edge(nid, e.source, VertexSet.of(u))
            if not s.is_finite():
                base, step = len(s.prefix), len(s.period)
                for j, b in enumerate(s.period):
                    if b:
                        nid = f"{eid}@{fam}.p{j}"
                        out.edge_families[nid] = EdgeFamily(
                            name=nid,
                            n0=0,
                            source=VertexTemplate(e.source.family, Affine(0, e.source.index)),
                            range_atoms=(VertexTemplate(fam, Affine(step, base + j)),),
                        )
    for name, fam in pres.edge_families.items():
        for k, atom in enumerate(fam.range_atoms):
            nid = f"{name}@r{k}" if len(fam.range_atoms) > 1 else f"{name}@{atom.family}"
            out.edge_families[nid] = EdgeFamily(
                name=nid, n0=fam.n0, source=fam.source, range_atoms=(atom,)
            )
    out.validate()
    return out
