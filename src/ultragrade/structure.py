"""Structural predicates and the associated directed graph.

The associated graph replaces every edge e by one edge e@u per vertex u in
r(e), with source s(e) and range {u}.  An infinite range decomposes into
finitely many arithmetic progressions, each becoming a constant-source
edge family (a faithful infinite emitter).
"""

from __future__ import annotations

from typing import NamedTuple

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


class StructuralReport(NamedTuple):
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


def _cover(sets: list[VertexSet], templates: list[tuple[VertexTemplate, int]]) -> VertexSet:
    """The union of `sets` and of the indices each template takes from its
    n0 on."""
    return VertexSet.make(
        [part for vs in sets for part in vs.parts]
        + [(t.family, IndexSet.progression(t.aff.a, t.aff.b, n0)) for t, n0 in templates]
    )


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
    edges, fams = pres.edges.values(), pres.edge_families.values()
    # a sink emits no edge, and a source lies in no range
    emitting = _cover([VertexSet.of(*(e.source for e in edges))], [(f.source, f.n0) for f in fams])
    atoms = [(t, f.n0) for f in fams for t in f.range_atoms]
    sinks = pres.complement(emitting)
    sources = pres.complement(_cover([e.range for e in edges], atoms))
    emitter_witness = None
    for fam in fams:
        if fam.source.is_constant():
            emitter_witness = fam.source.at(fam.n0)
            break
    finite_range = all(e.range.is_finite() for e in edges)
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
