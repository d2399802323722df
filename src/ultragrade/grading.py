"""Grading verdicts: strong and epsilon-strong gradings over the integers
and over the free group on the edges, plus gauge saturation.

The decision rules:
  * strongly Z-graded  ⇔  no sinks, row-finite, and every infinite path
    admits replacement prefixes (the infinite-path condition decided by
    the condition_y module);
  * epsilon-strongly Z-graded  ⇒  finitely many edges and a unital
    algebra; those two plus "every edge source lies in some range" are
    sufficient; the gap in between is genuine and is reported as
    Undetermined unless an explicit family of unit certificates closes it;
  * strongly F-graded  ⇔  exactly one edge e with r(e) = {s(e)};
  * epsilon-strongly F-graded  ⇔  unital;
  * gauge saturation  ⇔  the strong-Z criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import algebra
from .condition_y import ConditionYVerdict, check_condition_y_bounded
from .errors import CertificateError, NoEdges
from .lattice import is_unital, unit_witness
from .model import UltragraphPresentation, VertexSet
from .structure import structural_report


@dataclass
class GradingVerdict:
    property: str  # StrongZ | EpsStrongZ | StrongF | EpsStrongF | GaugeSaturated
    status: str  # Yes | No | Undetermined | Unknown
    reasons: list[str] = field(default_factory=list)
    certificate: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "status": self.status,
            "reasons": list(self.reasons),
            "certificate": self.certificate,
        }


def _condition_y_reason(cy: ConditionYVerdict) -> tuple[Optional[bool], str]:
    if cy.status == "holds":
        return True, "replacement-prefix condition holds (exact decision)"
    if cy.status == "holds_no_sources":
        return True, "replacement-prefix condition holds (no sources)"
    if cy.status == "violation_up_to_horizon":
        return (
            False,
            f"replacement-prefix condition violated up to horizon {cy.horizon}; "
            f"witness {cy.witness.label()}",
        )
    return None, f"replacement-prefix condition undecided up to horizon {cy.horizon}"


def classify_strong_z(
    pres: UltragraphPresentation, horizon: int = 40
) -> GradingVerdict:
    """Strongly Z-graded iff no sinks, row-finite, and the replacement
    condition on infinite paths holds."""
    return _strong_z_from(pres, check_condition_y_bounded(pres, horizon))


def _strong_z_from(pres: UltragraphPresentation, cy: ConditionYVerdict) -> GradingVerdict:
    """The strong-Z verdict from an already computed replacement-condition
    verdict."""
    report = structural_report(pres)
    reasons = []
    ok = True
    unknown = False
    if report.has_sinks:
        reasons.append(f"sink present: {report.sink_witness.label()}")
        ok = False
    else:
        reasons.append("no sinks")
    if report.row_finite:
        reasons.append("row-finite")
    else:
        if not report.finite_range:
            reasons.append("not row-finite: some edge has infinite range")
        else:
            reasons.append(
                f"not row-finite: infinite emitter {report.infinite_emitter_witness.label()}"
            )
        ok = False
    cy_ok, cy_reason = _condition_y_reason(cy)
    reasons.append(cy_reason)
    if cy_ok is False:
        ok = False
    elif cy_ok is None:
        unknown = True
    if not ok:
        status = "No"
    elif unknown:
        status = "Unknown"
    else:
        status = "Yes"
    verdict = GradingVerdict("StrongZ", status, reasons)
    if status == "Yes" and pres.is_finite:
        verdict.certificate = _strong_z_certificate(pres)
    return verdict


def _strong_z_certificate(pres: UltragraphPresentation) -> dict:
    factorizations: dict[str, dict[str, list]] = {}
    for v in pres.all_vertices():
        per_v = {}
        for n in (1, -1):
            pairs = algebra.strong_factorization(pres, v, n)
            if not algebra.verify_factorization(pres, v, pairs, n):
                raise CertificateError(f"factorization of {v.label()} in degree {n} does not verify")
            per_v[str(n)] = [
                [algebra.pretty(a), algebra.pretty(b)] for a, b in pairs
            ]
        factorizations[v.label()] = per_v
    return {"kind": "vertex_factorizations", "pairs": factorizations}


def _edge_cycle_exists(pres: UltragraphPresentation) -> bool:
    """Cycle detection on the finite edge set (no edge families)."""
    from .model import EdgeInst

    insts = [EdgeInst(eid) for eid in sorted(pres.edges)]
    succ = {
        e: [f for f in insts if pres.edge_range(e).member(pres.edge_source(f))]
        for e in insts
    }
    color: dict = {}

    def dfs(e) -> bool:
        color[e] = 1
        for f in succ[e]:
            c = color.get(f)
            if c == 1:
                return True
            if c is None and dfs(f):
                return True
        color[e] = 2
        return False

    return any(color.get(e) is None and dfs(e) for e in insts)


def _longest_path_length(pres: UltragraphPresentation) -> int:
    length = 0
    paths = algebra.all_paths(pres, 1)
    while paths:
        length += 1
        paths = algebra.all_paths(pres, length + 1)
    return length


def classify_eps_strong_z(pres: UltragraphPresentation) -> GradingVerdict:
    if pres.edge_families:
        return GradingVerdict(
            "EpsStrongZ", "No", ["infinitely many edges (finiteness is necessary)"]
        )
    if not is_unital(pres):
        return GradingVerdict(
            "EpsStrongZ",
            "No",
            ["not unital: the full vertex set is not a generalized vertex"],
        )
    reasons = ["finitely many edges", "unital"]
    covered = VertexSet.empty()
    for e in pres.edges.values():
        covered = covered.union(e.range)
    if all(covered.member(e.source) for e in pres.edges.values()):
        reasons.append("every edge source lies in some edge range (sufficient)")
        return GradingVerdict("EpsStrongZ", "Yes", reasons)
    reasons.append(
        "some edge source lies in no range; the sufficient criterion fails"
    )
    if _edge_cycle_exists(pres):
        reasons.append("cycles present: unit-certificate search not conclusive")
        return GradingVerdict("EpsStrongZ", "Undetermined", reasons)
    # acyclic: only finitely many graded components are nonzero, so a
    # finite family of verified unit candidates settles the question
    horizon = _longest_path_length(pres)
    certificate: dict[str, str] = {}
    for n in range(-horizon, horizon + 1):
        cand = algebra.epsilon_candidate(pres, n)
        if not algebra.verify_epsilon(pres, n, cand):
            reasons.append(f"unit candidate for degree {n} failed verification")
            return GradingVerdict("EpsStrongZ", "Undetermined", reasons)
        certificate[str(n)] = algebra.pretty(cand)
    reasons.append(
        f"acyclic edge set: verified unit certificates for all degrees |n| <= {horizon}"
        " (higher components vanish)"
    )
    return GradingVerdict(
        "EpsStrongZ", "Yes", reasons, {"kind": "epsilon_units", "units": certificate}
    )


def _require_edges(pres: UltragraphPresentation) -> None:
    if not pres.edges and not pres.edge_families:
        raise NoEdges("free-group gradings need at least one edge")


def classify_strong_f(pres: UltragraphPresentation) -> GradingVerdict:
    _require_edges(pres)
    if pres.edge_families or len(pres.edges) != 1:
        return GradingVerdict(
            "StrongF", "No", ["more than one edge (a single self-tracking edge is required)"]
        )
    e = next(iter(pres.edges.values()))
    if e.range == VertexSet.of(e.source):
        return GradingVerdict("StrongF", "Yes", ["exactly one edge e with r(e) = {s(e)}"])
    return GradingVerdict("StrongF", "No", ["single edge but r(e) differs from {s(e)}"])


def classify_eps_strong_f(pres: UltragraphPresentation) -> GradingVerdict:
    _require_edges(pres)
    if is_unital(pres):
        return GradingVerdict(
            "EpsStrongF", "Yes", ["unital: the full vertex set is a generalized vertex"]
        )
    return GradingVerdict(
        "EpsStrongF", "No", ["not unital: the full vertex set is not a generalized vertex"]
    )


def gauge_saturation(pres: UltragraphPresentation, horizon: int = 40) -> GradingVerdict:
    return _gauge_from(classify_strong_z(pres, horizon))


def _gauge_from(base: GradingVerdict) -> GradingVerdict:
    """Gauge saturation from the strong-Z verdict, sharing its certificate."""
    reasons = list(base.reasons)
    reasons.append(
        "gauge saturation is equivalent to the strong Z-grading criterion; "
        "analytically: spectral-subspace products are dense in the fixed-point algebra"
    )
    return GradingVerdict("GaugeSaturated", base.status, reasons, base.certificate)


def analyze(pres: UltragraphPresentation, horizon: int = 40) -> dict:
    from . import __version__

    witness = unit_witness(pres)
    cy = check_condition_y_bounded(pres, horizon)
    strong_z = _strong_z_from(pres, cy)

    def grading(fn):
        try:
            return fn(pres).to_dict()
        except NoEdges:
            return GradingVerdict(
                "StrongF" if fn is classify_strong_f else "EpsStrongF",
                "Unknown",
                ["no edges: the free-group grading is undefined"],
            ).to_dict()

    out = {
        "tool": "ultragrade",
        "version": __version__,
        "presentation": pres.name,
        "parameters": {"horizon": horizon},
        "structure": structural_report(pres).to_dict(),
        "unital": witness is not None,
        "unit_witness": None,
        "condition_y": cy.to_dict(),
        "gradings": {
            "strong_z": strong_z.to_dict(),
            "eps_strong_z": grading(classify_eps_strong_z),
            "strong_f": grading(classify_strong_f),
            "eps_strong_f": grading(classify_eps_strong_f),
            "gauge_saturated": _gauge_from(strong_z).to_dict(),
        },
    }
    if witness is not None:
        out["unit_witness"] = {
            "finite_part": [v.label() for v in witness.finite_part],
            "range_intersections": [list(ids) for ids in witness.intersections],
        }
    return out
