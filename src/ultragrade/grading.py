"""Grading verdicts: strong and epsilon-strong gradings over the integers
and over the free group on the edges, plus gauge saturation.

The decision rules:
  * strongly Z-graded  ⇔  no sinks, row-finite, and every infinite path
    admits replacement prefixes (the infinite-path condition decided by
    the condition_y module).  On a finite ultragraph a Yes carries the
    strong-Z tables: the out-edge map in degree 1, and in degree −1 one
    node, a τ or children, per state (k, u), checked one identity per
    node by algebra.verify_factorization (proof there) and printed once;
  * epsilon-strongly Z-graded  ⇔  finitely many edges and a unital
    algebra.  Both are necessary.  When every edge source lies in some
    range, that suffices and Yes is given without a certificate; otherwise
    one node table D(m, A), m up to the settle length, with the range
    types' out-edges for n > 0, covers every degree, cycles included,
    re-checked by algebra.verify_epsilon, whose docstring holds the
    proofs.  Only TERM_COUNT_CAP can leave it Undetermined, and a
    certificate that fails its check raises CertificateError;
  * strongly F-graded  ⇔  exactly one edge e with r(e) = {s(e)};
  * epsilon-strongly F-graded  ⇔  unital;
  * gauge saturation  ⇔  the strong-Z criterion.
"""

from __future__ import annotations

from typing import Optional

from . import algebra
from .condition_y import (
    ConditionYVerdict,
    check_condition_y_bounded,
    incoming_length_profile,
)
from .errors import NoEdges, TermCountCap
from .lattice import is_unital, unit_witness
from .model import UltragraphPresentation, VertexSet, _print_vref
from .structure import structural_report


class GradingVerdict:
    """A verdict; it compares and hashes by identity."""

    def __init__(self, property: str, status: str, reasons: list[str], certificate: Optional[dict] = None):
        self.property = property  # StrongZ | EpsStrongZ | StrongF | EpsStrongF | GaugeSaturated
        self.status = status  # Yes | No | Undetermined | Unknown
        self.reasons = reasons
        self.certificate = certificate

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
    """The tables of degrees 1 and −1, each checked with one call and
    printed once per node: every vertex with its degree 1 sum
    Σ s(e) st(e) and its degree −1 root P(0, v), and every node P(k, u),
    either its closing pair p{u} st(τ) s(τ) p{u} or its split
    Σ s(e) P(k+1, u′) st(e), as the check re-multiplied them."""
    labels = {v: _print_vref(pres, v) for v in pres.all_vertices()}

    def node(k: int, u) -> str:
        return f"P({k}, {labels[u]})"

    tables = {}
    for n in (1, -1):
        tables[n] = algebra.strong_factorization(pres, n)
        algebra.verify_factorization(pres, tables[n], n)
    vertices = {
        labels[v]: {"1": " + ".join(f"s({e.label()}) st({e.label()})" for e in edges), "-1": node(0, v)}
        for v, edges in tables[1].items()
    }
    nodes = {}
    for (k, u), (tau, children) in tables[-1].items():
        if tau is None:
            nodes[node(k, u)] = " + ".join(f"s({e.label()}) {node(*child)} st({e.label()})" for e, child in children)
        else:
            path = " ".join(e.label() for e in tau)
            nodes[node(k, u)] = f"p{{{labels[u]}}} st({path}) s({path}) p{{{labels[u]}}}"
    return {"kind": "strong_z_nodes", "vertices": vertices, "nodes": nodes}


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
    # an edge of depth 1 is one whose source lies in no range
    profile = incoming_length_profile(pres)
    if 1 not in profile.depth.values():
        reasons.append("every edge source lies in some edge range (sufficient)")
        return GradingVerdict("EpsStrongZ", "Yes", reasons)
    reasons.append(
        "some edge source lies in no range; the sufficient criterion fails"
    )
    try:
        nodes = algebra.epsilon_candidate(pres)
        algebra.verify_epsilon(pres, nodes)
    except TermCountCap as exc:
        reasons.append(f"unit certificate hit TERM_COUNT_CAP: {exc}")
        return GradingVerdict("EpsStrongZ", "Undetermined", reasons)
    printed, lines = algebra.pretty_units(pres, nodes)
    longest = profile.longest
    reasons.append(
        "edge set with cycles: verified unit certificates for all degrees"
        if longest is None
        else f"acyclic edge set: verified unit certificates for all degrees |n| <= {longest}"
        " (higher components vanish)"
    )
    return GradingVerdict(
        "EpsStrongZ",
        "Yes",
        reasons,
        {"kind": "epsilon_unit_nodes", "units": printed, "nodes": lines},
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
