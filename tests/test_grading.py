"""Grading classifiers and the combined analysis report."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, load, named_chain, random_presentation
from ultragrade import algebra, condition_y, grading, structure
from ultragrade.condition_y import check_condition_y_bounded
from ultragrade.errors import NoEdges
from ultragrade.grading import (
    analyze,
    classify_eps_strong_f,
    classify_eps_strong_z,
    classify_strong_f,
    classify_strong_z,
    gauge_saturation,
)
from ultragrade.lattice import unit_witness
from ultragrade.model import VertexSet, parse_presentation


def test_single_loop_everything_yes():
    pres = load("single_loop.ug")
    assert classify_strong_z(pres).status == "Yes"
    assert classify_strong_f(pres).status == "Yes"
    assert classify_eps_strong_z(pres).status == "Yes"
    assert classify_eps_strong_f(pres).status == "Yes"
    assert gauge_saturation(pres).status == "Yes"


def test_strong_z_certificate_shape():
    # two_cycle's vertices both lie in a range, so D(1, V) is p_V with no
    # child; ef's source u splits over e into the node D(2, r(e)), whose
    # set {v} lies in the range of e f
    verdict = classify_strong_z(load("two_cycle.ug"))
    assert verdict.status == "Yes"
    assert verdict.certificate == {
        "kind": "strong_z_units",
        "vertices": {"u": "s(e) st(e)", "v": "s(f) st(f)"},
        "nodes": {"D(1, V)": "p{u, v}"},
    }
    cert = classify_strong_z(load("ef.ug")).certificate
    assert cert["vertices"]["u"] == "s(e) st(e)"
    assert cert["nodes"] == {"D(1, V)": "p{v} + s(e) D(2, r(e)) st(e)", "D(2, r(e))": "p{v}"}


def test_one_edge_gradings():
    pres = load("one_edge.ug")
    assert classify_strong_z(pres).status == "No"  # sinks
    assert classify_strong_f(pres).status == "No"  # s(e) not in r(e)
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert verdict.certificate["kind"] == "epsilon_unit_nodes"
    assert set(verdict.certificate["units"]) == {"-1", "<= -2", "0", ">= 1"}
    assert classify_eps_strong_f(pres).status == "Yes"


def test_two_edges_never_strong_f():
    for name in ("ef.ug", "two_cycle.ug", "two_range.ug"):
        assert classify_strong_f(load(name)).status == "No"


def test_single_edge_wrong_range_not_strong_f():
    pres = parse_presentation(
        "ultragraph g\nvertex u\nvertex v\nedge e : u -> { u, v }\n"
    )
    assert classify_strong_f(pres).status == "No"


def test_no_edges_raises():
    pres = parse_presentation("ultragraph g\nvertex u\n")
    with pytest.raises(NoEdges):
        classify_strong_f(pres)


def test_ex2_gradings():
    pres = load("ex2.ug")
    assert classify_strong_z(pres).status == "No"
    assert classify_eps_strong_z(pres).status == "No"  # infinitely many edges
    assert classify_eps_strong_f(pres).status == "No"  # not unital
    assert gauge_saturation(pres).status == "No"


def test_infinite_range_gradings():
    pres = load("infinite_range.ug")
    v = classify_strong_z(pres)
    assert v.status == "No"
    assert any("row-finite" in r for r in v.reasons)
    assert gauge_saturation(pres).status == "No"


def test_eps_strong_z_yes_with_cycles():
    # a source feeding a loop: the sufficient criterion fails (s(e) lies in
    # no range), and the unit nodes cover every degree, the loop included
    pres = load("ef.ug")
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert verdict.reasons[-1] == "edge set with cycles: verified unit certificates for all degrees"
    assert verdict.certificate["units"] == {"-1": "D(1, V)", "<= -2": "D(2, V)", "0": "p{u, v}", ">= 1": "N(n, V)"}
    assert verdict.certificate["nodes"]["D(1, V)"] == "p{v} + s(e) D(2, r(e)) st(e)"


@pytest.mark.dash_o
def test_eps_strong_z_is_yes_iff_unital_on_finite_edges():
    """On the corpus and 500 seeded finite inputs, with finitely many
    edges, EpsStrongZ reads Yes iff the algebra is unital, with a
    certificate whenever the sufficient criterion fails, and never
    Undetermined; StrongZ Yes with finite edges and a unit gives
    EpsStrongZ Yes."""
    rng = random.Random(2039)
    reports = [analyze(load(p.name)) for p in sorted(CORPUS.glob("*.ug"))]
    presentations = [load(p.name) for p in sorted(CORPUS.glob("*.ug"))]
    for i in range(500):
        pres = random_presentation(rng, sinkless=i % 2 == 1)
        presentations.append(pres)
        reports.append(analyze(pres))
    gap = cyclic_gap = strong = 0
    for pres, report in zip(presentations, reports):
        eps = report["gradings"]["eps_strong_z"]
        if pres.edge_families:
            assert eps["status"] == "No", pres.name
            continue
        assert eps["status"] == ("Yes" if report["unital"] else "No"), pres.name
        if eps["status"] == "Yes" and "sufficient criterion fails" in " ".join(eps["reasons"]):
            assert eps["certificate"]["kind"] == "epsilon_unit_nodes", pres.name
            gap += 1
            cyclic_gap += condition_y.incoming_length_profile(pres).longest is None
        if report["gradings"]["strong_z"]["status"] == "Yes" and report["unital"]:
            assert eps["status"] == "Yes", pres.name
            strong += 1
    assert gap >= 60 and cyclic_gap >= 30 and strong >= 300, (gap, cyclic_gap, strong)


@pytest.mark.dash_o
def test_gauge_saturation_equals_strong_z():
    """On the corpus and 500 seeded inputs, GaugeSaturated reads the
    StrongZ status and names its certificate, when there is one, instead
    of copying it, in analyze's report and from gauge_saturation called
    alone; its reasons are StrongZ's and one more."""
    rng = random.Random(2041)
    presentations = [load(p.name) for p in sorted(CORPUS.glob("*.ug"))]
    presentations += [random_presentation(rng, sinkless=i % 2 == 1) for i in range(500)]
    certified = 0
    for pres in presentations:
        gradings = analyze(pres)["gradings"]
        pointer = {"kind": "same_as", "grading": "strong_z"} if gradings["strong_z"]["certificate"] else None
        strong = (gradings["strong_z"]["status"], pointer)
        gauge = gradings["gauge_saturated"]
        assert (gauge["status"], gauge["certificate"]) == strong, pres.name
        assert gauge["reasons"][:-1] == gradings["strong_z"]["reasons"], pres.name
        alone = gauge_saturation(pres)
        assert (alone.status, alone.certificate) == strong, pres.name
        certified += pointer is not None
    assert certified >= 250, certified


@pytest.mark.dash_o
def test_strong_z_certificate_checks_once_per_degree(monkeypatch):
    # one table per degree, built and checked by one call each: degree 1
    # lists every vertex, and degree -1 the root D(1, V) and the 64 nodes
    # down the chain from the source t[0] to the loop
    calls, tables = [], []
    build, check = algebra.strong_factorization, algebra.verify_factorization

    def counted_build(pres, n):
        calls.append(("build", n))
        return build(pres, n)

    def counted_check(pres, table, n):
        calls.append(("check", n))
        tables.append(table)
        return check(pres, table, n)

    monkeypatch.setattr(algebra, "strong_factorization", counted_build)
    monkeypatch.setattr(algebra, "verify_factorization", counted_check)
    pres = load("source_chain64.ug")
    assert classify_strong_z(pres).status == "Yes"
    assert calls == [("build", 1), ("check", 1), ("build", -1), ("check", -1)]
    vertices = set(pres.all_vertices())
    assert set(tables[0]) == vertices
    assert (1, pres.g0_universe()) in tables[1]
    assert len(tables[1]) == 1 + 64


def test_eps_strong_z_acyclic_chain():
    pres = parse_presentation(
        "ultragraph g\nvertex u\nvertex v\nvertex w\n"
        "edge e : u -> { v }\nedge f : v -> { w }\n"
    )
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert set(verdict.certificate["units"]) == {"-2", "-1", "<= -3", "0", ">= 1"}


def test_eps_strong_z_over_an_infinite_family_of_sinks():
    # finitely many edges, one of them into infinitely many vertices: the
    # units are built from vertex sets, never from a list of the vertices
    pres = load("sink_family.ug")
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert verdict.certificate["units"] == {
        "-1": "D(1, V)",
        "<= -2": "0",
        "0": "p{u, w[*]}",
        ">= 1": "N(n, V)",
    }
    assert verdict.certificate["nodes"] == {
        "N(0, A)": "p{A}",
        "N(k, V)": "s(e) N(k-1, r(e)) st(e)",
        "N(k, r(e))": "0",
        "D(1, V)": "p{w[*]}",
    }
    assert condition_y.incoming_length_profile(pres).longest == 1


def test_analyze_report_contents():
    report = analyze(load("ex2.ug"))
    assert report["tool"] == "ultragrade"
    assert report["unital"] is False
    assert report["condition_y"]["status"] == "violation_up_to_horizon"
    assert report["gradings"]["strong_z"]["status"] == "No"
    assert report["unit_witness"] is None

    report2 = analyze(load("single_loop.ug"))
    assert report2["unital"] is True
    assert report2["unit_witness"] is not None
    assert report2["gradings"]["gauge_saturated"]["status"] == "Yes"


def test_analyze_no_edges_reports_unknown_f():
    report = analyze(parse_presentation("ultragraph g\nvertex u\n"))
    assert report["gradings"]["strong_f"]["status"] == "Unknown"
    assert report["gradings"]["eps_strong_f"]["status"] == "Unknown"


def _counting(monkeypatch, name):
    calls = []
    real = getattr(grading, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grading, name, counted)
    return calls


def _golden(name):
    path = Path(__file__).resolve().parent / "golden" / f"{name}.json"
    return path.read_text(encoding="utf-8")


def test_analyze_runs_the_bounded_check_once(monkeypatch):
    calls = _counting(monkeypatch, "check_condition_y_bounded")
    report = analyze(load("ex2.ug"))
    assert len(calls) == 1
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == _golden("ex2")


def test_analyze_builds_the_structural_report_once(monkeypatch):
    calls = []
    build = structure._build_structural_report

    def counted(pres):
        calls.append(pres)
        return build(pres)

    monkeypatch.setattr(structure, "_build_structural_report", counted)
    report = analyze(load("ex2.ug"))
    assert len(calls) == 1
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == _golden("ex2")


def test_strong_z_certificate_builds_report_and_profile_once(monkeypatch):
    # the certificate factors every vertex in degrees 1 and -1, and each
    # factorization reads the report and the length profile
    builds = []
    for module, name in (
        (structure, "_build_structural_report"),
        (condition_y, "_build_length_profile"),
    ):
        build = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda pres, build=build, name=name: builds.append(name) or build(pres)
        )
    assert classify_strong_z(load("ef.ug")).status == "Yes"
    assert sorted(builds) == ["_build_length_profile", "_build_structural_report"]


def test_analyze_builds_the_strong_z_certificate_once(monkeypatch):
    calls = _counting(monkeypatch, "_strong_z_certificate")
    report = analyze(load("two_cycle.ug"))
    assert len(calls) == 1
    assert report["gradings"]["gauge_saturated"]["certificate"] is not None
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == _golden("two_cycle")


@pytest.mark.dash_o
def test_analyze_refines_the_edge_ranges_once(monkeypatch):
    """The range types of the unit decision and the relevance bounds of the
    epsilon units read one refinement of the edge ranges, range_atoms: one
    VertexSet.refine per analyze besides the normal forms' (_atomize),
    also when both read it, on the corpus and 200 seeded inputs."""
    callers = []
    real = VertexSet.refine

    def spy(sets):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return real(sets)

    monkeypatch.setattr(VertexSet, "refine", staticmethod(spy))
    rng = random.Random(2828)
    inputs = [load(p.name) for p in sorted(CORPUS.glob("*.ug"))]
    inputs += [random_presentation(rng, sinkless=i % 2 == 1) for i in range(200)]
    both = 0
    for pres in inputs:
        callers.clear()
        report = analyze(pres)
        assert [c for c in callers if c != "_atomize"] == ["range_atoms.<locals>.<lambda>"], (pres.name, callers)
        both += report["gradings"]["eps_strong_z"]["certificate"] is not None
    assert both >= 30, both


@pytest.mark.dash_o
def test_analyze_builds_one_successor_relation(monkeypatch):
    """The length profile and the edge successors are one relation, built
    by one condition_y._successors call per analyze of a finite input, on
    the corpus and 200 seeded inputs; the reports match those built with
    the profile's own successor relation, as it was computed before."""

    def own_relation_profile(pres):
        succ = condition_y._successors({eid: (e.source, e.range) for eid, e in pres.edges.items()})
        waiting = dict.fromkeys(succ, 0)
        for nxt in succ.values():
            for g in nxt:
                waiting[g] += 1
        count = dict.fromkeys(succ, 1)
        ready = [e for e in succ if not waiting[e]]
        for f in ready:
            for g in succ[f]:
                count[g] = max(count[g], count[f] + 1)
                waiting[g] -= 1
                if not waiting[g]:
                    ready.append(g)
        depth = {eid: None if waiting[eid] else count[eid] for eid in succ}
        return condition_y.LengthProfile(depth, {eid: e.range for eid, e in pres.edges.items()})

    rng = random.Random(2929)
    inputs = [load(p.name) for p in sorted(CORPUS.glob("*.ug"))]
    inputs = [p for p in inputs if p.is_finite]
    inputs += [random_presentation(rng, sinkless=i % 2 == 1) for i in range(200)]
    calls = []
    real = condition_y._successors
    monkeypatch.setattr(condition_y, "_successors", lambda edges: calls.append(len(edges)) or real(edges))
    reports = []
    for pres in inputs:
        calls.clear()
        reports.append(json.dumps(analyze(pres), sort_keys=True))
        assert calls == [len(pres.edges)], (pres.name, calls)
    monkeypatch.setattr(condition_y, "_successors", real)
    monkeypatch.setattr(condition_y, "_build_length_profile", own_relation_profile)
    for pres, report in zip(inputs, reports):
        pres.validate()
        assert json.dumps(analyze(pres), sort_keys=True) == report, pres.name


def test_analyze_merges_vertex_sets_linearly_on_a_named_chain(monkeypatch):
    # every vertex of the chain is its own family, so a fold that unions
    # one range at a time walks a growing part list; the length profile
    # and the covers must union them in one pass instead.  The unit
    # certificate prints c_m = p_{reached(m)} for every m <= n, n(n + 1)/2
    # vertices in all, so its own merges are counted apart: one per node
    # for its set, one more when the check re-derives it, and two in its
    # products; one each time the zero root (n + 1, V) is derived; and two
    # per edge in the products of L(V)
    n = 550
    pres = named_chain(n)
    merges = parts = units = 0
    in_units = False
    real = VertexSet._merge

    def spy(self, other, *args):
        nonlocal merges, parts, units
        if in_units:
            units += 1
        else:
            merges += 1
            parts += len(self.parts) + len(other.parts)
        return real(self, other, *args)

    def apart(fn):
        def wrapper(*args):
            nonlocal in_units
            in_units = True
            try:
                return fn(*args)
            finally:
                in_units = False

        return wrapper

    monkeypatch.setattr(VertexSet, "_merge", spy)
    for name in ("epsilon_candidate", "verify_epsilon", "pretty_units"):
        monkeypatch.setattr(algebra, name, apart(getattr(algebra, name)))
    report = analyze(pres)
    assert report["gradings"]["eps_strong_z"]["status"] == "Yes"
    assert merges <= n and parts <= 8 * n, (merges, parts)
    assert units == 6 * n + 2, units


# -- records as values and reports across passes -----------------------------


def _records(pres):
    """Every kind of record built for pres: its edges and edge families,
    its structural report, its unit witness and the replacement-condition
    verdicts at horizons 0 and 3, with their witnesses and tails."""
    out = [*pres.edges.values(), *pres.edge_families.values(), structure.structural_report(pres), unit_witness(pres)]
    for horizon in (0, 3):
        cy = check_condition_y_bounded(pres, horizon)
        out += [cy, cy.witness, cy.witness and cy.witness.tail]
    return [r for r in out if r is not None]


def test_records_are_frozen_values():
    # records built twice from the same text are equal, hash alike and
    # refuse new values, for each record class
    classes = set()
    for path in sorted(CORPUS.glob("*.ug")):
        a, b = (_records(parse_presentation(path.read_text())) for _ in range(2))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert type(x) is type(y) and x is not y
            assert x == y and not x != y and hash(x) == hash(y)
            with pytest.raises(AttributeError):
                setattr(x, next(iter(type(x).__annotations__)), None)
            classes.add(type(x).__name__)
    assert classes == {
        "Edge",
        "EdgeFamily",
        "CycleTail",
        "FamilyTail",
        "InfinitePathRep",
        "ConditionYVerdict",
        "GeneralizedVertex",
        "StructuralReport",
    }


def test_a_second_pass_gives_the_same_reports(monkeypatch):
    # the benchmark's "output differs between passes" check: records that
    # hashed by identity would order their sets by address, which the
    # presentations built between the passes move
    monkeypatch.syspath_prepend(str(CORPUS.parent / "perfbench"))
    import workloads

    texts = [path.read_text() for path in sorted(CORPUS.glob("*.ug"))]
    for workload, seed in (("mixed_small", 7), ("infinite_rays", 301)):
        texts += [i.text for i in workloads.make_inputs(workload, seed, CORPUS.parent) if i.name != "clique6"]
    rng = random.Random(3535)
    passes, kept = [], []
    for _ in range(2):
        passes.append([json.dumps(analyze(parse_presentation(text)), sort_keys=True) for text in texts])
        others = [random_presentation(rng) for _ in range(100)]
        kept += others + [analyze(pres) for pres in others]
    assert len(passes[0]) > 300
    assert passes[0] == passes[1]
