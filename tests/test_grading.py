"""Grading classifiers and the combined analysis report."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import load, named_chain
from ultragrade import condition_y, grading, structure
from ultragrade.errors import NoEdges
from ultragrade.grading import (
    analyze,
    classify_eps_strong_f,
    classify_eps_strong_z,
    classify_strong_f,
    classify_strong_z,
    gauge_saturation,
)
from ultragrade.model import VertexSet, parse_presentation


def test_single_loop_everything_yes():
    pres = load("single_loop.ug")
    assert classify_strong_z(pres).status == "Yes"
    assert classify_strong_f(pres).status == "Yes"
    assert classify_eps_strong_z(pres).status == "Yes"
    assert classify_eps_strong_f(pres).status == "Yes"
    assert gauge_saturation(pres).status == "Yes"


def test_strong_z_certificate_shape():
    verdict = classify_strong_z(load("two_cycle.ug"))
    assert verdict.status == "Yes"
    cert = verdict.certificate
    assert cert["kind"] == "vertex_factorizations"
    assert set(cert["pairs"]) == {"u[0]", "v[0]"}
    for per_v in cert["pairs"].values():
        assert set(per_v) == {"1", "-1"}


def test_one_edge_gradings():
    pres = load("one_edge.ug")
    assert classify_strong_z(pres).status == "No"  # sinks
    assert classify_strong_f(pres).status == "No"  # s(e) not in r(e)
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert verdict.certificate["kind"] == "epsilon_unit_nodes"
    assert set(verdict.certificate["units"]) == {"-1", "0", "1"}
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


def test_eps_strong_z_undetermined_with_cycles():
    # a source feeding a loop: the sufficient criterion fails (s(e) lies in
    # no range) and the cyclic certificate search is not conclusive
    pres = load("ef.ug")
    assert classify_eps_strong_z(pres).status == "Undetermined"


def test_eps_strong_z_acyclic_chain():
    pres = parse_presentation(
        "ultragraph g\nvertex u\nvertex v\nvertex w\n"
        "edge e : u -> { v }\nedge f : v -> { w }\n"
    )
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert set(verdict.certificate["units"]) == {"-2", "-1", "0", "1", "2"}


def test_eps_strong_z_over_an_infinite_family_of_sinks():
    # finitely many edges, one of them into infinitely many vertices: the
    # units are built from vertex sets, never from a list of the vertices
    pres = load("sink_family.ug")
    verdict = classify_eps_strong_z(pres)
    assert verdict.status == "Yes"
    assert verdict.certificate["units"] == {
        "-1": "p{w[*]}",
        "0": "p{u, w[*]}",
        "1": "N(1, V)",
    }
    assert verdict.certificate["nodes"] == {"N(1, V)": "s(e) p{w[*]} st(e)"}
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


def test_analyze_merges_vertex_sets_linearly_on_a_named_chain(monkeypatch):
    # every vertex of the chain is its own family, so a fold that unions
    # one range at a time walks a growing part list; the length profile
    # and the covers must union them in one pass instead
    n = 550
    pres = named_chain(n)
    merges = parts = 0
    real = VertexSet._merge

    def spy(self, other, *args):
        nonlocal merges, parts
        merges += 1
        parts += len(self.parts) + len(other.parts)
        return real(self, other, *args)

    monkeypatch.setattr(VertexSet, "_merge", spy)
    report = analyze(pres)
    assert report["gradings"]["eps_strong_z"]["reasons"][-1].startswith(f"longest path has {n} edges")
    assert merges <= n and parts <= 8 * n, (merges, parts)
