"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion."""

from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import (
    FINITE_CORPUS,
    expand_unit,
    load,
    random_element,
    random_path,
    random_presentation,
    star,
    t0_left_unit_for,
    t0_unit_for,
)
from test_condition_y import oracle_fails
from test_lattice import check_exhaustively
from ultragrade.algebra import (
    AlgebraElement,
    epsilon_candidate,
    f_degree,
    multiply,
    strong_factorization,
    verify_epsilon,
    verify_factorization,
    z_degree,
)
from ultragrade.condition_y import check_condition_y_bounded, decide_condition_y
from ultragrade.errors import CertificateError
from ultragrade.grading import analyze, classify_eps_strong_z, classify_strong_f, classify_strong_z
from ultragrade.model import EdgeInst, FamilyTail
from ultragrade.partial_action import phi_of_element, verify_generator_relations
from ultragrade.structure import build_associated_graph, structural_report


def test_criterion_01_ex2_violation_and_negative_verdicts():
    start = time.monotonic()
    pres = load("ex2.ug")
    verdict = check_condition_y_bounded(pres, horizon=40)
    assert verdict.status == "violation_up_to_horizon"
    assert verdict.witness.prefix == (EdgeInst("e"),)
    assert isinstance(verdict.witness.tail, FamilyTail)
    report = analyze(pres, horizon=40)
    assert report["gradings"]["strong_z"]["status"] == "No"
    assert report["gradings"]["eps_strong_z"]["status"] == "No"
    assert report["unital"] is False
    assert report["gradings"]["eps_strong_f"]["status"] == "No"
    assert time.monotonic() - start < 5.0
    print("[criterion 1] PASS — ex2 violation witness and negative verdicts")


def test_criterion_02_source_example_holds_with_certificates():
    pres = load("ef.ug")
    assert structural_report(pres).has_sources  # u is a source
    assert check_condition_y_bounded(pres).status == "holds"
    assert classify_strong_z(pres).status == "Yes"
    for n in (1, -1):  # T1*T-1 and T-1*T1 both reach p_v, for every vertex v
        verify_factorization(pres, strong_factorization(pres, n), n)
    print("[criterion 2] PASS — exact holds despite a source; certificates verify")


def test_criterion_03_infinite_range_structure():
    pres = load("infinite_range.ug")
    report = structural_report(pres)
    assert not report.has_sinks and not report.has_sources
    assert not report.row_finite
    assert check_condition_y_bounded(pres).status == "holds_no_sources"
    out = analyze(pres)
    assert out["gradings"]["strong_z"]["status"] == "No"
    assert out["gradings"]["gauge_saturated"]["status"] == "No"
    print("[criterion 3] PASS — no sinks/sources, not row-finite, strong-Z No")


def test_criterion_04_free_group_grading_instances():
    assert classify_strong_f(load("single_loop.ug")).status == "Yes"
    one = load("one_edge.ug")
    assert classify_strong_f(one).status == "No"
    verdict = classify_eps_strong_z(one)
    assert verdict.status == "Yes"
    se = AlgebraElement.s(one, (EdgeInst("e"),))
    nodes = epsilon_candidate(one)
    assert expand_unit(one, nodes, 1) == multiply(se, star(se))
    assert expand_unit(one, nodes, -1) == AlgebraElement.projection(one, one.edges["e"].range)
    verify_epsilon(one, nodes)  # raises CertificateError on failure
    for name in ("ef.ug", "two_cycle.ug"):
        assert classify_strong_f(load(name)).status == "No"
    print("[criterion 4] PASS — strong-F and epsilon-unit instances")


def test_criterion_05_condition_y_oracle_500():
    rng = random.Random(2025)
    disagreements = 0
    for _ in range(500):
        pres = random_presentation(rng)
        if (decide_condition_y(pres).status == "fails") != oracle_fails(pres):
            disagreements += 1
    assert disagreements == 0
    print("[criterion 5] PASS — 500/500 oracle agreements")


def test_criterion_06_transfer_to_associated_graph_200():
    rng = random.Random(2026)
    for _ in range(200):
        pres = random_presentation(rng)
        assoc = build_associated_graph(pres)
        assert decide_condition_y(pres).status == decide_condition_y(assoc).status
        assert classify_strong_z(pres).status == classify_strong_z(assoc).status
    print("[criterion 6] PASS — 200/200 verdicts transfer to the edge graph")


def test_criterion_07_end_to_end_factorizations_200():
    rng = random.Random(2027)
    strongly_graded = 0
    failures = 0
    while strongly_graded < 200:
        pres = random_presentation(rng, sinkless=True)
        if classify_strong_z(pres, horizon=10).status != "Yes":
            continue
        strongly_graded += 1
        for n in (1, -1):
            try:
                verify_factorization(pres, strong_factorization(pres, n), n)
            except CertificateError:
                failures += 1
    assert failures == 0
    print("[criterion 7] PASS — 200 strongly graded instances, failure rate 0")


def test_criterion_08_g0_membership_exhaustive():
    subsets = 0
    for name in FINITE_CORPUS:
        pres = load(name)
        assert len(pres.all_vertices()) <= 10
        subsets += check_exhaustively(pres)
    rng = random.Random(2028)
    for _ in range(30):
        subsets += check_exhaustively(random_presentation(rng, max_vertices=6))
    assert subsets > 500
    print(f"[criterion 8] PASS — {subsets} subsets checked against the closure oracle")


def test_criterion_09_isomorphism_verification():
    for name in FINITE_CORPUS:
        pres = load(name)
        if len(pres.edges) > 5:
            continue
        report = verify_generator_relations(pres, depth=3)
        assert report["all_pass"], (name, report["failures"])
    rng = random.Random(2029)
    checked = 0
    while checked < 100:
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x = AlgebraElement.monomial(
            pres, random_path(rng, pres), pres.g0_universe(), random_path(rng, pres)
        )
        if x.is_zero():
            continue
        assert phi_of_element(pres, x).grading_tags() == [f_degree(x)]
        checked += 1
    print("[criterion 9] PASS — relations hold at depth 3; 100/100 tags match")


def test_criterion_10_symbolic_invariants_300():
    start = time.monotonic()
    rng = random.Random(2030)
    for _ in range(300):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        x, y, z = (random_element(rng, pres) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert star(multiply(x, y)) == multiply(star(y), star(x))
        assert multiply(x, t0_unit_for(x)) == x
        assert multiply(t0_left_unit_for(x), x) == x
        a = AlgebraElement.monomial(
            pres, random_path(rng, pres), pres.g0_universe(), random_path(rng, pres)
        )
        b = AlgebraElement.monomial(
            pres, random_path(rng, pres), pres.g0_universe(), random_path(rng, pres)
        )
        ab = multiply(a, b)
        if not (a.is_zero() or b.is_zero() or ab.is_zero()):
            assert z_degree(ab) == z_degree(a) + z_degree(b)
            assert f_degree(ab) == f_degree(a) * f_degree(b)
    assert time.monotonic() - start < 60.0
    print("[criterion 10] PASS — 300 randomized invariant cases, exact arithmetic")
