"""Structural reports and the associated directed graph."""

from __future__ import annotations

import random

import pytest

from conftest import is_sink, load, random_presentation
from ultragrade.model import EdgeInst, VertexRef
from ultragrade.structure import build_associated_graph, structural_report


def test_single_loop_report():
    r = structural_report(load("single_loop.ug"))
    assert not r.has_sinks and not r.has_sources
    assert r.row_finite and r.finite_range and not r.has_infinite_emitter


def test_one_edge_report():
    r = structural_report(load("one_edge.ug"))
    assert r.has_sinks and r.sink_witness == VertexRef("v", 0)
    assert r.has_sources and r.source_witness == VertexRef("u", 0)
    assert r.row_finite


def test_infinite_range_report():
    r = structural_report(load("infinite_range.ug"))
    assert not r.has_sinks
    assert not r.has_sources
    assert not r.finite_range
    assert not r.row_finite
    assert not r.has_infinite_emitter


def test_ex2_report():
    r = structural_report(load("ex2.ug"))
    assert r.has_sinks  # every w vertex is a sink
    assert r.sink_witness.family == "w"
    assert r.has_sources and r.source_witness == VertexRef("u", 0)
    assert not r.row_finite  # r(e) is infinite


def test_associated_graph_is_a_graph():
    rng = random.Random(23)
    for _ in range(30):
        pres = random_presentation(rng)
        assoc = build_associated_graph(pres)
        # one edge e@u per pair (e, u in r(e)), each with singleton range
        expected = sum(len(e.range.vertices()) for e in pres.edges.values())
        assert len(assoc.edges) == expected
        for e in assoc.edges.values():
            assert len(e.range.vertices()) == 1
        # same vertices and the same source/range cover per vertex
        assert assoc.vertex_families == pres.vertex_families
        for v in pres.all_vertices():
            assert is_sink(assoc, v) == is_sink(pres, v)


def test_associated_graph_paths_correspond():
    rng = random.Random(29)
    for _ in range(20):
        pres = random_presentation(rng, max_vertices=4, max_edges=5)
        assoc = build_associated_graph(pres)
        # every two-step composable pair in the graph projects to a path in
        # the ultragraph, and vice versa with the right choice of @-tags
        graph_pairs = {
            (a.id.split("@")[0], b.id.split("@")[0])
            for a in assoc.edges.values()
            for b in assoc.edges.values()
            if a.range.member(b.source)
        }
        ultra_pairs = {
            (a, b)
            for a in pres.edges
            for b in pres.edges
            if pres.is_path([EdgeInst(a), EdgeInst(b)])
        }
        assert graph_pairs == ultra_pairs


def test_associated_graph_of_infinite_presentation():
    pres = load("ex2.ug")
    assoc = build_associated_graph(pres)
    assoc.validate()
    # e has infinite range, so E_G has an edge family for the periodic part
    assert any(n.startswith("e@") for n in assoc.edge_families)
    assert structural_report(assoc).has_infinite_emitter
