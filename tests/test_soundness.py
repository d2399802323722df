"""Certificate re-checks are raised errors, so they also run under
`python -O`, which strips `assert` statements."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, load
from ultragrade import condition_y, partial_action
from ultragrade.errors import CertificateError
from ultragrade.model import EdgeInst

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_dash_o(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# Runs the strong-Z certificate path once as it is, then with a table
# builder that breaks the degree -1 table in one of three ways: a child
# dropped from a node, a vertex taken out of a head, the root left out.
SABOTAGED_STRONG_Z = """
import sys
if __debug__:
    sys.exit("not running under -O")
from ultragrade import algebra, grading
from ultragrade.errors import CertificateError
from ultragrade.model import VertexSet, parse_presentation

pres = parse_presentation(open(sys.argv[1]).read())
if grading.classify_strong_z(pres).status != "Yes":
    sys.exit("the certificate path was not taken")
build = algebra.strong_factorization


def dropped_child(key, node):
    head, kids = node
    return (head, kids[1:]) if kids else node


def smaller_head(key, node):
    head, kids = node
    return (head.difference(VertexSet.of(head.vertices()[0])), kids) if key[0] > 1 else node


def no_root(key, node):
    return None if key[0] == 1 else node


for fault in (dropped_child, smaller_head, no_root):
    def sabotaged(pres, n, fault=fault):
        table = build(pres, n)
        if n == 1:
            return table
        out = {key: fault(key, node) for key, node in table.items()}
        return {key: node for key, node in out.items() if node is not None}

    algebra.strong_factorization = sabotaged
    try:
        grading.classify_strong_z(pres)
    except CertificateError as exc:
        print("raised:", exc)
    else:
        sys.exit(f"a table with the fault {fault.__name__} was accepted")
"""


def test_strong_z_certificate_check_runs_under_dash_o():
    proc = _run_dash_o(SABOTAGED_STRONG_Z, str(CORPUS / "ef.ug"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert all(line.startswith("raised: the strong-Z certificate of degree -1 does not verify") for line in lines)
    assert lines[0].endswith("node D(1, V) does not follow its rule")
    assert lines[1].endswith("node D(2, r(e)) does not follow its rule")
    assert lines[2].endswith("the root D(1, V) is not listed")


# Replaces every cached range type of a presentation with a source by the
# whole vertex set, so that the types seem to cover the universe while the
# ranges they name do not.
SABOTAGED_RANGE_TYPES = """
import sys
if __debug__:
    sys.exit("not running under -O")
from ultragrade import lattice
from ultragrade.errors import CertificateError
from ultragrade.model import parse_presentation

pres = parse_presentation(open(sys.argv[1]).read())
universe = pres.g0_universe()
if lattice.g0_contains(pres, universe)[0]:
    sys.exit("the ranges already cover the vertex set")
types = pres.derived("range_types", lattice._range_types)
pres._derived["range_types"] = [(ids, universe) for ids, _ in types]
try:
    lattice.g0_contains(pres, universe)
except CertificateError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit("a witness that does not rebuild its set was accepted")
"""


def test_unit_witness_check_runs_under_dash_o():
    proc = _run_dash_o(SABOTAGED_RANGE_TYPES, str(CORPUS / "ex2.ug"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: the generalized-vertex witness")


# Feeds the path-splitting step of the partial action an atom key that
# does not begin with the path to strip.
MISMATCHED_STRIP = """
import sys
if __debug__:
    sys.exit("not running under -O")
from ultragrade import partial_action
from ultragrade.model import EdgeInst, VertexRef

key = ("sp", (EdgeInst("e"),), VertexRef("v", 0))
for b in ((EdgeInst("f"),), (EdgeInst("e"), EdgeInst("f"))):
    try:
        partial_action._strip(key, b)
    except ValueError as exc:
        print("raised:", exc)
    else:
        sys.exit("a mismatched split was accepted")
"""


def test_mismatched_split_raises_under_dash_o():
    proc = _run_dash_o(MISMATCHED_STRIP)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("raised:") == 2


def test_bounded_witness_is_rechecked(monkeypatch):
    # e e is no path (u is not in the range of e), but its positions have
    # no replacement paths, so only the witness re-check can reject it
    monkeypatch.setattr(
        condition_y, "_prefix_tree", lambda pres, v, in_edges: [(EdgeInst("e"), EdgeInst("e"))]
    )
    with pytest.raises(CertificateError, match="not an infinite path"):
        condition_y.check_condition_y_bounded(load("ex2.ug"))


def test_skew_product_outside_its_component_raises(monkeypatch):
    monkeypatch.setattr(partial_action.DElement, "supported_in", lambda self, t: False)
    with pytest.raises(CertificateError, match="graded component"):
        partial_action.verify_generator_relations(load("two_cycle.ug"), depth=2)
