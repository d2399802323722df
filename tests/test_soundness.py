"""Certificate re-checks are raised errors, so they also run under
`python -O`, which strips `assert` statements."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, load
from ultragrade import algebra, condition_y, partial_action
from ultragrade.errors import CertificateError
from ultragrade.model import VertexRef

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the strong-Z certificate path once as it is, then with a
# verify_factorization that rejects every factorization.
SABOTAGED_STRONG_Z = """
import sys
if __debug__:
    sys.exit("not running under -O")
from ultragrade import algebra, grading
from ultragrade.errors import CertificateError
from ultragrade.model import parse_presentation

pres = parse_presentation(open(sys.argv[1]).read())
if grading.classify_strong_z(pres).status != "Yes":
    sys.exit("the certificate path was not taken")
algebra.verify_factorization = lambda *args, **kwargs: False
try:
    grading.classify_strong_z(pres)
except CertificateError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit("a rejected factorization was accepted")
"""


def test_strong_z_certificate_check_runs_under_dash_o():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_STRONG_Z, str(CORPUS / "two_cycle.ug")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: factorization of u[0] in degree 1")


def test_missing_replacement_path_raises(monkeypatch):
    monkeypatch.setattr(condition_y._BackwardSearch, "find", lambda self, v, length: None)
    with pytest.raises(CertificateError, match="no replacement path"):
        algebra.strong_factorization(load("ef.ug"), VertexRef("u", 0), -1)


def test_skew_product_outside_its_component_raises(monkeypatch):
    monkeypatch.setattr(partial_action.DElement, "supported_in", lambda self, t: False)
    with pytest.raises(CertificateError, match="graded component"):
        partial_action.verify_generator_relations(load("two_cycle.ug"), depth=2)
