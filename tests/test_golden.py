"""`analyze --format json` on the corpus, byte for byte.

The files under tests/golden/ are the reports of the corpus presentations.
A change that alters a report on purpose regenerates them with

    for f in corpus/*.ug; do
        ultragrade analyze "$f" --format json > "tests/golden/$(basename "$f" .ug).json"
    done

so that the difference shows in review."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import CORPUS, load
from ultragrade.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.ug")))
def test_analyze_json_matches_golden(capsys, name):
    assert run_cli(["analyze", str(CORPUS / f"{name}.ug"), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_strongly_graded_finite_reports_carry_the_unit_table():
    """Every finite corpus file whose StrongZ reads Yes prints the
    strong_z_units certificate, and GaugeSaturated points to it."""
    certified = 0
    for path in sorted(GOLDEN.glob("*.json")):
        gradings = json.loads(path.read_text(encoding="utf-8"))["gradings"]
        if gradings["strong_z"]["status"] != "Yes" or not load(f"{path.stem}.ug").is_finite:
            continue
        assert gradings["strong_z"]["certificate"]["kind"] == "strong_z_units", path.stem
        assert gradings["gauge_saturated"]["certificate"] == {"kind": "same_as", "grading": "strong_z"}, path.stem
        certified += 1
    assert certified == 7, certified
