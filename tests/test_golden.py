"""`analyze --format json` on the corpus, byte for byte.

The files under tests/golden/ are the reports of the corpus presentations.
A change that alters a report on purpose regenerates them with

    for f in corpus/*.ug; do
        ultragrade analyze "$f" --format json > "tests/golden/$(basename "$f" .ug).json"
    done

so that the difference shows in review."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import CORPUS
from ultragrade.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.ug")))
def test_analyze_json_matches_golden(capsys, name):
    assert run_cli(["analyze", str(CORPUS / f"{name}.ug"), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
