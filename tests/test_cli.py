"""Command-line interface: exit codes, output formats, and the shipped
report schema."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from conftest import CORPUS
from test_condition_y import clique_ray
from ultragrade.cli import run_cli
from ultragrade.model import parse_presentation, print_presentation


def path(name: str) -> str:
    return str(CORPUS / name)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = resources.files("ultragrade").joinpath("report.schema.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.ug")))
def test_analyze_json_matches_schema(capsys, name):
    code, out, _ = run(capsys, "analyze", path(name), "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema())


def test_analyze_text_and_json_agree(capsys):
    _, out_json, _ = run(capsys, "analyze", path("ex2.ug"), "--format", "json")
    report = json.loads(out_json)
    _, out_text, _ = run(capsys, "analyze", path("ex2.ug"))
    assert f"strong-Z: {report['gradings']['strong_z']['status']}" in out_text
    assert report["condition_y"]["witness"] in out_text


def test_paths_longer_than_the_unit_cap(capsys, monkeypatch):
    # the strong-Z certificate and a product are not bounded by the cap
    # on the epsilon-unit certificates
    monkeypatch.setenv("ULTRAGRADE_COLOR", "never")
    code, out, _ = run(capsys, "check", "strong-z", path("source_chain64.ug"))
    assert code == 0 and "Yes" in out
    chain = " ".join(f"a{i}" for i in range(64))
    code, out, _ = run(capsys, "eval", path("source_chain64.ug"), f"s({chain}) * s(loop)")
    assert code == 0
    assert f"normal form: s({chain} loop) p{{c}}" in out
    assert "z-degree: 65" in out


def test_check_exit_codes(capsys, monkeypatch):
    monkeypatch.setenv("ULTRAGRADE_COLOR", "never")
    code, out, _ = run(capsys, "check", "strong-z", path("two_cycle.ug"))
    assert code == 0 and "Yes" in out
    code, out, _ = run(capsys, "check", "strong-z", path("one_edge.ug"))
    assert code == 0 and "No" in out  # without --assert the exit stays 0
    code, _, _ = run(capsys, "check", "strong-z", path("one_edge.ug"), "--assert")
    assert code == 1
    code, _, _ = run(capsys, "check", "unital", path("ex2.ug"), "--assert")
    assert code == 1
    code, out, _ = run(capsys, "check", "cond-y", path("ex2.ug"))
    assert code == 0 and "violation_up_to_horizon" in out
    code, _, _ = run(capsys, "check", "cond-y", path("ex2.ug"), "--assert")
    assert code == 1


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.ug"))
    assert code == 2
    bad = tmp_path / "bad.ug"
    bad.write_text("ultragraph g\nnot a line\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "line 2" in err
    code, _, _ = run(capsys, "eval", path("ef.ug"), "s(nope)")
    assert code == 2


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "check", "not-a-property", path("ef.ug"))[0] == 64


def test_negative_horizons_are_usage_errors(capsys, tmp_path):
    # at horizon -1 no position would be checked, and strong-z used to read
    # No with a witness on an input where the condition holds
    clique = tmp_path / "clique3.ug"
    clique.write_text(print_presentation(clique_ray(3)))
    for argv in (
        ("analyze", str(clique)),
        ("check", "cond-y", str(clique)),
        ("check", "strong-z", str(clique)),
    ):
        code, out, err = run(capsys, *argv, "--horizon", "-1")
        assert code == 64 and out == "" and "at least 0" in err, argv
        assert run(capsys, *argv, "--horizon=-1")[0] == 64
        assert run(capsys, *argv, "--horizon", "0")[0] == 0


def test_eval_and_skew_take_no_search_options(capsys):
    # --horizon belongs to analyze and check; eval and skew never read it,
    # and no subcommand takes --ck2-depth, so they are usage errors there
    assert run(capsys, "eval", path("ef.ug"), "s(e)", "--horizon", "3")[0] == 64
    assert run(capsys, "analyze", path("ef.ug"), "--ck2-depth", "2")[0] == 64
    assert run(capsys, "skew", path("ef.ug"), "s(e)", "--ck2-depth", "2")[0] == 64
    assert run(capsys, "check", "cond-y", path("ef.ug"), "--ck2-depth", "2")[0] == 64
    assert run(capsys, "check", "cond-y", path("ef.ug"), "--horizon", "3")[0] == 0


def test_graph_output_parses(capsys):
    code, out, _ = run(capsys, "graph", path("two_range.ug"))
    assert code == 0
    assoc = parse_presentation(out)
    assert len(assoc.edges) == 5  # one edge per (e, u in r(e)) pair
    assert all(len(e.range.vertices()) == 1 for e in assoc.edges.values())


def test_eval_output(capsys):
    code, out, _ = run(capsys, "eval", path("ef.ug"), "s(e) * s(f)")
    assert code == 0
    assert "normal form: s(e f) p{v}" in out
    assert "z-degree: 2" in out
    assert "f-degree: e f" in out
    code, out, _ = run(capsys, "eval", path("ef.ug"), "st(e) * s(f)")
    assert "normal form: 0" in out


def test_skew_output_and_verify(capsys):
    code, out, _ = run(capsys, "skew", path("ef.ug"), "s(e) * st(f)")
    assert code == 0
    assert "component e f^-1" in out
    code, out, _ = run(capsys, "skew", path("ef.ug"), "--verify-iso", "3")
    assert code == 0
    assert out.count("pass") == 4


def test_color_modes(capsys, monkeypatch):
    monkeypatch.setenv("ULTRAGRADE_COLOR", "always")
    _, out, _ = run(capsys, "check", "strong-z", path("two_cycle.ug"))
    assert "\x1b[32mYes\x1b[0m" in out
    monkeypatch.setenv("ULTRAGRADE_COLOR", "never")
    _, out, _ = run(capsys, "check", "strong-z", path("two_cycle.ug"))
    assert "\x1b[" not in out


def test_import_loads_no_dataclasses_or_fractions():
    # one fresh isolated interpreter imports the library as the benchmark
    # does, and the CLI; the import prints nothing, since the benchmark reads
    # its timing from the same interpreter's stdout
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ultragrade.grading, ultragrade.partial_action, ultragrade.cli\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "sys.stderr.write(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, str(CORPUS.parent / "src")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == ""
