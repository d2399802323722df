"""Command-line front end.

Subcommands: analyze, check, graph, eval, skew.  Exit codes: 0 success,
1 failed --assert, 2 input/parse errors, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import f_degree, monomial_degrees, parse_element, pretty, z_degree
from .condition_y import check_condition_y_bounded
from .errors import ExpressionError, NotHomogeneous, ParseError, UltragradeError
from .grading import (
    analyze,
    classify_eps_strong_f,
    classify_eps_strong_z,
    classify_strong_f,
    classify_strong_z,
    gauge_saturation,
)
from .lattice import is_unital
from .model import UltragraphPresentation, parse_presentation, print_presentation
from .partial_action import phi_of_element, verify_generator_relations
from .structure import build_associated_graph, structural_report

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_USAGE = 64

CHECK_PROPERTIES = (
    "strong-z",
    "eps-z",
    "strong-f",
    "eps-f",
    "gauge",
    "cond-y",
    "row-finite",
    "unital",
)


def _color_mode() -> str:
    mode = os.environ.get("ULTRAGRADE_COLOR", "auto")
    return mode if mode in ("auto", "always", "never") else "auto"


def _paint(text: str, code: str) -> str:
    mode = _color_mode()
    use = mode == "always" or (mode == "auto" and sys.stdout.isatty())
    return f"\x1b[{code}m{text}\x1b[0m" if use else text


def _status_str(status: str) -> str:
    colors = {"Yes": "32", "No": "31"}
    return _paint(status, colors.get(status, "33"))


def _load(path: str) -> UltragraphPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# -- output helpers ---------------------------------------------------------


def _print_verdict(name: str, verdict: dict) -> None:
    print(f"{name}: {_status_str(verdict['status'])}")
    for reason in verdict["reasons"]:
        print(f"  - {reason}")
    if verdict.get("certificate"):
        print(f"  certificate: {json.dumps(verdict['certificate'], sort_keys=True)}")


def _print_analysis_text(report: dict) -> None:
    print(f"ultragrade {report['version']} :: {report['presentation']}")
    s = report["structure"]
    print(
        "structure: "
        f"sinks={s['has_sinks']} sources={s['has_sources']} "
        f"infinite_emitter={s['has_infinite_emitter']} "
        f"row_finite={s['row_finite']} finite_range={s['finite_range']}"
    )
    print(f"unital: {report['unital']}")
    cy = report["condition_y"]
    line = f"condition_y: {cy['status']}"
    if cy.get("witness"):
        line += f" (witness: {cy['witness']})"
    print(line)
    names = {
        "strong_z": "strong-Z",
        "eps_strong_z": "eps-strong-Z",
        "strong_f": "strong-F",
        "eps_strong_f": "eps-strong-F",
        "gauge_saturated": "gauge-saturated",
    }
    for key, label in names.items():
        _print_verdict(label, report["gradings"][key])


# -- subcommands --------------------------------------------------------------


def _cmd_analyze(args) -> int:
    pres = _load(args.file)
    report = analyze(pres, horizon=args.horizon)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_analysis_text(report)
    return EXIT_OK


def _cmd_check(args) -> int:
    pres = _load(args.file)
    prop = args.property
    failed = False
    if prop in ("strong-z", "eps-z", "strong-f", "eps-f", "gauge"):
        fn = {
            "strong-z": lambda: classify_strong_z(pres, args.horizon),
            "eps-z": lambda: classify_eps_strong_z(pres),
            "strong-f": lambda: classify_strong_f(pres),
            "eps-f": lambda: classify_eps_strong_f(pres),
            "gauge": lambda: gauge_saturation(pres, args.horizon),
        }[prop]
        verdict = fn().to_dict()
        failed = verdict["status"] == "No"
        if args.format == "json":
            print(json.dumps(verdict, indent=2, sort_keys=True))
        else:
            _print_verdict(prop, verdict)
    elif prop == "cond-y":
        cy = check_condition_y_bounded(pres, args.horizon).to_dict()
        failed = cy["status"] == "violation_up_to_horizon"
        if args.format == "json":
            print(json.dumps(cy, indent=2, sort_keys=True))
        else:
            line = f"cond-y: {cy['status']}"
            if cy.get("witness"):
                line += f" (witness: {cy['witness']})"
            print(line)
    else:
        if prop == "row-finite":
            value = structural_report(pres).row_finite
        else:
            value = is_unital(pres)
        failed = not value
        if args.format == "json":
            print(json.dumps({"property": prop, "value": value}))
        else:
            print(f"{prop}: {_status_str('Yes' if value else 'No')}")
    if args.assert_ and failed:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_graph(args) -> int:
    pres = _load(args.file)
    sys.stdout.write(print_presentation(build_associated_graph(pres)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    pres = _load(args.file)
    element = parse_element(pres, args.expr)
    print(f"normal form: {pretty(element)}")
    try:
        print(f"z-degree: {z_degree(element)}")
    except NotHomogeneous:
        degs = sorted({d for d, _ in monomial_degrees(element)})
        print(f"z-degree: mixed {degs}")
    try:
        print(f"f-degree: {f_degree(element).label()}")
    except NotHomogeneous:
        words = sorted({w.label() for _, w in monomial_degrees(element)})
        print(f"f-degree: mixed {words}")
    return EXIT_OK


def _cmd_skew(args) -> int:
    pres = _load(args.file)
    if args.verify_iso is not None:
        report = verify_generator_relations(pres, depth=args.verify_iso)
        for name in ("relation1", "relation2", "relation3", "relation4"):
            status = "pass" if report[name] else "FAIL"
            print(f"{name}: {status}")
        for failure in report["failures"]:
            print(f"  - {failure}")
        if args.assert_ and not report["all_pass"]:
            return EXIT_ASSERT
        if args.expr is None:
            return EXIT_OK
    if args.expr is None:
        print("skew: an expression or --verify-iso is required", file=sys.stderr)
        return EXIT_USAGE
    skew = phi_of_element(pres, parse_element(pres, args.expr))  # generators map to their images
    if skew.is_zero():
        print("0")
        return EXIT_OK
    for word in skew.grading_tags():
        f = skew.comps[word]
        print(f"component {word.label()} (depth {f.depth}):")
        for key in sorted(f.values, key=repr):
            print(f"  {_atom_label(key)}: {f.values[key]}")
    return EXIT_OK


def _atom_label(key: tuple) -> str:
    if key[0] == "cyl":
        return "cyl[" + " ".join(e.label() for e in key[1]) + "]"
    if key[0] == "sp":
        return "sink-pair[" + " ".join(e.label() for e in key[1]) + f"; {key[2].label()}]"
    return f"sink[{key[1].label()}]"


def _horizon(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"the horizon must be an integer of at least 0, not {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragrade",
        description="Grading analysis for ultragraph Leavitt path algebras.",
    )
    parser.add_argument("--version", action="version", version=f"ultragrade {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--horizon", type=_horizon, default=40)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="run all analyses on a presentation file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("check", help="check a single property")
    p.add_argument("property", choices=CHECK_PROPERTIES)
    p.add_argument("file")
    p.add_argument("--assert", action="store_true", dest="assert_")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("graph", help="emit the associated directed graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("eval", help="evaluate an algebra expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("skew", help="evaluate a skew-product expression")
    p.add_argument("file")
    p.add_argument("expr", nargs="?")
    p.add_argument("--verify-iso", type=int, default=None, dest="verify_iso")
    p.add_argument("--assert", action="store_true", dest="assert_")
    p.set_defaults(fn=_cmd_skew)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap per the documented codes
        if exc.code not in (0, None):
            return EXIT_USAGE
        return EXIT_OK
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UltragradeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
