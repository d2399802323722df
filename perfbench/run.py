"""The ultragrade benchmark: time to a correct verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one caller, no threads.  An op is one presentation: for the
`analyze` workloads `parse_presentation(text)`, `analyze(pres)` at the
default horizon and `json.dumps(report, sort_keys=True)`, which is the
CLI's `analyze --format json` without process start; for `skew_verify`
`parse_presentation(text)` and `verify_generator_relations(pres, depth=3)`.

A run makes the workload's fixed input set from the seed and loops over it
in a closed loop.  The first pass always runs to the end; later passes run
until `--seconds` have passed, and the op that the deadline interrupts is
dropped.  Every op runs under a fixed time limit; an op that hits it is a
named timeout, is not repeated, and counts in `failed_share` with the ops
that raised.  The result line's `failed` counts only ops that raised.
Each input is timed by the median of its samples.  Outputs are checked
against the references in reference.py after timing.

While the timed loop runs, the fixed kernel of speed.py runs every 40 ms
of CPU time, inside the ops too, and `ops_per_s`, `op_ms_p50` and
`setup_s` are given in reference seconds: each time is scaled by how fast
the kernel ran during it, which takes out the jumps in a shared machine's
speed.  The raw figures are printed too, as `raw_*` lines; the per-input
rows give raw times.

With `--trace 0` the last line reports the end-to-end metrics, measured
with tracing off.  With `--trace 1` the run makes one pass in which each
input runs untraced and then traced, and reports the per-layer metrics of
the traced runs plus the tracing overhead.  Earlier lines give the
environment, one row per input, named timeouts, wrong verdicts and the
metrics that are not gated (`op_ms_p90`, `failed_share`,
`wrong_verdicts`), each with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

WORKLOADS = ("mixed_small", "finite_families", "infinite_rays", "skew_verify")
# Above the slowest op that completes (the 5-clique ray, about 6 s on a
# 2-core x86-64 VM) by a factor of two; the 6-clique ray hits it.
OP_TIME_LIMIT_S = 12.0
# Traced ops run up to about twice as long (the 3x7 DAG), so their limit is
# doubled; an op that times out untraced is not run traced.
TRACED_LIMIT_S = 2 * OP_TIME_LIMIT_S
SETUP_REPEATS = 15
# Imports the library, then runs the speed kernel; prints the import time
# and the kernel's scale factor.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ultragrade.grading, ultragrade.partial_action\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(t, speed.fresh_rate())\n"
)


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` inside the library can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def load_library():
    src = ROOT / "src"
    if not (src / "ultragrade" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"perfbench: no ultragrade sources and corpus under {ROOT}")
    sys.path.insert(0, str(src))
    import ultragrade.grading
    import ultragrade.partial_action

    if Path(ultragrade.__file__).resolve().parent != src / "ultragrade":
        raise SystemExit(f"perfbench: imported ultragrade from {ultragrade.__file__}, not {src}")
    return ultragrade


def measure_setup() -> tuple[float, float]:
    """Median time to import the library in a fresh interpreter, in
    reference seconds and in seconds.  Each interpreter runs the speed
    kernel right after the import."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        seconds, rate = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * rate)
    return statistics.median(scaled), statistics.median(raw)


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
        "op_time_limit_s": OP_TIME_LIMIT_S,
    }


def make_op(ug, workload: str):
    model, grading, partial_action = ug.model, ug.grading, ug.partial_action
    if workload == "skew_verify":
        def op(text):
            pres = model.parse_presentation(text)
            return partial_action.verify_generator_relations(pres, depth=3)
    else:
        def op(text):
            pres = model.parse_presentation(text)
            return json.dumps(grading.analyze(pres), sort_keys=True)
    return op


def timed(op, text: str, budget: float):
    """(outcome, seconds, result) of one op under an interval timer."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        try:
            result = op(text)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", time.perf_counter() - start, None
    except Exception as exc:  # the op failed; the run counts it and goes on
        return "error", time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return "ok", elapsed, result


class Record:
    """Samples, outcomes and first result of one input."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []  # wall-clock interval of each sample
        self.outcome = None  # of the first attempt
        self.result = None
        self.changed = False  # a later attempt gave another result
        self.errors = 0
        self.timeouts = 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(inputs, op, deadline: float | None, tracer: Tracer | None = None,
               limit: float = OP_TIME_LIMIT_S, probe: SpeedProbe | None = None):
    """Closed loop over the inputs, each op under the time `limit`.  With
    a running `probe`, samples exclude the time of the kernel runs inside
    the op.

    Returns (records, attempted, peak_rss_mb).  The peak is read before the
    first op that times out, because how much memory an interrupted op holds
    depends on how far it got, and the ops after it repeat earlier ones."""
    records = [Record() for _ in inputs]
    attempted = 0
    peak = None
    first = True
    while True:
        for inp, rec in zip(inputs, records):
            if rec.outcome == "timeout":
                continue
            budget = limit
            if not first:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return records, attempted, peak or _peak_rss_mb()
                budget = min(budget, remaining)
            rss_before = _peak_rss_mb()
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            probe_s = probe.spent if probe is not None else 0.0
            outcome, seconds, result = timed(op, inp.text, budget)
            span = (start, start + seconds)
            if probe is not None:
                seconds -= probe.spent - probe_s
            if tracer is not None:
                tracer.end_op(outcome == "ok")
            if outcome == "timeout" and budget < limit:
                return records, attempted, peak or rss_before  # cut by the deadline, dropped
            if outcome == "timeout" and peak is None:
                peak = rss_before
            attempted += 1
            rec.errors += outcome == "error"
            rec.timeouts += outcome == "timeout"
            rec.samples.append(seconds)
            rec.spans.append(span)
            if rec.outcome is None:
                rec.outcome, rec.result = outcome, result
            elif outcome == "ok" and result != rec.result:
                rec.changed = True
        first = False
        if deadline is None or time.perf_counter() >= deadline:
            return records, attempted, peak or _peak_rss_mb()


def run_traced(inputs, op):
    """Each input once untraced and then once traced, back to back, so that
    both runs of an input see the same machine speed.  Returns (tracer,
    untraced records, traced records, attempted); an input that timed out
    untraced is not run traced."""
    tracer = Tracer()
    traced_op = tracer.span("op", op)
    records, traced, attempted = [], [], 0
    for inp in inputs:
        (rec,), n, _ = run_passes([inp], op, None)
        trec, m = Record(), 0
        if rec.outcome != "timeout":
            tracer.install()
            try:
                (trec,), m, _ = run_passes([inp], traced_op, None, tracer, TRACED_LIMIT_S)
            finally:
                tracer.uninstall()
        records.append(rec)
        traced.append(trec)
        attempted += n + m
    return tracer, records, traced, attempted


def check(workload, ug, inputs, records) -> list[str]:
    """Disagreements with the references, plus any report that changed
    between passes."""
    import reference  # loads networkx, so only after the timed loops

    wrong: list[str] = []
    for inp, rec in zip(inputs, records):
        if rec.outcome != "ok":
            continue
        if rec.changed:
            wrong.append(f"{inp.name}: output differs between passes")
        if workload == "skew_verify":
            wrong += reference.check_skew(inp.name, rec.result)
        else:
            pres = ug.model.parse_presentation(inp.text)
            wrong += reference.check_analyze(inp.family, inp.name, pres, json.loads(rec.result))
    return wrong


def verdict_counts(workload, records) -> tuple[int, int]:
    """(decided, issued) verdicts over the inputs that completed."""
    decided = issued = 0
    for rec in records:
        if rec.outcome != "ok":
            continue
        if workload == "skew_verify":
            verdicts = [rec.result[f"relation{i}"] for i in range(1, 5)]
            decided += sum(isinstance(v, bool) for v in verdicts)
        else:
            verdicts = [g["status"] for g in json.loads(rec.result)["gradings"].values()]
            decided += sum(v in ("Yes", "No") for v in verdicts)
        issued += len(verdicts)
    return decided, issued


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def input_rows(inputs, records, traced=None) -> None:
    for i, (inp, rec) in enumerate(zip(inputs, records)):
        row = {
            "name": inp.name,
            "size": inp.size,
            "op_ms": statistics.median(rec.samples) * 1000.0,
            "samples": len(rec.samples),
            "outcome": rec.outcome,
        }
        runs = [(rec, OP_TIME_LIMIT_S, False)]
        if traced is not None:
            row["traced_op_ms"] = traced[i].samples[0] * 1000.0 if traced[i].samples else None
            row["traced_outcome"] = traced[i].outcome
            runs.append((traced[i], TRACED_LIMIT_S, True))
        emit("input", row)
        for r, limit, traced_run in runs:
            where = {"name": inp.name, "size": inp.size, "traced": traced_run}
            if r.outcome == "timeout":
                emit("timeout", {**where, "limit_s": limit})
            elif r.outcome == "error":
                emit("error", {**where, "error": r.result})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    ug = load_library()
    emit("env", environment(args))
    inputs = workloads.make_inputs(args.workload, args.seed, ROOT, args.sizes)
    op = make_op(ug, args.workload)
    signal.signal(signal.SIGALRM, _alarm)
    timed(op, inputs[0].text, OP_TIME_LIMIT_S)  # lets lazy imports and caches settle

    traced = None
    if args.trace:
        tracer, records, traced, attempted = run_traced(inputs, op)
    else:
        deadline = time.perf_counter() + args.seconds
        probe = SpeedProbe()
        probe.start()
        try:
            records, attempted, peak_rss_mb = run_passes(inputs, op, deadline, probe=probe)
        finally:
            probe.stop()

    input_rows(inputs, records, traced)
    all_records = records + (traced or [])
    wrong = check(args.workload, ug, inputs * (2 if traced else 1), all_records)
    for line in wrong:
        emit("wrong", line)
    errors = sum(r.errors for r in all_records)
    timeouts = sum(r.timeouts for r in all_records)

    if args.trace:
        both = [
            (r.samples[0], t.samples[0])
            for r, t in zip(records, traced)
            if r.outcome == "ok" and t.outcome == "ok"
        ]
        overhead = sum(t for _, t in both) / sum(u for u, _ in both)
        completed = sum(t.outcome == "ok" for t in traced)
        metrics = tracer.metrics(completed, overhead)
    else:
        # A timed-out input counts at the time limit, which is wall time.
        per_input_ms = [
            OP_TIME_LIMIT_S * 1000.0 if r.outcome == "timeout"
            else statistics.median(t * probe.scale(*span) for span, t in zip(r.spans, r.samples)) * 1000.0
            for r in records
        ]
        raw_ms = [statistics.median(r.samples) * 1000.0 for r in records]
        decided, issued = verdict_counts(args.workload, records)
        setup_s, setup_raw_s = measure_setup()
        metrics = {
            "ops_per_s": (len(inputs) / (sum(per_input_ms) / 1000.0), "1/s"),
            "op_ms_p50": (statistics.median(per_input_ms), "ms"),
            "decided_share": (decided / issued, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        extra = {
            "failed_share": ((errors + timeouts) / attempted, "ratio"),
            "wrong_verdicts": (len(wrong), "count"),
            "raw_ops_per_s": (len(inputs) / (sum(raw_ms) / 1000.0), "1/s"),
            "raw_op_ms_p50": (statistics.median(raw_ms), "ms"),
            "raw_setup_s": (setup_raw_s, "s"),
            "probe_rate_mean": (statistics.fmean(probe.rates), "ratio"),
        }
        if len(per_input_ms) >= 100:
            extra["op_ms_p90"] = (statistics.quantiles(per_input_ms, n=10)[8], "ms")
        for name, (value, unit) in extra.items():
            print(f"metric {name} {value} {unit}")
        print(f"metric op_samples {len(per_input_ms)} count")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
