"""Per-layer spans, recorded from outside the library.

`Tracer.install` replaces each listed public function by a timing wrapper,
both in its defining module and at every `from ... import` binding of it in
the loaded `ultragrade` modules, so calls between library modules are
counted too.  The IndexSet and VertexSet Boolean operations are wrapped on
their classes.  A span's self time is its duration minus the time of the
spans it encloses.  Counts and self times are kept per op and merged into
the totals only for ops that complete, so a timed-out op leaves no partial
numbers behind.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYER_FUNCTIONS = {
    "model": ["parse_presentation"],
    "structure": ["structural_report"],
    "condition_y": ["incoming_length_profile", "decide_condition_y", "check_condition_y_bounded"],
    "lattice": ["g0_contains"],
    "algebra": [
        "multiply",
        "strong_factorization",
        "verify_factorization",
        "all_paths",
        "epsilon_candidate",
        "verify_epsilon",
    ],
    "grading": ["classify_strong_z", "classify_eps_strong_z"],
    "partial_action": ["verify_generator_relations", "skew_multiply", "beta"],
}
INDEXSET_OPS = ["union", "intersection", "difference", "complement"]
VERTEXSET_OPS = ["union", "intersection", "difference", "subset_of"]
# result sizes recorded as counts: span name -> counter name
RESULT_SIZES = {
    "algebra.strong_factorization": "algebra.strong_factorization.pairs",
    "algebra.all_paths": "algebra.all_paths.paths",
}
# a condition-Y decision is an outermost call of either function
DECISIONS = ("condition_y.decide_condition_y", "condition_y.check_condition_y_bounded")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._op: list = []  # per-op (calls, self_s, counts) until merged
        self._stack: list[float] = []  # child time accumulated per open span
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn):
        stack, active = self._stack, self._active
        size_counter = RESULT_SIZES.get(name)
        is_decision = name in DECISIONS

        def wrapper(*args, **kwargs):
            calls, self_s, counts = self._op
            calls[name] += 1
            if is_decision and not any(active[d] for d in DECISIONS):
                counts["condition_y.decisions"] += 1
            active[name] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                active[name] -= 1
            if size_counter is not None:
                counts[size_counter] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_op(self) -> None:
        self._op = [defaultdict(int), defaultdict(float), defaultdict(int)]
        self._stack.clear()
        self._active.clear()

    def end_op(self, completed: bool) -> None:
        calls, self_s, counts = self._op
        if completed:
            for k, v in calls.items():
                self.calls[k] += v
            for k, v in self_s.items():
                self.self_s[k] += v
            for k, v in counts.items():
                self.counts[k] += v
        self._op = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ultragrade" or n.startswith("ultragrade.")]
        for short, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"ultragrade.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapped = self.span(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
        from ultragrade.indexset import IndexSet
        from ultragrade.model import VertexSet

        for cls, prefix, ops in (
            (IndexSet, "indexset.ops", INDEXSET_OPS),
            (VertexSet, "model.vertexset_ops", VERTEXSET_OPS),
        ):
            for op in ops:
                self._set(cls, op, self.span(f"{prefix}.{op}", vars(cls)[op]))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), over `ops` completed ops."""
        out: dict[str, tuple[float, str]] = {}
        for short, names in LAYER_FUNCTIONS.items():
            for fn_name in names:
                key = f"{short}.{fn_name}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_ms"] = (self.self_s[key] * 1000.0, "ms")
        for prefix, op_names in (("indexset.ops", INDEXSET_OPS), ("model.vertexset_ops", VERTEXSET_OPS)):
            keys = [f"{prefix}.{op}" for op in op_names]
            for key in keys:
                out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{prefix}.calls"] = (sum(self.calls[k] for k in keys), "count")
            out[f"{prefix}.self_ms"] = (sum(self.self_s[k] for k in keys) * 1000.0, "ms")
        out["op.self_ms"] = (self.self_s["op"] * 1000.0, "ms")
        for counter in RESULT_SIZES.values():
            out[counter] = (self.counts[counter], "count")
        per_op = max(ops, 1)
        out["condition_y.decisions_per_op"] = (self.counts["condition_y.decisions"] / per_op, "count/op")
        out["structure.reports_per_op"] = (self.calls["structure.structural_report"] / per_op, "count/op")
        out["trace.overhead"] = (overhead, "ratio")
        return out
