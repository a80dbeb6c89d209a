"""Spans around the package's public calls, installed from outside ``src/``.

``install(tracer)`` wraps every target below in every namespace it is bound
in (a function imported into five modules is patched in all five) and
returns an undo function.  Field classes are patched per class, so the
scalar counts include nested inner-field work: Q(t) multiplies through Q.

Self time is a span's duration minus the time covered by its child spans;
it is accumulated online, so it is exact for every span even when the
in-memory span list is capped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute or Class.attribute, span name)
TARGETS = (
    ("oretower.skewpoly", "SkewPoly.__mul__", "skewpoly.mul"),
    ("oretower.skewpoly", "apply_level_map", "skewpoly.level_map"),
    ("oretower.skewpoly", "is_central", "skewpoly.is_central"),
    ("oretower.tower", "OreTower.__init__", "tower.construct"),
    ("oretower.tower", "validate_tower", "tower.validate"),
    ("oretower.tower", "map_order", "tower.map_order"),
    ("oretower.tower", "check_swap_compatibility", "tower.swap_compat"),
    ("oretower.erase", "erase_all", "erase.erase_all"),
    ("oretower.erase", "erase_top", "erase.erase_top"),
    ("oretower.erase", "swap_adjacent", "erase.swap"),
    ("oretower.graded", "associated_graded_tower", "graded.degenerate"),
    ("oretower.graded", "rees_closure_check", "graded.rees_check"),
    ("oretower.pi", "pi_report", "pi.report"),
    ("oretower.pi", "centrality_witness", "pi.witness"),
    ("oretower.cli", "parse_tower_file", "cli.parse"),
    ("oretower.cli", "run", "cli.run"),
)
FIELD_METHODS = (("mul", "scalars.mul"), ("add", "scalars.add"), ("inv", "scalars.inv"))
MAX_SPANS = 100_000


class Tracer:
    """Span stack, per-name aggregates and a capped list of finished spans."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.stack = []  # [id, name, start, time covered by children]
        self.next_id = 0
        self.op = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # outermost span of each name only
        self.open = Counter()
        self.engine_scalar_muls = 0  # outermost scalar muls inside a SkewPoly product
        self.erase_candidates = 0  # is_central calls inside erase_top
        self.term_pairs = 0
        self.unbalanced = 0

    def enter(self, name: str) -> None:
        stack = self.stack
        if name == "scalars.mul" and self.open["skewpoly.mul"]:
            if not stack or not stack[-1][1].startswith("scalars."):
                self.engine_scalar_muls += 1
        elif name == "skewpoly.is_central" and self.open["erase.erase_top"]:
            self.erase_candidates += 1
        self.calls[name] += 1
        self.open[name] += 1
        stack.append([self.next_id, name, time.perf_counter(), 0.0])
        self.next_id += 1

    def leave(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.open[name] -= 1
        if not self.open[name]:
            self.total_s[name] += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if span_id < self.max_spans:
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[0], self.op)
            )

    def end_op(self) -> None:
        """Close spans a RecursionError left open, so ops stay independent."""
        if self.stack:
            self.unbalanced += 1
            while self.stack:
                self.leave()


def _wrap(fn, name: str, tracer: Tracer, hook=None):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook is not None:
            hook(args)
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return traced


def _count_term_pairs(tracer: Tracer):
    def hook(args):
        left, right = args
        tracer.term_pairs += len(left.terms) * len(getattr(right, "terms", (0,)))

    return hook


def install(tracer: Tracer):
    """Wrap every target in every namespace it is bound in; returns undo()."""
    modules = [m for n, m in list(sys.modules.items()) if n == "oretower" or n.startswith("oretower.")]
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module_name, path, span in TARGETS:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            hook = _count_term_pairs(tracer) if span == "skewpoly.mul" else None
            patch(cls, attr, _wrap(cls.__dict__[attr], span, tracer, hook))
            continue
        original = getattr(owner, path)
        wrapped = _wrap(original, span, tracer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patch(module, attr, wrapped)

    scalars = sys.modules["oretower.scalars"]
    for cls in list(vars(scalars).values()):
        if isinstance(cls, type) and all(m in cls.__dict__ for m, _ in FIELD_METHODS):
            for method, span in FIELD_METHODS:
                patch(cls, method, _wrap(cls.__dict__[method], span, tracer))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, self_s, total = tracer.calls, tracer.self_s, tracer.total_s
    scalar_self = sum(self_s[s] for _, s in FIELD_METHODS)
    return {
        "scalars.mul_calls": (calls["scalars.mul"], "count"),
        "scalars.add_calls": (calls["scalars.add"], "count"),
        "scalars.inv_calls": (calls["scalars.inv"], "count"),
        "scalars.self_s": (scalar_self, "s"),
        "skewpoly.mul_calls": (calls["skewpoly.mul"], "count"),
        "skewpoly.term_pairs": (tracer.term_pairs, "count"),
        "skewpoly.mul_self_s": (self_s["skewpoly.mul"], "s"),
        "skewpoly.scalar_muls_per_mul": (
            _ratio(tracer.engine_scalar_muls, calls["skewpoly.mul"]), "count/op"),
        "skewpoly.level_map_calls": (calls["skewpoly.level_map"], "count"),
        "skewpoly.level_map_s": (total["skewpoly.level_map"], "s"),
        "skewpoly.is_central_calls": (calls["skewpoly.is_central"], "count"),
        "skewpoly.is_central_s": (total["skewpoly.is_central"], "s"),
        "tower.validate_calls": (calls["tower.validate"], "count"),
        "tower.validate_s": (total["tower.validate"], "s"),
        "tower.constructions": (calls["tower.construct"], "count"),
        "tower.map_order_s": (total["tower.map_order"], "s"),
        "tower.swap_compat_s": (total["tower.swap_compat"], "s"),
        "erase.erase_all_s": (total["erase.erase_all"], "s"),
        "erase.erase_top_calls": (calls["erase.erase_top"], "count"),
        "erase.erase_top_s": (total["erase.erase_top"], "s"),
        "erase.swap_calls": (calls["erase.swap"], "count"),
        "erase.swap_s": (total["erase.swap"], "s"),
        "erase.candidates_per_erase": (
            _ratio(tracer.erase_candidates, calls["erase.erase_top"]), "count/call"),
        "graded.degenerate_s": (total["graded.degenerate"], "s"),
        "graded.rees_check_s": (total["graded.rees_check"], "s"),
        "pi.report_s": (total["pi.report"], "s"),
        "pi.witness_s": (total["pi.witness"], "s"),
        "cli.parse_s": (total["cli.parse"], "s"),
        "cli.self_s": (self_s["cli.run"], "s"),
    }
