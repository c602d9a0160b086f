"""Spans and counters taken from outside the library.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that records a span, under every name the function is
bound to, so that a call through ``moves.count_colourings`` or
``cli.count_colourings`` is seen as well as one through ``coloring``.  A
few methods get counters instead of spans, because they run millions of
times.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
from pathlib import Path
from time import perf_counter

LAYERS = ("tables", "systems", "diagrams", "coloring", "moves", "invariants", "cli")

# (metric, unit), per traced round; bench/README.md says what each measures
PER_LAYER = (
    ("coloring.search.ms", "ms"),
    ("coloring.checks", "count"),
    ("coloring.solutions", "count"),
    ("coloring.solutions_per_check", "ratio"),
    ("coloring.context.builds", "count"),
    ("coloring.context.ms", "ms"),
    ("tables.generated_subalgebra.ms", "ms"),
    ("tables.generated_subalgebra.calls", "count"),
    ("tables.dual_operation.calls", "count"),
    ("tables.validate_axioms.ms", "ms"),
    ("tables.parse.ms", "ms"),
    ("systems.associated_quandle.ms", "ms"),
    ("systems.validate_family.ms", "ms"),
    ("systems.parse_system.ms", "ms"),
    ("moves.applicable_moves.ms", "ms"),
    ("moves.apply_move.calls", "count"),
    ("moves.apply_move.ms", "ms"),
    ("moves.usable_ratio", "ratio"),
    ("moves.random_diagram.ms", "ms"),
    ("invariants.group_hom_count.ms", "ms"),
    ("invariants.wirtinger_presentation.ms", "ms"),
    ("diagrams.parse_diagram.ms", "ms"),
    ("diagrams.validate_diagram.calls", "count"),
    ("cli.self.ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts = {"coloring.checks": 0, "coloring.solutions": 0, "moves.usable": 0}
        self.op = None
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack, tracer = self.spans, self._stack, self
        counts = self.counts
        usable = name == "moves.applicable_moves"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if usable:
                counts["moves.usable"] += len(result)
            return result

        return traced

    def install(self, lib) -> None:
        wrapped: dict[int, object] = {}
        modules = [getattr(lib, name) for name in LAYERS] + [lib.fixtures, lib.package]
        layer_modules = {f"quandlekit.{name}" for name in LAYERS}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ not in layer_modules:
                    continue
                if id(obj) not in wrapped:
                    span_name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrapped[id(obj)] = self._span(span_name, obj)
                setattr(module, attr, wrapped[id(obj)])

        ctx = lib.coloring.ColouringContext
        ctx.__init__ = self._span("coloring.context", ctx.__init__)
        counts = self.counts
        for method in ("crossing_ok", "vertex_ok"):
            setattr(ctx, method, _counted(getattr(ctx, method), counts, "coloring.checks"))
        backtracker = lib.coloring._Backtracker
        solutions = backtracker.solutions

        @functools.wraps(solutions)
        def counted_solutions(self_, *args, **kwargs):
            for colours in solutions(self_, *args, **kwargs):
                counts["coloring.solutions"] += 1
                yield colours

        backtracker.solutions = counted_solutions

    def layer_metrics(self, rounds: int, overhead_pct: float) -> dict[str, float]:
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        apply_attempts = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - children[i])
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0 and name == "moves.apply_move":
                apply_attempts += spans[parent][0] == "moves.applicable_moves"

        def ms(times: dict, *names: str) -> float:
            return sum(times.get(n, 0.0) for n in names) * 1000.0 / rounds

        def per_round(name: str) -> float:
            return calls.get(name, 0) / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        checks, solutions = self.counts["coloring.checks"], self.counts["coloring.solutions"]
        return {
            "coloring.search.ms": ms(own, "coloring.count_colourings"),
            "coloring.checks": checks / rounds,
            "coloring.solutions": solutions / rounds,
            "coloring.solutions_per_check": ratio(solutions, checks),
            "coloring.context.builds": per_round("coloring.context"),
            "coloring.context.ms": ms(total, "coloring.context"),
            "tables.generated_subalgebra.ms": ms(total, "tables.generated_subalgebra"),
            "tables.generated_subalgebra.calls": per_round("tables.generated_subalgebra"),
            "tables.dual_operation.calls": per_round("tables.dual_operation"),
            "tables.validate_axioms.ms": ms(total, "tables.validate_axioms"),
            "tables.parse.ms": ms(own, "tables.parse_table", "tables.parse_group"),
            "systems.associated_quandle.ms": ms(total, "systems.associated_quandle"),
            "systems.validate_family.ms": ms(total, "systems.validate_family"),
            "systems.parse_system.ms": ms(own, "systems.parse_system"),
            "moves.applicable_moves.ms": ms(total, "moves.applicable_moves"),
            "moves.apply_move.calls": per_round("moves.apply_move"),
            "moves.apply_move.ms": ms(total, "moves.apply_move"),
            "moves.usable_ratio": ratio(self.counts["moves.usable"], apply_attempts),
            "moves.random_diagram.ms": ms(total, "moves.random_diagram"),
            "invariants.group_hom_count.ms": ms(total, "invariants.group_hom_count"),
            "invariants.wirtinger_presentation.ms": ms(total, "invariants.wirtinger_presentation"),
            "diagrams.parse_diagram.ms": ms(total, "diagrams.parse_diagram"),
            "diagrams.validate_diagram.calls": per_round("diagrams.validate_diagram"),
            "cli.self.ms": ms(own, *(n for n in own if n.startswith("cli."))),
            "trace.overhead_pct": overhead_pct,
        }

    def write(self, path: Path) -> None:
        """One span a line: name, start and end in seconds, parent line
        (-1 for none), operation id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("# name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.7f}\t{end:.7f}\t{parent}\t{op}\n")


def _counted(fn, counts: dict, key: str):
    @functools.wraps(fn)
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted
