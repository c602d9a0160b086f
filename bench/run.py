"""quandlekit benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload search --seed 1 --seconds 22 --trace 0

runs whole rounds of the workload's operations until ``--seconds`` have
passed, checks every result, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are scaled to a reference host by a
probe timed beside each of them.  See bench/README.md for the
workloads, the metrics and the scaling.

    python3 bench/run.py --self-test
    python3 bench/run.py --workload long --seed 1 --dump DIR

check the oracles against plain enumeration, and write every generated
input of a workload and seed to DIR.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

import selftest
from tracing import LAYERS, PER_LAYER, Tracer
from workloads import WORKLOADS, Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 5  # set-ups per run; setup_s is their median
# The probe's time on the reference host (see bench/README.md); every
# end-to-end time is scaled by this over the probe time taken beside it.
PROBE_REF_S = 0.002
# a fixed multiplication table (Z/24 under a + 5b) the probe walks
PROBE_TABLE = tuple(tuple((a + 5 * b) % 24 for b in range(24)) for a in range(24))

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("arcs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _probe_cells(table):
    for row in table:
        for c in row:
            yield c, row[c]


def _probe_paths(prefix, length):
    """The sequences of ``length`` elements that start with ``prefix`` and
    in which each element's product with the next falls into the class
    mod 3 of its position: a small backtracking search by generators."""
    if len(prefix) == length:
        yield prefix
        return
    row = PROBE_TABLE[prefix[-1]]
    for v in range(24):
        if row[v] % 3 == len(prefix) % 3:
            yield from _probe_paths(prefix + (v,), length)


def probe() -> float:
    """Time a fixed piece of pure-Python work of about 2 ms, made of what
    the library spends its time on: tuple indexing, dict look-ups and a
    backtracking search by recursive generators.  It shares no code with
    the library, so a change to the library cannot move it; only the
    host's speed does.  The collector is off meanwhile, so the library's
    heap cannot move it either."""
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(3):
            counts: dict[int, int] = {}
            acc = 0
            for c, d in _probe_cells(PROBE_TABLE):
                acc += PROBE_TABLE[d][c]
                counts[c] = counts.get(c, 0) + 1
            if len(counts) != 24 or acc < 0:
                raise BenchError("probe gave a wrong result")
        paths = sum(1 for a in range(24) for _ in _probe_paths((a,), 3))
        if paths != 1536:
            raise BenchError("probe gave a wrong result")
        return perf_counter() - t0
    finally:
        gc.enable()


def import_library():
    """Import quandlekit from this checkout's src, afresh: modules loaded
    by an earlier set-up are dropped, so each set-up pays the import."""
    if not (SRC / "quandlekit" / "__init__.py").is_file():
        raise BenchError(f"no quandlekit sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "quandlekit" or n.startswith("quandlekit.")]:
        del sys.modules[name]
    package = importlib.import_module("quandlekit")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"quandlekit was imported from {package.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(package=package)
    for name in LAYERS + ("fixtures",):
        setattr(lib, name, importlib.import_module(f"quandlekit.{name}"))
    return lib


class Tally:
    """Every operation's time in every round, scaled to the reference
    host, and whether it ever failed."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.raw: list[list[float]] = [[] for _ in ops]
        self.failed_op = [False] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.rounds = 0

    def typical(self, raw: bool = False) -> list[float]:
        """Each operation's median time over the rounds of the run."""
        return [statistics.median(t) for t in (self.raw if raw else self.times)]

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        typical = self.typical(raw)
        ok = [i for i, failed in enumerate(self.failed_op) if not failed]
        if not ok:
            raise BenchError("no operation succeeded")
        round_time = sum(typical)
        return {
            "ops_per_s": len(ok) / round_time,
            "op_p50_ms": statistics.median(typical[i] for i in ok) * 1000.0,
            "arcs_per_s": sum(self.ops[i].arcs for i in ok) / round_time,
        }


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time taken between two probes, scaled to the reference host."""
    return seconds * PROBE_REF_S * 2.0 / (probe_before + probe_after)


def run_round(tally: Tally, tracer: Tracer | None = None) -> None:
    before = probe()
    for i, op in enumerate(tally.ops):
        if tracer is not None:
            tracer.op = f"{tally.rounds}.{i}"
        error = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # every failure is counted, the run goes on
            error = exc
        elapsed = perf_counter() - t0
        after = probe()
        tally.raw[i].append(elapsed)
        tally.times[i].append(scaled(elapsed, before, after))
        before = after
        tally.attempted += 1
        if error is None:
            try:
                op.check(result)
            except Mismatch as exc:
                error = exc
        if error is None:
            continue
        tally.failed += 1
        tally.failed_op[i] = True
        if op.kept_fault is None or not isinstance(error, op.kept_fault):
            tally.wrong.append(f"{op.name}: {type(error).__name__}: {str(error)[:300]}")
    if tracer is not None:
        tracer.op = None
    tally.rounds += 1


def run_once(ops) -> list[str]:
    """Run each operation once, untimed, and say which went wrong."""
    wrong = []
    for op in ops:
        try:
            op.check(op.run())
        except Exception as exc:
            wrong.append(f"{op.name} (once): {type(exc).__name__}: {str(exc)[:300]}")
    return wrong


def measure(ops, seconds: float, tracer: Tracer | None = None) -> Tally:
    tally = Tally(ops)
    start = perf_counter()
    while True:
        run_round(tally, tracer)
        if perf_counter() - start >= seconds:
            return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the oracles and exit")
    parser.add_argument("--dump", metavar="DIR", help="write the generated inputs to DIR and exit")
    args = parser.parse_args(argv)

    problems = selftest.run()
    if problems:
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        return 1
    if args.self_test:
        print("self-test: oracles agree with plain enumeration")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return bench(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    kind = WORKLOADS[args.workload]
    setup_times, raw_setup = [], []
    for _ in range(SETUPS):
        before = probe()
        t0 = perf_counter()
        lib = import_library()
        workload = kind(lib, args.seed, workdir)
        elapsed = perf_counter() - t0
        raw_setup.append(elapsed)
        setup_times.append(scaled(elapsed, before, probe()))

    if args.dump:
        target = Path(args.dump)
        target.mkdir(parents=True, exist_ok=True)
        files = workload.inputs()
        for fname, text in files.items():
            (target / fname).write_text(text, encoding="utf-8")
        print(f"wrote {len(files)} files to {target}")
        return 0

    try:
        workload.prepare()
    except Mismatch as exc:
        raise BenchError(f"oracles disagree with each other: {exc}")
    ops = workload.ops
    wrong_once = run_once(workload.once)
    # keep the collector's full passes during operations off the objects
    # set-up and the oracles left behind
    gc.collect()
    gc.freeze()

    if args.trace:
        # untraced rounds for a third of the time, for the overhead
        baseline = measure(ops, args.seconds / 3)
        tracer = Tracer()
        tracer.install(lib)
        tally = measure(ops, args.seconds, tracer)
        untraced, traced = sum(baseline.typical()), sum(tally.typical())
        layer = tracer.layer_metrics(tally.rounds, (traced / untraced - 1.0) * 100.0)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        wrong = wrong_once + baseline.wrong + tally.wrong
    else:
        tally = measure(ops, args.seconds)
        values = {
            "setup_s": statistics.median(setup_times),
            **tally.end_to_end(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        wrong = wrong_once + tally.wrong
        raw = {"setup_s": statistics.median(raw_setup), **tally.end_to_end(raw=True)}
        print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))

    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {tally.rounds} rounds, {tally.attempted} operations, "
        f"{tally.failed} failed, {len(wrong)} wrong"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
