#!/usr/bin/env python3
"""Host wall-clock benchmark: tuple vs closure engines.

Runs the tier-2 workload sweep through both execution engines of each
executor — the interpreter (``engine="closure"`` / ``engine="tuple"``)
and the DynamoRIO runtime (``options.engine``) — timing host seconds
while asserting the *simulated* results (cycles, instructions, output)
are bit-identical across engines.  Simulated numbers measure the machine
being modelled; host seconds measure this Python implementation.  Only
the latter may change between engines.

Usage::

    PYTHONPATH=src python benchmarks/wallclock.py              # full sweep
    PYTHONPATH=src python benchmarks/wallclock.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/wallclock.py --quick \\
        --check BENCH_wallclock.json                           # drift gate

``--check`` compares the simulated cycles/instructions of every sweep
cell against a previously written JSON (host timings are machine-
dependent and deliberately ignored); any drift exits non-zero.  The
checked-in ``BENCH_wallclock.json`` doubles as the golden for CI;
``--commit``/``--date`` stamp its ``meta`` block so the artifact
records which revision produced it.
"""

import argparse
import json
import statistics
import sys
import time

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.machine.interp import Interpreter
from repro.workloads import load_benchmark

# (config key, kind).  "native" exercises the interpreter's decode-time
# closures; "bb"/"trace" exercise the fragment step tables under two
# Table-1 rows (indirect linking, full traces).
CONFIGS = (
    ("native", "interp"),
    ("bb", "runtime"),
    ("trace", "runtime"),
)

OPTION_FACTORIES = {
    "bb": RuntimeOptions.with_indirect_links,
    "trace": RuntimeOptions.with_traces,
}

FULL_WORKLOADS = ("crafty", "vpr", "gzip", "mcf", "mgrid")
QUICK_WORKLOADS = ("crafty", "vpr")


def _run_once(image, config, kind, engine):
    """One timed run; returns (seconds, RunResult)."""
    process = Process(image)
    if kind == "interp":
        interp = Interpreter(
            process, CostModel(), mode="native", engine=engine
        )
        start = time.perf_counter()
        result = interp.run()
        elapsed = time.perf_counter() - start
    else:
        options = OPTION_FACTORIES[config]()
        options.engine = engine
        runtime = DynamoRIO(process, options=options, cost_model=CostModel())
        start = time.perf_counter()
        result = runtime.run()
        elapsed = time.perf_counter() - start
    return elapsed, result


def _measure(image, config, kind, engine, repeats):
    """Median host seconds over ``repeats`` fresh runs + one result."""
    times = []
    result = None
    for _ in range(repeats):
        elapsed, result = _run_once(image, config, kind, engine)
        times.append(elapsed)
    return statistics.median(times), result


def _simulated(result):
    return (result.cycles, result.instructions, result.output)


def run_sweep(workloads, scale, repeats):
    cells = []
    for name in workloads:
        image = load_benchmark(name, scale)
        for config, kind in CONFIGS:
            engines = ("closure", "tuple")
            timings = {}
            results = {}
            for engine in engines:
                timings[engine], results[engine] = _measure(
                    image, config, kind, engine, repeats
                )
            reference = _simulated(results["closure"])
            for engine in engines:
                if _simulated(results[engine]) != reference:
                    raise AssertionError(
                        "engines diverged on %s/%s: closure=%r %s=%r"
                        % (
                            name,
                            config,
                            reference[:2],
                            engine,
                            _simulated(results[engine])[:2],
                        )
                    )
            closure_s = timings["closure"]
            tuple_s = timings["tuple"]
            cell = {
                "workload": name,
                "config": config,
                "cycles": reference[0],
                "instructions": reference[1],
                "closure_s": round(closure_s, 4),
                "tuple_s": round(tuple_s, 4),
                "speedup": round(tuple_s / closure_s, 3),
            }
            cells.append(cell)
            print(
                "%-8s %-7s %12d cycles  closure %.3fs  tuple %.3fs  %.2fx"
                % (
                    name,
                    config,
                    reference[0],
                    closure_s,
                    tuple_s,
                    cell["speedup"],
                )
            )
    return cells


def geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def summarize(cells):
    per_config = {}
    for config, _kind in CONFIGS:
        speedups = [c["speedup"] for c in cells if c["config"] == config]
        per_config[config] = round(geomean(speedups), 3)
    return {
        "geomean_speedup": round(geomean([c["speedup"] for c in cells]), 3),
        "per_config": per_config,
    }


def check_against(cells, golden_path, scale):
    """Gate on simulated-result drift vs a previous run's JSON."""
    with open(golden_path) as f:
        golden = json.load(f)
    if golden.get("scale") != scale:
        print(
            "check: golden scale %r != run scale %r; nothing comparable"
            % (golden.get("scale"), scale),
            file=sys.stderr,
        )
        return ["scale mismatch: golden %r vs run %r"
                % (golden.get("scale"), scale)]
    golden_cells = {
        (c["workload"], c["config"]): c for c in golden["results"]
    }
    drift = []
    for cell in cells:
        key = (cell["workload"], cell["config"])
        want = golden_cells.get(key)
        if want is None:
            continue  # golden may come from a different sweep size
        for field in ("cycles", "instructions"):
            if cell[field] != want[field]:
                drift.append(
                    "%s/%s: %s %d != golden %d"
                    % (key[0], key[1], field, cell[field], want[field])
                )
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep, 1 repeat (CI smoke mode)",
    )
    parser.add_argument("--scale", default=None, help="workload scale")
    parser.add_argument(
        "--repeats", type=int, default=None, help="timed runs per cell"
    )
    parser.add_argument(
        "--output",
        default="BENCH_wallclock.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check",
        metavar="GOLDEN",
        help="fail if simulated cycles/instructions drift from GOLDEN",
    )
    parser.add_argument(
        "--commit",
        default=None,
        help="revision hash recorded in the report's meta block",
    )
    parser.add_argument(
        "--date",
        default=None,
        help="ISO date recorded in the report's meta block",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    scale = args.scale or ("test" if args.quick else "small")
    repeats = args.repeats or (1 if args.quick else 3)

    cells = run_sweep(workloads, scale, repeats)
    summary = summarize(cells)
    report = {
        "scale": scale,
        "repeats": repeats,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "results": cells,
        "summary": summary,
        "meta": {
            "commit": args.commit,
            "date": args.date,
        },
    }
    print(
        "geomean speedup: %.2fx  (%s)"
        % (
            summary["geomean_speedup"],
            "  ".join(
                "%s %.2fx" % (k, v) for k, v in summary["per_config"].items()
            ),
        )
    )

    if args.check:
        drift = check_against(cells, args.check, scale)
        if drift:
            for line in drift:
                print("DRIFT: " + line, file=sys.stderr)
            return 1
        print("simulated results match %s" % args.check)

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
