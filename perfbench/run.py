#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the runtime.

Runs one workload (see ``suite.WORKLOADS``) on the programs a seed
draws from its pool, each program in a fresh interpreter process, one
at a time, with a cold code cache.  Passes over the draw repeat until
``--seconds`` would be exceeded (at least one pass).  Every run is
checked against ``reference.json``; any mismatch or crash makes the
command exit 1.

Usage::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --regenerate    # rewrite reference.json

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no wrapper installed;
with ``--trace 1`` each program also runs once more under the
:mod:`layers` tracer and the metrics are the per-layer ones.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import suite
from layers import Tracer
from speed import SpeedProbe
from repro.loader import Process
from repro.minicc import compile_source

# Compile-and-load passes over the draw; setup_s is their median.
SETUP_REPEATS = 5
# Per program run; keeps the whole command inside its time limit.
CHILD_TIMEOUT_S = 120
SPANS_DIR = os.path.join(suite.HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("guest_kips", "kips"),
    ("sim_slowdown", "x"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("minicc.compile_s", "s"),
    ("loader.load_s", "s"),
    ("bb_builder.calls", "count"),
    ("bb_builder.self_s", "s"),
    ("emit.calls", "count"),
    ("emit.self_s", "s"),
    ("closures.compile_s", "s"),
    ("translate.build_s", "s"),
    ("trace_builder.calls", "count"),
    ("trace_builder.self_s", "s"),
    ("code_cache.allocs", "count"),
    ("code_cache.removes", "count"),
    ("code_cache.self_s", "s"),
    ("code_cache.fragment_evictions", "count"),
    ("code_cache.retranslations", "count"),
    ("runtime.self_s", "s"),
    ("runtime.context_switches", "count"),
    ("runtime.direct_links", "count"),
    ("execute.calls", "count"),
    ("execute.self_s", "s"),
    ("execute.instrs_per_call", "instrs"),
    ("memory.reads", "count"),
    ("memory.writes", "count"),
    ("memory.self_s", "s"),
    ("chains.built", "count"),
    ("chains.dissolved", "count"),
    ("ibl.hits", "count"),
    ("ibl.hit_ratio", "ratio"),
    ("clients.bb_hook_calls", "count"),
    ("clients.bb_hook_s", "s"),
    ("clients.trace_hook_calls", "count"),
    ("clients.trace_hook_s", "s"),
    ("resilience.guard_checks", "count"),
    ("resilience.self_s", "s"),
    ("trace.overhead", "x"),
)

# Layers whose self times split the traced host time, for the report.
SHARES = (
    ("runtime", ("runtime",)),
    ("execute", ("execute",)),
    ("memory", ()),
    ("bb_builder", ("bb_builder",)),
    ("emit", ("emit",)),
    ("closures", ("closures",)),
    ("translate", ("translate",)),
    ("trace_builder", ("trace_builder",)),
    ("code_cache", ("code_cache.allocate", "code_cache.remove",
                    "code_cache.flush")),
    ("clients", ("clients.bb_hook", "clients.trace_hook")),
    ("resilience", ("resilience.check", "resilience.deliver")),
)


# ------------------------------------------------------------------ child


def child_main(workload_name, program, traced, run_id, spans_path):
    """Run one program; print its result as one JSON line."""
    workload = suite.WORKLOADS[workload_name]
    reference = suite.load_reference()
    pins = reference["pins"][workload.name]
    probe = SpeedProbe()
    try:
        if traced:
            tracer = Tracer(run_id)
            source = suite.program_source(workload, program)
            with tracer.span("minicc.compile"):
                image = compile_source(source)
            with tracer.span("loader.load"):
                process = Process(image)
            run = suite.run_program(
                workload, program, pins, process=process, tracer=tracer,
                probe=probe,
            )
            run["spans"] = tracer.layers()
            run["memory"] = tracer.memory
            if spans_path:
                tracer.write(spans_path)
        else:
            run = suite.run_program(workload, program, pins, probe=probe)
        run["host_s"] = probe.calibrated(run["seconds"])
        run["problems"] = suite.check(workload, run, reference)
    except Exception as exc:  # a crashing run is a failed run
        run = {"program": program, "problems": ["raised %r" % exc]}
    run["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(run))


def run_child(workload, program, traced, run_id):
    """One program run in a fresh interpreter; returns its result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload.name, "--program", program,
        "--trace", "1" if traced else "0", "--run-id", run_id,
    ]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans", os.path.join(
            SPANS_DIR, "%s-%s.spans.jsonl" % (workload.name, program))]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"program": program,
                "problems": ["timed out after %ds" % CHILD_TIMEOUT_S]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"program": program, "problems": [
            "child exited %d: %s" % (done.returncode, done.stderr[-400:])]}
    return json.loads(lines[-1])


# ------------------------------------------------------------------ parent


def measure_setup(workload, programs):
    """Median calibrated seconds to compile and load the drawn programs."""
    sources = [suite.program_source(workload, p) for p in programs]
    times = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            start = time.perf_counter()
            for source in sources:
                Process(compile_source(source))
            seconds = time.perf_counter() - start
        times.append(probe.calibrated(seconds))
    return statistics.median(times)


def run_passes(workload, seed, programs, seconds, traced):
    """Passes over the draw until another would overrun ``seconds``.

    Returns ``{program: [untraced run, ...]}`` and, when ``traced``, the
    same for runs under the tracer.
    """
    plain = {p: [] for p in programs}
    under_trace = {p: [] for p in programs}
    start = time.monotonic()
    passes = 0
    while True:
        pass_start = time.monotonic()
        for program in programs:
            run_id = "%s/%d/%d/%s" % (workload.name, seed, passes, program)
            plain[program].append(run_child(workload, program, False, run_id))
            if traced:
                under_trace[program].append(
                    run_child(workload, program, True, run_id))
        passes += 1
        now = time.monotonic()
        if now - start + (now - pass_start) > seconds:
            return plain, under_trace


def median_run(runs):
    """The run with the median host seconds (the lower one of two)."""
    ordered = sorted(runs, key=lambda r: r["host_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(workload, programs, plain, setup_s, reference):
    first = [plain[p][0] for p in programs]
    instructions = sum(r["instructions"] for r in first)
    seconds = sum(median_run(plain[p])["host_s"] for p in programs)
    return {
        "setup_s": setup_s,
        "guest_kips": instructions / seconds / 1000.0,
        "sim_slowdown": suite.geomean(
            [suite.slowdown(workload, r, reference) for r in first]),
        "peak_rss_mb": max(
            r["peak_rss_mb"] for runs in plain.values() for r in runs),
    }


def per_layer(programs, plain, under_trace):
    """Per-layer metrics summed over the draw (one median run each)."""
    picked = [median_run(under_trace[p]) for p in programs]
    spans = {}
    for run in picked:
        for name, (calls, ns) in run["spans"].items():
            entry = spans.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += ns

    def calls(name):
        return spans.get(name, (0, 0))[0]

    def self_s(*names):
        return sum(spans.get(n, (0, 0))[1] for n in names) / 1e9

    def total(key):
        return sum(r["events"][key] for r in picked)

    reads = sum(r["memory"][0] for r in picked)
    writes = sum(r["memory"][1] for r in picked)
    memory_s = sum(r["memory"][2] for r in picked) / 1e9
    instructions = sum(r["instructions"] for r in picked)
    lookups = total("ibl_hits") + total("ibl_misses")
    traced_s = sum(r["host_s"] for r in picked)
    plain_s = sum(median_run(plain[p])["host_s"] for p in programs)
    metrics = {
        "minicc.compile_s": self_s("minicc.compile"),
        "loader.load_s": self_s("loader.load"),
        "bb_builder.calls": calls("bb_builder"),
        "bb_builder.self_s": self_s("bb_builder"),
        "emit.calls": calls("emit"),
        "emit.self_s": self_s("emit"),
        "closures.compile_s": self_s("closures"),
        "translate.build_s": self_s("translate"),
        "trace_builder.calls": calls("trace_builder"),
        "trace_builder.self_s": self_s("trace_builder"),
        "code_cache.allocs": calls("code_cache.allocate"),
        "code_cache.removes": calls("code_cache.remove"),
        "code_cache.self_s": self_s(
            "code_cache.allocate", "code_cache.remove", "code_cache.flush"),
        "code_cache.fragment_evictions": total("cache_fragment_evictions"),
        "code_cache.retranslations": (
            total("bbs_built") + total("traces_built")),
        "runtime.self_s": self_s("runtime"),
        "runtime.context_switches": total("context_switches"),
        "runtime.direct_links": total("direct_links"),
        "execute.calls": calls("execute"),
        "execute.self_s": self_s("execute"),
        "execute.instrs_per_call": (
            instructions / calls("execute") if calls("execute") else 0.0),
        "memory.reads": reads,
        "memory.writes": writes,
        "memory.self_s": memory_s,
        "chains.built": sum(r["chains_built"] for r in picked),
        "chains.dissolved": sum(r["chains_dissolved"] for r in picked),
        "ibl.hits": total("ibl_hits"),
        "ibl.hit_ratio": total("ibl_hits") / lookups if lookups else 0.0,
        "clients.bb_hook_calls": calls("clients.bb_hook"),
        "clients.bb_hook_s": self_s("clients.bb_hook"),
        "clients.trace_hook_calls": calls("clients.trace_hook"),
        "clients.trace_hook_s": self_s("clients.trace_hook"),
        "resilience.guard_checks": calls("resilience.check"),
        "resilience.self_s": self_s("resilience.check", "resilience.deliver"),
        "trace.overhead": traced_s / plain_s,
    }
    shares = {
        layer: (memory_s if not names else self_s(*names))
        for layer, names in SHARES
    }
    return metrics, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite reference.json from native runs")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--program", help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.regenerate:
        suite.regenerate()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.child:
        child_main(args.workload, args.program, args.trace == 1,
                   args.run_id, args.spans)
        return 0

    workload = suite.WORKLOADS[args.workload]
    reference = suite.load_reference()
    programs = suite.draw(workload, args.seed)
    print("%s seed %d draws %s" % (workload.name, args.seed,
                                   " ".join(programs)))
    setup_s = measure_setup(workload, programs)
    plain, under_trace = run_passes(
        workload, args.seed, programs, args.seconds, args.trace == 1)

    runs = [r for group in (plain, under_trace)
            for rs in group.values() for r in rs]
    problems = [p for r in runs for p in r["problems"]]
    for problem in problems:
        print("MISMATCH " + problem, file=sys.stderr)
    failed = sum(1 for r in runs if r["problems"])
    correct = failed == 0

    for program in programs:
        done = [r for r in plain[program] if "host_s" in r]
        if done:
            print("  %-8s %2d runs  median %.4f s (%.4f s calibrated)"
                  % (program, len(done),
                     statistics.median(r["seconds"] for r in done),
                     statistics.median(r["host_s"] for r in done)))

    metrics = {}
    if correct and args.trace == 0:
        values = end_to_end(workload, programs, plain, setup_s, reference)
        units = END_TO_END
    elif correct:
        values, shares = per_layer(programs, plain, under_trace)
        units = PER_LAYER
        host = sum(shares.values())
        for layer, seconds in shares.items():
            print("  %-14s %8.3f s  %5.1f%%"
                  % (layer, seconds, 100.0 * seconds / host))
    if correct:
        for name, unit in units:
            metrics[name] = {"value": values[name], "unit": unit}
            print("  %-30s %14.6g %s" % (name, values[name], unit))
    print("  %-30s %14.6g ratio  (%d of %d program runs)"
          % ("failed_frac", failed / len(runs), failed, len(runs)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
