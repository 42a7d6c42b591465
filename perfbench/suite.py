"""Workloads, seeded draws, the single-program runner and its checks.

A workload is a fixed pool of SPEC-shaped programs at one scale, run
under one fixed set of runtime options.  The pool is split into
*strata*: groups of programs with a similar host cost and simulated
slowdown.  A draw takes one program from every stratum, so each seed
picks different programs while every draw keeps the same cost shape;
without that, which programs a seed happened to pick would swamp the
run-to-run spread of every end-to-end metric.

Every program run is checked against ``reference.json``: output bytes
and exit code against the native interpreter, simulated cycles and
instructions against the values pinned for (workload, program).  The
seed only chooses programs, so the pins hold for every seed.
"""

import hashlib
import json
import math
import os
import random
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.clients.combined import make_all_optimizations  # noqa: E402
from repro.core import DynamoRIO, RuntimeOptions  # noqa: E402
from repro.loader import Process  # noqa: E402
from repro.machine.interp import run_native  # noqa: E402
from repro.minicc import compile_source  # noqa: E402
from repro.workloads import benchmark  # noqa: E402
from repro.workloads.spec import SCALES  # noqa: E402

# code_cache_limit for churn, as a share of each program's unconstrained
# footprint.  At 0.4 vortex thrashes at 43x and takes most of any draw
# it is in; at 0.5 the largest slowdown in the pool (crafty, 6.8x) is
# within 2x of the next, and translation still outweighs execution.
CHURN_FRACTION = 0.5


class Workload:
    """One named workload: pool strata, scale and fixed options."""

    def __init__(self, name, scale, strata, configure):
        self.name = name
        self.scale = scale
        self.strata = strata
        self._configure = configure

    @property
    def pool(self):
        return [name for stratum in self.strata for name in stratum]

    def setup(self, program, pins):
        """Fresh ``(options, client)`` for one run of ``program``."""
        options = RuntimeOptions()
        client = self._configure(options, pins.get(program, {}))
        return options, client


def _steady(options, pin):
    return None


def _churn(options, pin):
    options.code_cache_limit = pin["limit"]
    options.cache_evict_policy = "fifo"
    return None


def _guarded(options, pin):
    options.shield = True
    options.guard_clients = True
    options.cache_consistency = True
    options.precise_interrupts = True
    return make_all_optimizations()


# Strata come from per-program guest kips (calibrated, see speed.py)
# and slowdown measured at the commit that added this benchmark:
# programs that share a stratum are alike in both; a program without a
# near twin is a stratum of its own and is in every draw.  Why each
# workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady",
            "small",
            (
                ("bzip2", "equake", "ammp", "apsi"),
                ("mcf", "applu", "swim", "gzip", "mgrid"),
                ("wupwise",),
                ("crafty",),
            ),
            _steady,
        ),
        Workload(
            "churn",
            "test",
            (
                ("crafty",),
                ("eon",),
                ("parser",),
                ("gcc",),
                ("perlbmk", "vortex"),
                ("gap", "twolf"),
            ),
            _churn,
        ),
        Workload(
            "guarded",
            "test",
            (
                ("eon",),
                ("perlbmk",),
                ("gap",),
                ("gcc",),
                ("parser", "vortex"),
            ),
            _guarded,
        ),
    )
}


def draw(workload, seed):
    """The programs ``seed`` draws from ``workload``, in run order."""
    rng = random.Random("%s:%d" % (workload.name, seed))
    picks = [rng.choice(stratum) for stratum in workload.strata]
    rng.shuffle(picks)
    return picks


def program_source(workload, program):
    return benchmark(program).source(SCALES[workload.scale])


def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def output_digest(output):
    return hashlib.sha256(output).hexdigest()


def run_program(workload, program, pins, process=None, tracer=None,
                probe=None):
    """One cold-cache run of ``program`` under ``workload``'s options.

    Host seconds cover constructing the runtime and running it; unless
    a loaded ``process`` is given, the program is compiled and loaded
    first, untimed.  With a ``tracer`` its wrappers are installed
    around the run and removed before this returns.  A ``probe``
    (context manager) is entered around exactly the timed region.
    """
    if process is None:
        process = Process(compile_source(program_source(workload, program)))
    options, client = workload.setup(program, pins)
    if tracer is not None:
        tracer.install(client)
    try:
        with probe if probe is not None else nullcontext():
            start = time.perf_counter()
            runtime = DynamoRIO(process, options=options, client=client)
            result = runtime.run()
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    chains = runtime.chains
    return {
        "program": program,
        "seconds": seconds,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "output_sha256": output_digest(result.output),
        "exit_code": result.exit_code,
        "events": {
            key: result.events[key]
            for key in (
                "bbs_built",
                "traces_built",
                "cache_fragment_evictions",
                "context_switches",
                "direct_links",
                "ibl_hits",
                "ibl_misses",
            )
        },
        "chains_built": chains.built if chains is not None else 0,
        "chains_dissolved": chains.dissolved if chains is not None else 0,
    }


def native_key(workload, program):
    return "%s/%s" % (program, workload.scale)


def check(workload, run, reference):
    """Mismatches of one run against the native reference and pins."""
    program = run["program"]
    native = reference["native"][native_key(workload, program)]
    pin = reference["pins"][workload.name][program]
    problems = []
    for field, want in (
        ("output_sha256", native["output_sha256"]),
        ("exit_code", native["exit_code"]),
        ("cycles", pin["cycles"]),
        ("instructions", pin["instructions"]),
    ):
        if run[field] != want:
            problems.append(
                "%s/%s: %s %r, expected %r"
                % (workload.name, program, field, run[field], want)
            )
    return problems


def slowdown(workload, run, reference):
    native = reference["native"][native_key(workload, run["program"])]
    return run["cycles"] / native["cycles"]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def footprint(image):
    """Unconstrained code-cache footprint: twice the peak bytes of the
    fuller unit, as ``benchmarks/cache_pressure.py`` probes it (a limit
    is split between the bb and trace units).  Repeated here so the
    benchmark depends on no other harness."""
    runtime = DynamoRIO(Process(image), options=RuntimeOptions())
    runtime.run()
    return 2 * max(
        cache.used()
        for thread in runtime.threads
        for cache in (thread.bb_cache, thread.trace_cache)
    )


def regenerate(path=REFERENCE_PATH, log=print):
    """Recompute the native reference and the per-workload pins."""
    native = {}
    pins = {}
    for workload in WORKLOADS.values():
        pins[workload.name] = {}
        for program in sorted(workload.pool):
            image = compile_source(program_source(workload, program))
            key = native_key(workload, program)
            if key not in native:
                result = run_native(Process(image))
                native[key] = {
                    "output_sha256": output_digest(result.output),
                    "exit_code": result.exit_code,
                    "cycles": result.cycles,
                    "instructions": result.instructions,
                }
            pin = {}
            if workload.name == "churn":
                pin["limit"] = max(200, int(footprint(image) * CHURN_FRACTION))
            run = run_program(
                workload, program, {program: pin}, process=Process(image)
            )
            if (run["output_sha256"], run["exit_code"]) != (
                native[key]["output_sha256"], native[key]["exit_code"]
            ):
                raise RuntimeError(
                    "%s/%s: output differs from native"
                    % (workload.name, program)
                )
            pin["cycles"] = run["cycles"]
            pin["instructions"] = run["instructions"]
            pins[workload.name][program] = pin
            log(
                "%-8s %-8s %10d cycles  %.2fx native"
                % (workload.name, program, run["cycles"],
                   run["cycles"] / native[key]["cycles"])
            )
    with open(path, "w") as f:
        json.dump({"native": native, "pins": pins}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
