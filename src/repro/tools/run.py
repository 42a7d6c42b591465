"""Compile and run MiniC programs, natively and under the runtime.

Usage::

    python -m repro.tools.run program.mc
    python -m repro.tools.run program.mc --client all --stats
    python -m repro.tools.run --benchmark mgrid --client rlr
"""

import argparse

from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel, Family
from repro.machine.interp import run_native

CLIENTS = {
    "none": lambda: None,
    "null": lambda: __import__("repro.clients", fromlist=["NullClient"]).NullClient(),
    "rlr": lambda: __import__(
        "repro.clients", fromlist=["RedundantLoadRemoval"]
    ).RedundantLoadRemoval(),
    "inc2add": lambda: __import__(
        "repro.clients", fromlist=["StrengthReduction"]
    ).StrengthReduction(),
    "ibdisp": lambda: __import__(
        "repro.clients", fromlist=["IndirectBranchDispatch"]
    ).IndirectBranchDispatch(),
    "ctrace": lambda: __import__(
        "repro.clients", fromlist=["CustomTraces"]
    ).CustomTraces(),
    "all": lambda: __import__(
        "repro.clients", fromlist=["make_all_optimizations"]
    ).make_all_optimizations(),
    "inscount": lambda: __import__(
        "repro.clients", fromlist=["InstructionCounter"]
    ).InstructionCounter(),
    "inscount-inline": lambda: __import__(
        "repro.clients", fromlist=["InlineInstructionCounter"]
    ).InlineInstructionCounter(),
    "shepherd": lambda: None,  # needs the image; see make_client
}


def make_client(name, image):
    """A fresh client by CLI name; program shepherding needs the image."""
    if name == "shepherd":
        from repro.clients import ProgramShepherding

        return ProgramShepherding(image=image)
    return CLIENTS[name]()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", help="run a suite benchmark instead")
    parser.add_argument("--scale", default="test")
    parser.add_argument("--client", default="none", choices=sorted(CLIENTS))
    parser.add_argument(
        "--family", default="p4", choices=["p3", "p4"], help="processor model"
    )
    parser.add_argument("--native-only", action="store_true")
    parser.add_argument("--stats", action="store_true", help="dump runtime events")
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the runtime run with cProfile; write pstats dump "
        "to FILE ('-' prints the top entries instead)",
    )
    args = parser.parse_args(argv)

    if args.benchmark:
        from repro.workloads import load_benchmark

        image = load_benchmark(args.benchmark, args.scale)
    elif args.source:
        from repro.minicc import compile_source

        with open(args.source) as f:
            image = compile_source(f.read())
    else:
        parser.error("provide a source file or --benchmark")

    family = Family.PENTIUM_IV if args.family == "p4" else Family.PENTIUM_III
    native = run_native(Process(image), cost_model=CostModel(family))
    print(
        "native: %d cycles, %d instructions, exit=%s"
        % (native.cycles, native.instructions, native.exit_code)
    )
    print("output: %s" % native.output.hex(" "))
    if args.native_only:
        return

    runtime = DynamoRIO(
        Process(image),
        options=RuntimeOptions.with_traces(),
        client=make_client(args.client, image),
        cost_model=CostModel(family),
    )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = runtime.run()
        profiler.disable()
        if args.profile == "-":
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        else:
            profiler.dump_stats(args.profile)
            print("profile written to %s" % args.profile)
    else:
        result = runtime.run()
    status = "TRANSPARENT" if result.output == native.output else "DIVERGED"
    print(
        "runtime[%s]: %d cycles (%.3fx native) — %s"
        % (args.client, result.cycles, result.cycles / native.cycles, status)
    )
    if args.stats:
        for key in sorted(result.events):
            if result.events[key]:
                print("  %-24s %d" % (key, result.events[key]))
    log = getattr(runtime, "client_log", None)
    if log:
        print("client log:")
        for line in log:
            print("  " + line)


if __name__ == "__main__":
    main()
