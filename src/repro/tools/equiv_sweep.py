"""drequiv sweep: every workload x client under full verification.

Usage::

    python -m repro.tools.equiv_sweep                 # whole suite
    python -m repro.tools.equiv_sweep --benchmarks mgrid,mcf --clients all

Each cell runs a benchmark under ``verify_fragments`` +
``verify_equivalence`` and asserts three things:

* the run completes (no VerificationError escapes — a clean client must
  never trip the checker);
* output and exit code match a native run of the same image;
* zero error-severity diagnostics were recorded (warnings — e.g. the
  custom-trace client's assumed return continuations — are reported but
  do not fail the sweep);

and the default sweep's cells match their golden digests.

Exit status is non-zero on any violation.  This is the clean-run half of
the drequiv contract (no false positives); the chaos harness covers the
other half (no false negatives on seeded faults).
"""

import argparse
import sys

from repro.core import RuntimeOptions
from repro.tools import matrix
from repro.tools.run import make_client
from repro.workloads import all_benchmarks, load_benchmark

DEFAULT_CLIENTS = ("null", "rlr", "inc2add", "ctrace", "ibdisp", "all",
                   "inscount-inline")

def equiv_cell(section, name, image, client_name):
    label = "%-10s %s" % (name, client_name)
    return matrix.Cell(
        label,
        image,
        RuntimeOptions(verify_fragments=True, verify_equivalence=True),
        client=lambda: make_client(client_name, image),
        oracles=(matrix.verifier_clean,),
        golden=matrix.golden_key(section, label),
    )


def benchmark_names(args):
    if args.benchmarks:
        return args.benchmarks.split(",")
    return [b.name for b in all_benchmarks()]


def cells(args):
    """The sweep selected by ``args``, in run order."""
    section = "equiv_sweep --scale %s" % args.scale
    result = []
    for name in benchmark_names(args):
        image = load_benchmark(name, args.scale)
        result.extend(
            equiv_cell(section, name, image, client_name)
            for client_name in args.clients.split(",")
        )
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", help="comma-separated subset (default: whole suite)"
    )
    parser.add_argument(
        "--clients", default=",".join(DEFAULT_CLIENTS),
        help="comma-separated client list",
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument("--verbose", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    summary = (
        "equiv sweep: {runs} runs, {failures} failures (%d benchmarks, "
        "{seconds:.1f}s)" % len(benchmark_names(args))
    )
    return matrix.run(cells(args), summary, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
