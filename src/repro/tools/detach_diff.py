"""drdetach differential: detach mid-run, finish natively, diff outputs.

Usage::

    python -m repro.tools.detach_diff
    python -m repro.tools.detach_diff --benchmarks gzip --modes detach

Each cell runs a benchmark under ``precise_interrupts`` with a client
that clean-calls every block and detaches at the k-th dynamic call —
mid-fragment, from inside cache execution.  The contract:

* the native continuation's output and exit code are byte-identical to
  a run that was *never* attached;
* ``detach`` mode stays native to program exit; ``reattach`` mode
  resumes translated execution after a native excursion and must also
  re-attach successfully (fragments rebuilt, stats replay-exact);
* the ``signal`` workload variant detaches with an alarm pending, so
  the deadline must carry across the transition and deliver natively;
* the ``shield`` cells detach via the drshield escalation ladder
  instead of a client call: every basic-block build faults, so the
  ladder burns its retry and flush rungs on the very first block and
  must fail over to native — still byte-identical.

Every cell of the default differential also matches its golden digest.

Exit status is non-zero if any cell diverges.
"""

import argparse
import sys

from repro.api.client import Client
from repro.api.dr import dr_detach, dr_insert_clean_call
from repro.core import RuntimeOptions
from repro.resilience.faultinject import RuntimeFaultPlan
from repro.tools import matrix
from repro.tools.chaos import workload_images
from repro.workloads import load_benchmark

MODES = ("detach", "reattach")
DEFAULT_BENCHMARKS = ("gzip", "mcf")


class DetachClient(Client):
    """Clean-calls every block; the k-th dynamic call detaches."""

    def __init__(self, at, reattach_after=None):
        super().__init__()
        self.at = at
        self.reattach_after = reattach_after
        self.calls = 0

    def _tick(self, context):
        self.calls += 1
        if self.calls == self.at:
            dr_detach(self, reattach_after=self.reattach_after)

    def basic_block(self, context, tag, ilist):
        first = next(iter(ilist), None)
        dr_insert_clean_call(ilist, first, self._tick)


def detach_options(**overrides):
    settings = dict(
        chain_threshold=3,
        precise_interrupts=True,
        trace_events=True,
        trace_buffer=None,
    )
    settings.update(overrides)
    return RuntimeOptions(**settings)


def ended_detached(runtime, result):
    return [] if runtime.detached else ["run ended attached"]


def detach_cell(section, name, image, mode, at, reattach_after):
    """A client detaches at its ``at``-th clean call, mid-fragment."""
    if mode == "reattach":
        oracles = (matrix.stats_equal(detaches=1, reattaches=1), matrix.replay_exact)
    else:
        oracles = (matrix.stats_equal(detaches=1), ended_detached)
        reattach_after = None
    label = "%-8s %s" % (name, mode)
    return matrix.Cell(
        label,
        image,
        detach_options(),
        client=lambda: DetachClient(at, reattach_after=reattach_after),
        oracles=oracles,
        golden=matrix.golden_key(section, label),
    )


def shield_cell(section, image):
    """Shield-triggered detach: no client at all — a runtime fault plan
    makes every basic-block build raise, so one ``_guarded_build``
    climbs retry → flush → detach and the program finishes natively."""

    def arm(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(
            "runtime_raise:bb_build", 0, start=1, period=1
        )

    label = "%-8s %s" % ("signal", "shield")
    return matrix.Cell(
        label,
        image,
        detach_options(shield=True),
        setup=arm,
        oracles=(ended_detached, matrix.replay_exact,
                 matrix.stats_equal(detaches=1, shield_faults=3)),
        golden=matrix.golden_key(section, label),
    )


def cells(args):
    """The differential selected by ``args``, in run order."""
    programs = [
        (name, load_benchmark(name, args.scale), args.at, args.reattach_after)
        for name in args.benchmarks.split(",")
    ]
    # Pending-signal variant: the chaos signal workload arms alarms, so
    # detaching early leaves a deadline pending across the transition.
    # Small program — detach at the third call, short native window.
    signal_image = workload_images()["signal"]
    programs.append(("signal", signal_image, 3, 300))
    # The arguments that change a run without showing in its label.
    section = "detach_diff --scale %s --at %d --reattach-after %d" % (
        args.scale, args.at, args.reattach_after
    )
    result = [
        detach_cell(section, name, image, mode, at, reattach_after)
        for name, image, at, reattach_after in programs
        for mode in args.modes.split(",")
    ]
    # Shield-triggered detach: the failsafe ladder, not a client, pulls
    # the plug — same native-identity contract as every other cell.
    result.append(shield_cell(section, signal_image))
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark subset",
    )
    parser.add_argument("--scale", default="test")
    parser.add_argument(
        "--modes", default=",".join(MODES), help="detach,reattach"
    )
    parser.add_argument(
        "--at", type=int, default=250,
        help="detach at this dynamic clean-call count",
    )
    parser.add_argument(
        "--reattach-after", type=int, default=5000,
        help="native instructions before re-attach",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    return matrix.run(
        cells(args),
        "detach diff: {runs} runs, {failures} failures ({seconds:.1f}s)",
        verbose=args.verbose,
    )


if __name__ == "__main__":
    sys.exit(main())
