"""One runner for the transparency sweeps (chaos, detach_diff, equiv_sweep).

A sweep is a list of :class:`Cell`.  :func:`run` computes the native
reference once per image, runs every cell with crash capture, checks
output and exit code against native, applies the cell's oracles —
plain ``(runtime, result) -> problems`` functions, an empty list
meaning satisfied — and checks agreement groups: passing cells that
share an ``agree`` key must give equal projections (how ``chaos
--runtime`` holds ladder events identical across engines).  Shared
oracles: :func:`replay_exact`, :func:`events_fired`,
:func:`stats_equal` and :func:`verifier_clean`.  Failures print as
``FAIL <label>: <problems>``, passing cells as ``ok   <label>: ...``
under ``verbose``; one summary line closes the sweep.
"""

import time
from collections import namedtuple

from repro.core import DynamoRIO
from repro.loader import Process
from repro.machine.interp import run_native
from repro.observe.events import replay_stats

# ``client``: zero-argument factory, called once per run.
# ``setup(runtime)``: runs between construction and ``run()``.
# ``agree``: ``(key, project)``, ``project(runtime, result)``.
Cell = namedtuple(
    "Cell", "label image options client setup oracles agree",
    defaults=(None, None, (), None),
)


def replay_exact(runtime, result):
    if replay_stats(runtime.observer.events()) != runtime.stats.as_dict():
        return ["event stream does not replay onto live stats"]
    return []


def events_fired(*kinds):
    def oracle(runtime, result):
        counts = runtime.observer.counts
        return [
            "expected event %r never fired" % k for k in kinds if not counts.get(k)
        ]
    return oracle


def stats_equal(**expected):
    def oracle(runtime, result):
        return [
            "%s is %d, expected %d" % (name, getattr(runtime.stats, name), value)
            for name, value in expected.items()
            if getattr(runtime.stats, name) != value
        ]
    return oracle


def verifier_clean(runtime, result):
    errors = [d for d in runtime.verifier_diagnostics if d.is_error]
    if errors:
        return ["%d verifier errors; first:\n%s" % (len(errors), errors[0].format())]
    return []


def run_cell(cell, native):
    """Run one cell; returns ``(problems, runtime, result)``."""
    try:
        runtime = DynamoRIO(
            Process(cell.image),
            options=cell.options,
            client=cell.client() if cell.client is not None else None,
        )
        if cell.setup is not None:
            cell.setup(runtime)
        result = runtime.run()
    except Exception as exc:  # contract: nothing escapes the runtime
        return ["crashed: %s: %s" % (type(exc).__name__, exc)], None, None
    problems = []
    if result.output != native.output:
        problems.append(
            "output diverged (%r != native %r)"
            % (result.output[:32], native.output[:32])
        )
    if result.exit_code != native.exit_code:
        problems.append(
            "exit code diverged (%s != native %s)"
            % (result.exit_code, native.exit_code)
        )
    for oracle in cell.oracles:
        problems.extend(oracle(runtime, result))
    return problems, runtime, result


def run(cells, summary, verbose=False):
    """Run ``cells`` and print the tally, ``summary`` formatted with
    ``runs``, ``failures`` and ``seconds``; returns the exit status."""
    natives = {}
    first_seen = {}  # agreement key -> (label, projection)
    failures = 0
    start = time.perf_counter()
    for cell in cells:
        native = natives.get(id(cell.image))
        if native is None:
            native = natives[id(cell.image)] = run_native(Process(cell.image))
        problems, runtime, result = run_cell(cell, native)
        if not problems and cell.agree is not None:
            key, project = cell.agree
            value = project(runtime, result)
            first_label, first_value = first_seen.setdefault(
                key, (cell.label, value)
            )
            if value != first_value:
                problems.append(
                    "%s disagrees with %s" % (project.__name__, first_label)
                )
        if problems:
            failures += 1
            print("FAIL %s: %s" % (cell.label, "; ".join(problems)))
        elif verbose:
            print("ok   %s: ok (%d cycles)" % (cell.label, result.cycles))
    print(summary.format(
        runs=len(cells), failures=failures, seconds=time.perf_counter() - start
    ))
    return 1 if failures else 0
