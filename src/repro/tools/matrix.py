"""One runner for the transparency sweeps (chaos, detach_diff, equiv_sweep).

A sweep is a list of :class:`Cell`.  :func:`run` computes the native
reference once per image, runs every cell with crash capture, checks
output and exit code against native, and applies the cell's oracles —
plain ``(runtime, result) -> problems`` functions, an empty list
meaning satisfied.  Shared oracles: :func:`replay_exact`,
:func:`events_fired`, :func:`stats_equal`, :func:`verifier_clean` and
:func:`golden_digest`.  A cell whose ``golden`` key has an entry in the
checked-in ``GOLDENS.json`` is also held to that entry's
:func:`digest`.  Failures print as ``FAIL <label>: <problems>``,
passing cells as ``ok   <label>: ...`` under ``verbose``; one summary
line closes the sweep.
"""

import hashlib
import json
import os
import time
from collections import namedtuple

from repro.core import DynamoRIO
from repro.loader import Process
from repro.machine.interp import run_native
from repro.observe.events import replay_stats

# ``client``: zero-argument factory, called once per run.
# ``setup(runtime)``: runs between construction and ``run()``.
# ``golden``: the cell's key in ``GOLDENS.json`` (see golden_key).
Cell = namedtuple(
    "Cell", "label image options client setup oracles golden",
    defaults=(None, None, (), None),
)

# Golden digests of simulated results, one entry per golden key;
# regenerate with ``PYTHONPATH=src python -m tests.goldens``.
GOLDENS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "GOLDENS.json"
))


def load_goldens():
    with open(GOLDENS) as f:
        return json.load(f)


def golden_key(section, label):
    """``section`` names the sweep and every argument that changes a
    cell's run without showing in its label, so a run with other
    arguments never meets a golden made for the preset."""
    return "%s: %s" % (section, " ".join(label.split()))


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def digest(runtime, result):
    """Cycles, instructions and hashes of the output and of the event
    counts plus, when tracing is on, the recorded event stream."""
    events = repr(sorted(result.events.items()))
    if runtime.observer is not None:
        events += repr([
            (e.kind, e.tag, sorted(e.data.items()))
            for e in runtime.observer.events()
        ])
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "output": _sha(result.output),
        "events": _sha(events.encode()),
    }


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


def golden_digest(expected):
    def oracle(runtime, result):
        actual = digest(runtime, result)
        return [
            "digest %s is %r, golden %r" % (name, actual[name], expected[name])
            for name in sorted(expected)
            if actual[name] != expected[name]
        ]
    return oracle


def verifier_clean(runtime, result):
    errors = [d for d in runtime.verifier_diagnostics if d.is_error]
    if errors:
        return ["%d verifier errors; first:\n%s" % (len(errors), errors[0].format())]
    return []


def run_cell(cell, native, goldens=None):
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
    oracles = cell.oracles
    if goldens is not None and cell.golden in goldens:
        oracles += (golden_digest(goldens[cell.golden]),)
    for oracle in oracles:
        problems.extend(oracle(runtime, result))
    return problems, runtime, result


def run(cells, summary, verbose=False, goldens=None):
    """Run ``cells`` and print the tally, ``summary`` formatted with
    ``runs``, ``failures`` and ``seconds``; returns the exit status.
    Cells are checked against ``goldens``, by default the checked-in
    ones."""
    if goldens is None:
        goldens = load_goldens()
    natives = {}
    failures = 0
    start = time.perf_counter()
    for cell in cells:
        native = natives.get(id(cell.image))
        if native is None:
            native = natives[id(cell.image)] = run_native(Process(cell.image))
        problems, _, result = run_cell(cell, native, goldens)
        if problems:
            failures += 1
            print("FAIL %s: %s" % (cell.label, "; ".join(problems)))
        elif verbose:
            print("ok   %s: ok (%d cycles)" % (cell.label, result.cycles))
    print(summary.format(
        runs=len(cells), failures=failures, seconds=time.perf_counter() - start
    ))
    return 1 if failures else 0
