"""Golden digests: the checked-in simulated results of the sweeps and
of the determinism tests.

``GOLDENS.json`` at the repository root maps each golden key
(:func:`repro.tools.matrix.golden_key`) to the
:func:`repro.tools.matrix.digest` of its run.  The sweep CLIs check
their cells against it on every run, the tests theirs.  After a change
that means to alter simulated results, regenerate it with::

    PYTHONPATH=src python -m tests.goldens

which reruns every golden-checked cell and test run (a few minutes),
refuses to write if any of them fails its other oracles, and prints
the cell count per section.
"""

import json
from collections import Counter

from repro.loader import Process
from repro.machine.interp import run_native
from repro.tools import chaos, detach_diff, equiv_sweep, matrix

from tests.core import test_closure_determinism

# The golden-checked sweep presets, as CI runs them.
PRESETS = {
    "chaos small": (chaos, "--seeds 4 --matrix small"),
    "runtime small": (chaos, "--runtime --seeds 3 --matrix small"),
    "detach_diff": (detach_diff, ""),
    "equiv_sweep": (equiv_sweep, ""),
}


def preset_cells(preset):
    module, argv = PRESETS[preset]
    return module.cells(module.parse_args(argv.split()))


def _record(goldens, key, runtime, result):
    if key in goldens:
        raise SystemExit("two runs share the golden key %r" % key)
    goldens[key] = matrix.digest(runtime, result)


def capture():
    """Run every golden-checked cell and test run; returns
    ``(goldens, runs per section)``."""
    goldens = {}
    counts = Counter()
    for preset in PRESETS:
        natives = {}
        for cell in preset_cells(preset):
            native = natives.get(id(cell.image))
            if native is None:
                native = natives[id(cell.image)] = run_native(
                    Process(cell.image))
            problems, runtime, result = matrix.run_cell(cell, native)
            if problems:
                raise SystemExit(
                    "FAIL %s: %s" % (cell.label, "; ".join(problems)))
            _record(goldens, cell.golden, runtime, result)
            counts[preset] += 1
    for key in test_closure_determinism.GOLDEN_RUNS:
        _record(goldens, key, *test_closure_determinism.golden_run(key))
        counts["determinism"] += 1
    return goldens, counts


def main():
    goldens, counts = capture()
    with open(matrix.GOLDENS, "w") as f:
        f.write("{\n")
        f.write(",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(goldens[key], sort_keys=True))
            for key in sorted(goldens)
        ))
        f.write("\n}\n")
    for section, count in sorted(counts.items()):
        print("%-14s %4d runs" % (section, count))
    print("%d golden entries written to %s" % (len(goldens), matrix.GOLDENS))


if __name__ == "__main__":
    main()
