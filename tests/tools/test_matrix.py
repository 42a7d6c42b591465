"""The shared sweep runner and the cell lists of the sweeps built on it."""

import hashlib

import pytest

from repro.api.client import Client
from repro.api.dr import dr_insert_clean_call
from repro.core import RuntimeOptions
from repro.loader import Process
from repro.minicc import compile_source
from repro.tools import chaos, detach_diff, equiv_sweep, matrix
from repro.tools.matrix import Cell

from tests import goldens

# Each CI sweep's cells, pinned without running them: count and the
# leading hex digits of sha256("\n".join(sorted labels)).
PRESETS = {
    "chaos small": (chaos, "--seeds 4 --matrix small", 180, "90a25dac9cf5"),
    "chaos full": (chaos, "--seeds 4 --matrix full", 420, "8bbbe613f1ba"),
    "runtime small": (chaos, "--runtime --seeds 3 --matrix small", 48, "e32750f3fb22"),
    "runtime full": (chaos, "--runtime --seeds 3 --matrix full", 72, "342b23cb7888"),
    "detach_diff": (detach_diff, "", 7, "308bdf43bc54"),
    "equiv_sweep": (equiv_sweep, "", 154, "38584a2ca39f"),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_cell_list_is_pinned(preset):
    module, argv, count, digest = PRESETS[preset]
    labels = sorted(c.label for c in module.cells(module.parse_args(argv.split())))
    assert len(labels) == count
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest()[:12] == digest


def test_every_golden_checked_run_has_exactly_one_golden():
    """Every cell of every golden-checked preset, and every determinism
    test run, owns one entry of GOLDENS.json; no entry is orphaned."""
    keys = [
        cell.golden
        for preset in goldens.PRESETS
        for cell in goldens.preset_cells(preset)
    ]
    keys += list(goldens.test_closure_determinism.GOLDEN_RUNS)
    assert None not in keys
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(matrix.load_goldens())


# ------------------------------------------------------- negative controls

@pytest.fixture(scope="module")
def tiny_image():
    return compile_source("int main() { print(42); return 0; }")


class PerturbingClient(Client):
    """A buggy client: every block appends a byte to the program output."""

    def basic_block(self, context, tag, ilist):
        dr_insert_clean_call(
            ilist, ilist.first(), lambda ctx: ctx.runtime.system.output.append(33)
        )


class RaisingClient(Client):
    def basic_block(self, context, tag, ilist):
        raise RuntimeError("client bug")


def _cell(image, label, **kwargs):
    options = RuntimeOptions(trace_events=True, trace_buffer=None)
    return Cell(label, image, options, **kwargs)


def _run(cells, capsys, goldens=None):
    rc = matrix.run(
        cells, "{runs} runs, {failures} failures", verbose=True, goldens=goldens
    )
    return rc, capsys.readouterr().out.splitlines()


def test_clean_cells_pass_with_one_native_run_per_image(
    tiny_image, capsys, monkeypatch
):
    natives = []
    run_native = matrix.run_native
    monkeypatch.setattr(
        matrix, "run_native", lambda p: natives.append(p) or run_native(p)
    )
    oracles = (matrix.replay_exact, matrix.stats_equal(detaches=0))
    rc, lines = _run(
        [_cell(tiny_image, label, oracles=oracles) for label in ("a", "b")],
        capsys,
    )
    assert (rc, len(natives)) == (0, 1)
    assert [line.split(":")[0] for line in lines] == [
        "ok   a", "ok   b", "2 runs, 0 failures"
    ]


@pytest.mark.parametrize("kwargs, first_line", [
    ({"client": PerturbingClient}, "FAIL cell: output diverged (b'!!*"),
    ({"client": RaisingClient}, "FAIL cell: crashed: RuntimeError: client bug"),
    (
        {"oracles": (matrix.events_fired("detach"), matrix.stats_equal(detaches=1))},
        "FAIL cell: expected event 'detach' never fired; detaches is 0, expected 1",
    ),
], ids=["perturbed-output", "crash", "oracles"])
def test_failing_cell_is_reported(tiny_image, capsys, kwargs, first_line):
    rc, lines = _run([_cell(tiny_image, "cell", **kwargs)], capsys)
    assert rc == 1
    assert lines[0].startswith(first_line)
    assert lines[-1] == "1 runs, 1 failures"


def test_golden_mismatch_is_reported(tiny_image, capsys):
    """A cell is held to its golden digest; perturbing one recorded
    field of the golden fails the cell and names the field."""
    cell = _cell(tiny_image, "gold", golden="tiny: gold")
    _, runtime, result = matrix.run_cell(cell, matrix.run_native(Process(tiny_image)))
    golden = matrix.digest(runtime, result)
    assert _run([cell], capsys, goldens={"tiny: gold": golden})[0] == 0

    perturbed = dict(golden, cycles=golden["cycles"] + 1)
    rc, lines = _run([cell], capsys, goldens={"tiny: gold": perturbed})
    assert rc == 1
    assert lines[0] == "FAIL gold: digest cycles is %d, golden %d" % (
        golden["cycles"], golden["cycles"] + 1)
    assert lines[-1] == "1 runs, 1 failures"
