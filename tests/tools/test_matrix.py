"""The shared sweep runner and the cell lists of the sweeps built on it."""

import hashlib

import pytest

from repro.api.client import Client
from repro.api.dr import dr_insert_clean_call
from repro.core import RuntimeOptions
from repro.core.options import ENGINES
from repro.minicc import compile_source
from repro.tools import chaos, detach_diff, equiv_sweep, matrix
from repro.tools.matrix import Cell

# Each CI sweep's cells, pinned without running them: count and the
# leading hex digits of sha256("\n".join(sorted labels)).
PRESETS = {
    "chaos small": (chaos, "--seeds 4 --matrix small", 180, "db86a9ba9140"),
    "chaos full": (chaos, "--seeds 4 --matrix full", 840, "b45dfb18e774"),
    "runtime small": (chaos, "--runtime --seeds 3 --matrix small", 150, "2723ac036b03"),
    "runtime full": (chaos, "--runtime --seeds 3 --matrix full", 225, "cbe6318f8046"),
    "detach_diff": (detach_diff, "", 21, "268524df49ca"),
    "equiv_sweep": (equiv_sweep, "", 308, "f57aaab9edf6"),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_cell_list_is_pinned(preset):
    module, argv, count, digest = PRESETS[preset]
    labels = sorted(c.label for c in module.cells(module.parse_args(argv.split())))
    assert len(labels) == count
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest()[:12] == digest


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


def engine_name(runtime, result):
    return runtime.options.engine


def _cell(image, label, engine="closure", **kwargs):
    options = RuntimeOptions(engine=engine, trace_events=True, trace_buffer=None)
    return Cell(label, image, options, **kwargs)


def _run(cells, capsys):
    rc = matrix.run(cells, "{runs} runs, {failures} failures", verbose=True)
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
    same_output = ("tiny", lambda runtime, result: result.output)
    rc, lines = _run(
        [_cell(tiny_image, e, e, oracles=oracles, agree=same_output) for e in ENGINES],
        capsys,
    )
    assert (rc, len(natives)) == (0, 1)
    assert [line.split(":")[0] for line in lines] == [
        "ok   tuple", "ok   closure", "ok   chain", "3 runs, 0 failures"
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


def test_agreement_group_mismatch_is_reported(tiny_image, capsys):
    rc, lines = _run(
        [_cell(tiny_image, e, e, agree=("g", engine_name)) for e in ENGINES[:2]],
        capsys,
    )
    assert rc == 1
    assert "FAIL closure: engine_name disagrees with tuple" in lines
    assert lines[-1] == "2 runs, 1 failures"
