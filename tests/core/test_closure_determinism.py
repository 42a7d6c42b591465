"""Engine determinism regression: tuple ↔ closure ↔ chain.

The compiled engines (fragment step tables in ``repro.core.closures``;
chain super-tables in ``repro.core.chains``; the interpreter's
pre-bound decode closures) must be *bit-identical* to the
tuple-dispatch reference path on every simulated observable: cycles,
instruction counts, program output, exit code, and the full event/stat
dictionaries.  Only host wall-clock time may differ.

Each sample client exercises a different lowered-op surface: redundant
load removal rewrites straight-line exec ops, strength reduction changes
instruction costs, indirect-branch dispatch emits OP_IND_CHECK chains
with profilers, and custom traces reshape fragment boundaries.  Signals
and threads cover the alarm/safe-point and scheduler paths.

The chain engine runs with ``chain_threshold=1`` so even the short test
workloads promote chains immediately; a dedicated test asserts chains
really get built (a chain run that never chains would vacuously pass
the differential).  The closure engine's tier-2 promotion (a hot
fragment's table rebuilt with generated-source segments) is pinned the
same way: closure runs that promote on the first pass and runs that
never promote must both match the tuple reference.
"""

import hashlib

import pytest

from repro.clients import (
    CustomTraces,
    IndirectBranchDispatch,
    RedundantLoadRemoval,
    StrengthReduction,
)
import repro.core.closures as closures_mod
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.options import ENGINES
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.machine.interp import Interpreter
from repro.minicc import compile_source

from tests.conftest import INDIRECT_SRC, LOOP_SRC

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 3) { alarm(200); }
    sigreturn;
    return 0;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(200);
    i = 0;
    while (ticks < 3) { i++; }
    print(ticks);
    return 0;
}
"""

CLIENTS = {
    "none": lambda: None,
    "redundant_load": RedundantLoadRemoval,
    "inc2add": StrengthReduction,
    "indirect_dispatch": IndirectBranchDispatch,
    "custom_traces": CustomTraces,
}

SOURCES = {
    "loop": LOOP_SRC,
    "indirect": INDIRECT_SRC,
    "signals": SIGNAL_SRC,
}


def _apply_engine(options, engine):
    options.engine = engine
    if engine == "chain":
        # Promote at the first pass so the short test workloads
        # actually exercise stitched tables.
        options.chain_threshold = 1
    return options


@pytest.fixture(scope="module")
def images():
    return {name: compile_source(src) for name, src in SOURCES.items()}


def _make_runtime(image, client_factory, engine, factory=None):
    options = _apply_engine(
        (factory or RuntimeOptions.with_traces)(), engine
    )
    return DynamoRIO(
        Process(image),
        options=options,
        client=client_factory(),
        cost_model=CostModel(),
    )


def _run_runtime(image, client_factory, engine):
    return _make_runtime(image, client_factory, engine).run()


def _assert_identical(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.output == b.output
    assert a.exit_code == b.exit_code
    assert a.events == b.events


def _assert_all_identical(results):
    reference = results[0]
    for other in results[1:]:
        _assert_identical(reference, other)


@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_runtime_engines_bit_identical(images, source_name, client_name):
    image = images[source_name]
    factory = CLIENTS[client_name]
    _assert_all_identical(
        [_run_runtime(image, factory, engine) for engine in ENGINES]
    )


def test_chain_runs_actually_chain(images):
    """The three-engine differentials are only meaningful if the chain
    runs execute stitched tables; assert chains get built and stay
    live on the plain loop workload."""
    runtime = _make_runtime(images["loop"], lambda: None, "chain")
    runtime.run()
    report = runtime.chains.report()
    assert report["chains_built"] > 0
    assert report["chains_live"] > 0


@pytest.mark.parametrize("mode", ["native", "emulation"])
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_interpreter_engines_bit_identical(images, source_name, mode):
    image = images[source_name]
    results = [
        Interpreter(
            Process(image), CostModel(), mode=mode, engine=engine
        ).run()
        for engine in ("closure", "tuple")
    ]
    _assert_identical(results[0], results[1])


def test_threaded_workload_engines_bit_identical():
    src = """
int done;
int total;

int worker() {
    int i;
    for (i = 0; i < 40; i++) { total = total + i; }
    done = done + 1;
    return 0;
}

int main() {
    done = 0;
    total = 0;
    spawn(&worker, 0x790000);
    while (done < 1) { }
    print(total);
    return 0;
}
"""
    image = compile_source(src)
    _assert_all_identical(
        [_run_runtime(image, lambda: None, engine) for engine in ENGINES]
    )


def test_ablation_rows_bit_identical(images):
    """Every Table-1 configuration row agrees across all engines."""
    image = images["loop"]
    for factory in (
        RuntimeOptions.bb_cache_only,
        RuntimeOptions.with_direct_links,
        RuntimeOptions.with_indirect_links,
        RuntimeOptions.with_traces,
    ):
        _assert_all_identical(
            [
                _make_runtime(image, lambda: None, engine, factory).run()
                for engine in ENGINES
            ]
        )


# --------------------------------------------------- drtrace differential

def _run_traced(image, client_factory, engine):
    """Run with drtrace on (unbounded ring) and return (runtime, result)."""
    options = _apply_engine(RuntimeOptions.with_traces(), engine)
    options.trace_events = True
    options.trace_buffer = None
    runtime = DynamoRIO(
        Process(image),
        options=options,
        client=client_factory(),
        cost_model=CostModel(),
    )
    return runtime, runtime.run()


def _stream(runtime):
    """The recorded events minus the seq numbers (compared across runs)."""
    return [(e.kind, e.tag, e.data) for e in runtime.observer.events()]


def _check_traced_group(image, factory):
    from repro.observe import replay_stats

    runs = [_run_traced(image, factory, engine) for engine in ENGINES]
    _assert_all_identical([res for _, res in runs])

    # Replaying the event stream reconstructs every RuntimeStats counter
    # exactly, for all engines.
    for rt, _ in runs:
        assert rt.observer.dropped == 0
        assert replay_stats(rt.observer.events()) == rt.stats.as_dict()

    # The streams themselves are identical event by event.
    streams = [_stream(rt) for rt, _ in runs]
    for other in streams[1:]:
        assert streams[0] == other

    # Tracing must not perturb the simulated machine: tracing-off runs
    # of the compiled engines land on the same cycles/output.
    reference = runs[0][1]
    for engine in ("closure", "chain"):
        plain = _run_runtime(image, factory, engine)
        assert plain.cycles == reference.cycles
        assert plain.instructions == reference.instructions
        assert plain.output == reference.output


@pytest.mark.parametrize("client_name", ["none", "indirect_dispatch"])
@pytest.mark.parametrize("source_name", ["loop", "indirect"])
def test_traced_runs_replay_stats_and_match_engines(
    images, source_name, client_name
):
    _check_traced_group(images[source_name], CLIENTS[client_name])


@pytest.mark.slow
@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_traced_runs_full_matrix(images, source_name, client_name):
    _check_traced_group(images[source_name], CLIENTS[client_name])


# ----------------------------------------------- drguard fault determinism

def _run_faulted(image, fault_kind, seed, engine):
    """A guarded run with a seeded fault-injecting client."""
    from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

    options = _apply_engine(RuntimeOptions.with_traces(), engine)
    options.guard_clients = True
    options.cache_consistency = True
    options.trace_events = True
    options.trace_buffer = None
    client = FaultInjectingClient(
        FaultPlan(fault_kind, seed), inner=StrengthReduction()
    )
    runtime = DynamoRIO(
        Process(image), options=options, client=client,
        cost_model=CostModel(),
    )
    return runtime, runtime.run()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "fault_kind", ["raise_in_hook", "corrupt_instrlist"]
)
def test_faulted_runs_bit_identical_across_engines(images, fault_kind, seed):
    """Injected client faults — and the guard's recovery from them —
    are deterministic: the same fault plan produces the same faults,
    bailouts, cycles, and event stream on every engine, including the
    chain engine whose stitched tables the bailout flush dissolves."""
    runs = [
        _run_faulted(images["loop"], fault_kind, seed, engine)
        for engine in ENGINES
    ]
    _assert_all_identical([res for _, res in runs])
    reference = runs[0][0]
    assert reference.stats.client_faults > 0
    for rt, _ in runs[1:]:
        assert rt.stats.client_faults == reference.stats.client_faults
        assert rt.stats.fragment_bailouts == reference.stats.fragment_bailouts
    streams = [_stream(rt) for rt, _ in runs]
    for other in streams[1:]:
        assert streams[0] == other


# ------------------------------------------------ tier-2 promotion

# chain_threshold values for closure runs: promote every fragment on its
# first pass, and never promote.
PROMOTION_THRESHOLDS = (1, 10**9)


def _event_digest(runtime):
    return hashlib.sha256(repr(_stream(runtime)).encode()).hexdigest()


def _promotion_runs(image, client_factory, options_factory, client_args=()):
    """A tuple run, then closure runs at each promotion threshold; each
    as ``(runtime, result, event digest)``."""
    runs = []
    for engine, threshold in [("tuple", 20)] + [
        ("closure", t) for t in PROMOTION_THRESHOLDS
    ]:
        options = options_factory()
        options.engine = engine
        options.chain_threshold = threshold
        options.trace_events = True
        options.trace_buffer = None
        runtime = DynamoRIO(
            Process(image),
            options=options,
            client=client_factory(*client_args),
            cost_model=CostModel(),
        )
        result = runtime.run()
        runs.append((runtime, result, _event_digest(runtime)))
    return runs


def _assert_promotion_identical(runs):
    reference = runs[0]
    for other in runs[1:]:
        _assert_identical(reference[1], other[1])
        assert other[2] == reference[2]


def _count_segments(monkeypatch):
    """Count compile_segment calls for the rest of the test."""
    calls = []
    real = closures_mod.compile_segment

    def counting(runtime, code, run, nxt):
        calls.append(len(run))
        return real(runtime, code, run, nxt)

    monkeypatch.setattr(closures_mod, "compile_segment", counting)
    return calls


@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_promotion_bit_identical(images, source_name, client_name):
    _assert_promotion_identical(
        _promotion_runs(
            images[source_name], CLIENTS[client_name],
            RuntimeOptions.with_traces,
        )
    )


@pytest.mark.parametrize("client_name", ["none", "indirect_dispatch"])
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_block_promotion_bit_identical(images, source_name, client_name):
    """Without traces the basic blocks are what tiers up."""
    _assert_promotion_identical(
        _promotion_runs(
            images[source_name], CLIENTS[client_name],
            RuntimeOptions.with_indirect_links,
        )
    )


def test_promotion_bit_identical_with_precise_alarms(images, monkeypatch):
    """Alarms delivered mid-fragment at the polls that wrap promoted
    segments land on the same instruction as in the tuple engine."""
    from repro.observe.events import EV_SIGNAL_DELIVERED

    segments = _count_segments(monkeypatch)

    def precise():
        return RuntimeOptions(precise_interrupts=True)

    runs = _promotion_runs(images["signals"], lambda: None, precise)
    _assert_promotion_identical(runs)
    assert segments, "the eager closure run never promoted"
    deliveries = [
        ev for ev in runs[1][0].observer.events()
        if ev.kind == EV_SIGNAL_DELIVERED
    ]
    assert len(deliveries) == 3
    assert any(ev.data.get("mid_fragment") for ev in deliveries)


def test_promotion_bit_identical_through_mid_loop_detach(
    images, monkeypatch
):
    """A detach requested from a clean call inside the hot loop unwinds
    at the poll in front of a promoted segment; the translated state,
    the native continuation and the event stream match the tuple
    engine."""
    from repro.tools.detach_diff import DetachClient

    segments = _count_segments(monkeypatch)
    promoted_before_detach = []

    class Detach(DetachClient):
        def _tick(self, context):
            if self.calls + 1 == self.at:
                promoted_before_detach.append(len(segments))
            super()._tick(context)

    def precise_blocks():
        # No traces: the loop's blocks are the tables that tier up.
        options = RuntimeOptions.with_indirect_links()
        options.precise_interrupts = True
        return options

    runs = _promotion_runs(
        images["loop"], Detach, precise_blocks, client_args=(40,)
    )
    _assert_promotion_identical(runs)
    for runtime, _result, _digest in runs:
        assert runtime.stats.detaches == 1
        assert runtime.detached
    # Tuple, eager closure, never-promoting closure: the eager run had
    # compiled segments before its detach, the last run compiled none.
    assert promoted_before_detach[1] > promoted_before_detach[0] == 0
    assert promoted_before_detach[2] == promoted_before_detach[1]
