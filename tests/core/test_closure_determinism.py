"""Determinism of the execution tiers, pinned by golden digests.

Every fragment starts on its cold closure table; the pass that reaches
``options.chain_threshold`` rebuilds its table with generated-source
segments (tier 2).  Whichever tier runs a fragment, every simulated
observable must be *bit-identical*: cycles, instruction counts,
program output, exit code, and the full event/stat dictionaries.
Only host wall-clock time may differ.

Each run below has a checked-in golden digest (``GOLDENS.json``, see
:mod:`tests.goldens`), captured while the retired tuple-dispatch
reference engine still ran beside the closure engine and agreed with
it on every run.  The tests hold the default threshold, tier 2 from
the first pass (``TIER2``) and cold tables only (``COLD``) to it; the
"engines" in their names are these tiers.

Each sample client exercises a different lowered-op surface: redundant
load removal rewrites straight-line exec ops, strength reduction changes
instruction costs, indirect-branch dispatch emits OP_IND_CHECK chains
with profilers, and custom traces reshape fragment boundaries.  Signals
and threads cover the alarm/safe-point and scheduler paths.
"""

from functools import lru_cache

import pytest

from repro.clients import (
    CustomTraces,
    IndirectBranchDispatch,
    RedundantLoadRemoval,
    StrengthReduction,
)
import repro.core.closures as closures_mod
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.machine.interp import Interpreter
from repro.minicc import compile_source
from repro.observe import replay_stats
from repro.resilience.faultinject import FaultInjectingClient, FaultPlan
from repro.tools.detach_diff import DetachClient
from repro.tools.matrix import golden_digest, golden_key, load_goldens

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

THREADED_SRC = """
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

# chain_threshold values: every fragment on tier 2 from its first
# pass, and cold tables only.
TIER2 = 1
COLD = 10**9

ABLATION_ROWS = (
    RuntimeOptions.bb_cache_only,
    RuntimeOptions.with_direct_links,
    RuntimeOptions.with_indirect_links,
    RuntimeOptions.with_traces,
)

FAULTS = ("raise_in_hook", "corrupt_instrlist")


@lru_cache(maxsize=None)
def _image(source):
    return compile_source({"threaded": THREADED_SRC, **SOURCES}[source])


def _traced(factory):
    def options():
        options = factory()
        options.trace_events = True
        options.trace_buffer = None
        return options
    return options


def _precise():
    return RuntimeOptions(precise_interrupts=True)


def _precise_blocks():
    # No traces: the loop's blocks are the tables that tier up.
    options = RuntimeOptions.with_indirect_links()
    options.precise_interrupts = True
    return options


def _faulted(kind, seed):
    def options():
        options = _traced(RuntimeOptions.with_traces)()
        options.guard_clients = True
        options.cache_consistency = True
        return options

    def client():
        return FaultInjectingClient(FaultPlan(kind, seed), inner=StrengthReduction())

    return options, client


def _golden_runs():
    """Golden key -> (source, options factory, client factory)."""
    runs = {}
    for source in SOURCES:
        for name, client in CLIENTS.items():
            runs["runtime %s %s" % (source, name)] = (
                source, RuntimeOptions.with_traces, client)
            runs["traced %s %s" % (source, name)] = (
                source, _traced(RuntimeOptions.with_traces), client)
        for name in ("none", "indirect_dispatch"):
            runs["traced-blocks %s %s" % (source, name)] = (
                source, _traced(RuntimeOptions.with_indirect_links),
                CLIENTS[name])
        for mode in ("native", "emulation"):
            runs["interpreter %s %s" % (source, mode)] = (source, mode, None)
    runs["threaded"] = ("threaded", RuntimeOptions.with_traces, CLIENTS["none"])
    for row in ABLATION_ROWS:
        runs["ablation %s" % row.__name__] = ("loop", row, CLIENTS["none"])
    for kind in FAULTS:
        for seed in (0, 1):
            runs["faulted %s %d" % (kind, seed)] = ("loop",) + _faulted(kind, seed)
    runs["precise-alarms"] = ("signals", _traced(_precise), CLIENTS["none"])
    runs["mid-loop-detach"] = (
        "loop", _traced(_precise_blocks), lambda: DetachClient(40))
    return {golden_key("determinism", key): run for key, run in runs.items()}


GOLDEN_RUNS = _golden_runs()


def golden_run(key, client=None, **settings):
    """Run ``key``'s program with its options, ``settings`` applied on
    top, and ``client`` (default: its own); returns ``(runtime, result)``."""
    source, options_factory, client_factory = GOLDEN_RUNS[key]
    process = Process(_image(source))
    if client_factory is None:
        interpreter = Interpreter(
            process, CostModel(), mode=options_factory, **settings)
        return interpreter, interpreter.run()
    options = options_factory()
    for name, value in settings.items():
        setattr(options, name, value)
    runtime = DynamoRIO(
        process,
        options=options,
        client=(client or client_factory)(),
        cost_model=CostModel(),
    )
    return runtime, runtime.run()


@lru_cache(maxsize=None)
def _goldens():
    return load_goldens()


def check(key, runtime, result):
    """Assert that a run matches its checked-in golden digest."""
    assert key in _goldens(), "no golden for %r" % key
    problems = golden_digest(_goldens()[key])(runtime, result)
    assert not problems, "%s: %s" % (key, "; ".join(problems))


def _check_tiers(key, thresholds, **kwargs):
    """Run ``key`` at each chain threshold (None: the option's default)
    and check each run against the golden; returns the runs."""
    runs = []
    for threshold in thresholds:
        settings = {} if threshold is None else {"chain_threshold": threshold}
        runtime, result = golden_run(key, **settings, **kwargs)
        check(key, runtime, result)
        runs.append((runtime, result))
    return runs


def _key(*words):
    return golden_key("determinism", " ".join(map(str, words)))


@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_runtime_engines_bit_identical(source_name, client_name):
    _check_tiers(_key("runtime", source_name, client_name), (None, COLD))


@pytest.mark.parametrize("mode", ["native", "emulation"])
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_interpreter_matches_golden(source_name, mode):
    check(
        _key("interpreter", source_name, mode),
        *golden_run(_key("interpreter", source_name, mode)),
    )


def test_threaded_workload_engines_bit_identical():
    _check_tiers(_key("threaded"), (None, TIER2, COLD))


def test_ablation_rows_bit_identical():
    """Every Table-1 configuration row agrees across the tiers."""
    for row in ABLATION_ROWS:
        _check_tiers(_key("ablation", row.__name__), (None, TIER2))


# --------------------------------------------------- drtrace differential

def _check_traced_group(source_name, client_name):
    key = _key("traced", source_name, client_name)
    ((runtime, result),) = _check_tiers(key, (None,))

    # Replaying the event stream reconstructs every RuntimeStats counter
    # exactly.
    assert runtime.observer.dropped == 0
    assert replay_stats(runtime.observer.events()) == runtime.stats.as_dict()

    # Tracing must not perturb the simulated machine: a tracing-off run
    # lands on the same cycles/output.
    _, plain = golden_run(key, trace_events=False)
    assert plain.cycles == result.cycles
    assert plain.instructions == result.instructions
    assert plain.output == result.output


@pytest.mark.parametrize("client_name", ["none", "indirect_dispatch"])
@pytest.mark.parametrize("source_name", ["loop", "indirect"])
def test_traced_runs_replay_stats_and_match_engines(source_name, client_name):
    _check_traced_group(source_name, client_name)


@pytest.mark.slow
@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_traced_runs_full_matrix(source_name, client_name):
    _check_traced_group(source_name, client_name)


# ----------------------------------------------- drguard fault determinism

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("fault_kind", FAULTS)
def test_faulted_runs_bit_identical_across_engines(fault_kind, seed):
    """Injected client faults — and the guard's recovery from them —
    are deterministic: the same fault plan produces the same faults,
    bailouts, cycles, and event stream on every tier."""
    runs = _check_tiers(_key("faulted", fault_kind, seed), (None, TIER2))
    assert all(runtime.stats.client_faults > 0 for runtime, _ in runs)


# ------------------------------------------------ tier-2 promotion

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
def test_promotion_bit_identical(source_name, client_name):
    _check_tiers(_key("traced", source_name, client_name), (TIER2, COLD))


@pytest.mark.parametrize("client_name", ["none", "indirect_dispatch"])
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_block_promotion_bit_identical(source_name, client_name):
    """Without traces the basic blocks are what tiers up."""
    _check_tiers(
        _key("traced-blocks", source_name, client_name), (TIER2, COLD))


def test_promotion_bit_identical_with_precise_alarms(monkeypatch):
    """Alarms delivered mid-fragment at the polls that wrap promoted
    segments land on the same instruction as on cold tables."""
    from repro.observe.events import EV_SIGNAL_DELIVERED

    segments = _count_segments(monkeypatch)
    runs = _check_tiers(_key("precise-alarms"), (TIER2, COLD))
    assert segments, "the eager run never promoted"
    deliveries = [
        ev for ev in runs[0][0].observer.events()
        if ev.kind == EV_SIGNAL_DELIVERED
    ]
    assert len(deliveries) == 3
    assert any(ev.data.get("mid_fragment") for ev in deliveries)


def test_promotion_bit_identical_through_mid_loop_detach(monkeypatch):
    """A detach requested from a clean call inside the hot loop unwinds
    at the poll in front of a promoted segment; the translated state,
    the native continuation and the event stream match a run on cold
    tables."""
    segments = _count_segments(monkeypatch)
    promoted_before_detach = []

    class Detach(DetachClient):
        def _tick(self, context):
            if self.calls + 1 == self.at:
                promoted_before_detach.append(len(segments))
            super()._tick(context)

    runs = _check_tiers(
        _key("mid-loop-detach"), (TIER2, COLD), client=lambda: Detach(40))
    for runtime, _result in runs:
        assert runtime.stats.detaches == 1
        assert runtime.detached
    # The eager run had compiled segments before its detach; the cold
    # run compiled none.
    assert promoted_before_detach[0] > 0
    assert promoted_before_detach[1] == promoted_before_detach[0]
