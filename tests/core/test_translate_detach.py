"""drdetach: state translation, mid-fragment delivery, detach/re-attach.

The contract (paper Section 2's transparent exit + precise interrupts):

* every cached fragment carries a translation table mapping each
  execution step to a source application PC — the round trip holds for
  every step of every fragment;
* under ``precise_interrupts``, alarms are delivered *mid-fragment*
  with latency bounded by the longest fused run (``max_bb_instrs``),
  and both engines stay bit-identical;
* ``Runtime.detach()`` translates threads back to application state
  and continues natively with output identical to a never-attached
  run; the translated register state equals a pure interpreter run to
  the same instruction count;
* ``reattach_after`` resumes translated execution, and the event
  stream replays to the exact live stats.
"""

import pytest

from repro.api.client import Client
from repro.api.dr import (
    dr_detach,
    dr_reattach,
    dr_register_event_tracer,
)
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.options import ENGINES
from repro.loader import Process
from repro.machine.interp import Interpreter, run_native
from repro.minicc import compile_source
from repro.observe.events import EV_SIGNAL_DELIVERED, replay_stats
from repro.tools.detach_diff import DetachClient, detach_options

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 4) { alarm(150); }
    sigreturn;
    return 0;
}

int churn(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 25; j++) { acc = (acc * 3 + j) & 0xFFFF; }
    return acc;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(150);
    i = 0;
    while (ticks < 4) { i = churn(i); }
    print(i + ticks);
    return 0;
}
"""


@pytest.fixture(scope="module")
def signal_image():
    return compile_source(SIGNAL_SRC)


@pytest.fixture(scope="module")
def signal_native(signal_image):
    return run_native(Process(signal_image))


def _run(image, engine, client=None, **overrides):
    runtime = DynamoRIO(
        Process(image), options=detach_options(engine, **overrides), client=client
    )
    return runtime, runtime.run()


def _cached_fragments(runtime):
    seen = {}
    for thread in runtime.threads:
        for cache in (thread.bb_cache, thread.trace_cache):
            for fragment in cache.fragments.values():
                seen[id(fragment)] = fragment
    return list(seen.values())


def _valid_pcs(fragment):
    pcs = {fragment.tag}
    for instr in fragment.instrs_source:
        if not instr.is_meta and instr.raw_bits_valid():
            pc = instr.raw_pc
            if pc is not None:
                pcs.add(pc)
    return pcs


class DetachAtBuild(Client):
    """Detaches from the k-th basic-block build hook."""

    def __init__(self, at, reattach_after=None):
        super().__init__()
        self.at = at
        self.reattach_after = reattach_after
        self.calls = 0

    def basic_block(self, context, tag, ilist):
        self.calls += 1
        if self.calls == self.at:
            dr_detach(self, reattach_after=self.reattach_after)


# ------------------------------------------------------ translation tables


@pytest.mark.parametrize("engine", ENGINES)
def test_translation_round_trip_every_fragment(loop_image, engine):
    runtime, _ = _run(loop_image, engine)
    fragments = _cached_fragments(runtime)
    assert fragments, "run left no cached fragments to check"
    for fragment in fragments:
        table = fragment.translation
        assert table is not None, hex(fragment.tag)
        assert len(table.pcs) == len(fragment.code)
        assert table.step_pcs, hex(fragment.tag)
        valid = _valid_pcs(fragment)
        for step in range(len(table.step_pcs)):
            pc = table.translate_step(step)
            assert isinstance(pc, int)
            assert pc in valid, (hex(fragment.tag), step, hex(pc))


# ------------------------------------------------- mid-fragment interrupts


@pytest.mark.parametrize("engine", ENGINES)
def test_signal_latency_bounded_and_mid_fragment(
    signal_image, signal_native, engine
):
    runtime, result = _run(signal_image, engine)
    assert result.output == signal_native.output
    assert result.exit_code == signal_native.exit_code

    deliveries = [
        ev for ev in runtime.observer.events() if ev.kind == EV_SIGNAL_DELIVERED
    ]
    assert deliveries
    bound = runtime.options.max_bb_instrs
    for ev in deliveries:
        assert ev.data["latency"] is not None
        assert 0 <= ev.data["latency"] <= bound
    assert any(ev.data.get("mid_fragment") for ev in deliveries)
    # The counter aggregates match the per-event latencies exactly.
    latencies = [ev.data["latency"] for ev in deliveries]
    assert runtime.counter.events["signal_latency"] == sum(latencies)
    assert runtime.counter.events["signal_latency_max"] == max(latencies)


def test_precise_mode_bit_identical_across_engines(signal_image):
    streams = []
    results = []
    for engine in ENGINES:
        runtime, result = _run(signal_image, engine)
        results.append(result)
        streams.append(
            [(e.kind, e.tag, e.data) for e in runtime.observer.events()]
        )
    base = results[0]
    for result in results[1:]:
        assert result.cycles == base.cycles
        assert result.instructions == base.instructions
        assert result.output == base.output
        assert result.exit_code == base.exit_code
    # Signal deliveries (including mid-fragment flags and latencies)
    # are identical event-for-event across engines.
    sigs = [
        [e for e in s if e[0] == EV_SIGNAL_DELIVERED] for s in streams
    ]
    assert sigs[0] == sigs[1]


def test_polls_are_free_when_disabled(loop_image):
    baseline = DynamoRIO(
        Process(loop_image), options=RuntimeOptions.with_traces()
    ).run()
    precise = DynamoRIO(
        Process(loop_image),
        options=RuntimeOptions(precise_interrupts=True),
    ).run()
    assert precise.cycles == baseline.cycles
    assert precise.instructions == baseline.instructions
    assert precise.output == baseline.output
    assert precise.events == baseline.events


# -------------------------------------------------------- detach / native


@pytest.mark.parametrize("engine", ENGINES)
def test_detach_then_native_is_bit_identical(loop_image, loop_native, engine):
    runtime, result = _run(loop_image, engine, client=DetachClient(at=7))
    assert result.output == loop_native.output
    assert result.exit_code == loop_native.exit_code
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 0
    assert runtime.detached


@pytest.mark.parametrize("engine", ENGINES)
def test_detach_with_pending_signal(signal_image, signal_native, engine):
    # Detach while alarms are armed: the pending deadline must carry
    # over and deliver during the native continuation.
    runtime, result = _run(signal_image, engine, client=DetachAtBuild(at=5))
    assert result.output == signal_native.output
    assert result.exit_code == signal_native.exit_code
    assert runtime.stats.detaches == 1
    assert runtime.system.signals_delivered >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_translated_state_matches_interpreter(loop_image, engine):
    runtime = DynamoRIO(
        Process(loop_image),
        options=detach_options(engine),
        client=DetachClient(at=9),
    )
    snapshot = {}
    original = runtime._perform_detach

    def spy():
        original()
        thread = runtime.threads[0]
        snapshot["state"] = thread.cpu.state_tuple()

    runtime._perform_detach = spy
    runtime.run()
    assert snapshot, "detach never happened"

    # The translated state must be application-consistent: a pure
    # interpreter run from the program start passes through exactly
    # that architectural state (registers, flags, pc) at some step.
    # (Instruction *counts* are not the join key — the runtime elides
    # instructions, e.g. stitched jumps, so its counter legitimately
    # differs from native at the same architectural point.)
    interp = Interpreter(Process(loop_image))
    main = interp.adopt_thread(interp.cpu)
    main.cpu.pc = interp.process.entry
    main.cpu.regs[4] = interp.process.initial_stack_pointer()
    interp._threads = [main]
    interp.system.spawn_thread = interp._spawn
    target = snapshot["state"]
    seen = False
    for _ in range(50000):
        if main.cpu.state_tuple() == target:
            seen = True
            break
        try:
            interp._run_quantum(main, 1, 10**9)
        except Exception:
            break
    assert seen, "translated state never occurs natively: %r" % (target,)


# ------------------------------------------------------------- re-attach


@pytest.mark.parametrize("engine", ENGINES)
def test_reattach_resumes_with_replay_exact_stats(
    loop_image, loop_native, engine
):
    runtime, result = _run(
        loop_image, engine, client=DetachClient(at=7, reattach_after=600)
    )
    assert result.output == loop_native.output
    assert result.exit_code == loop_native.exit_code
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 1
    assert not runtime.detached
    # Fragments were rebuilt after the re-attach.
    assert _cached_fragments(runtime)
    assert replay_stats(runtime.observer.events()) == runtime.stats.as_dict()


@pytest.mark.parametrize("engine", ENGINES)
def test_dr_reattach_bounces_immediately(loop_image, loop_native, engine):
    class Bounce(DetachAtBuild):
        def basic_block(self, context, tag, ilist):
            self.calls += 1
            if self.calls == self.at:
                dr_detach(self)
                dr_reattach(self)

    runtime, result = _run(loop_image, engine, client=Bounce(at=4))
    assert result.output == loop_native.output
    assert result.exit_code == loop_native.exit_code
    assert runtime.stats.detaches == 1
    assert runtime.stats.reattaches == 1


def test_detach_unregisters_tracers_reattach_restores(
    loop_image, loop_native
):
    kinds = []

    class Tracing(DetachClient):
        def init(self):
            dr_register_event_tracer(self, lambda ev: kinds.append(ev.kind))

    runtime, result = _run(
        loop_image, "closure", client=Tracing(at=7, reattach_after=400)
    )
    assert result.output == loop_native.output
    # Tracers are unregistered *before* the detach event is emitted —
    # a detached client observes nothing, not even its own detach or
    # anything from the native window.  The first thing it sees again
    # is the re-attach.
    assert "detach" not in kinds
    assert "reattach" in kinds
    # But the observer itself recorded the detach.
    assert runtime.observer.counts["detach"] == 1
    # Re-attach restored the registration.
    assert len(runtime._client_tracers) == 1
    assert runtime._client_tracers[0] in runtime.observer.tracers


def test_detach_flushes_through_delete_chokepoint(loop_image, loop_native):
    deleted = []

    class Watch(DetachClient):
        def fragment_deleted(self, context, tag):
            deleted.append(tag)

    runtime, result = _run(loop_image, "closure", client=Watch(at=7))
    assert result.output == loop_native.output
    # Every cached fragment went through fragment_deleted; nothing is
    # left resident after a stay-native detach.
    assert deleted
    assert not _cached_fragments(runtime)
    assert runtime.observer.counts.get("fragment_delete")
