"""Chain compiler: promotion, and demotion at every unlink chokepoint.

The chain engine (``repro.core.chains``) stitches hot linked fragments
into dispatch-free super-tables.  Each baked transfer assumes its link
stays up, so every runtime path that tears links down — cache eviction,
``dr_replace_fragment``, SMC invalidation, client quarantine, trace
shadowing — must dissolve the chains embedding the touched fragments.
These tests drive each chokepoint against a *live* chain mid-run and
assert (a) chains were actually built and then demoted, and (b) the
run stays bit-identical to the tuple and plain-closure engines — the
chain tier is wall-clock-only by contract.  Because a stitched exit
charges the same cycles as an unstitched one, the last tests count
host-side returns to the run loop to check, per exit kind, that hot
exits really stay inside the chain.
"""

import sys
from collections import Counter

import pytest

from repro.api.client import Client
from repro.api.dr import (
    dr_decode_fragment,
    dr_insert_clean_call,
    dr_replace_fragment,
)
from repro.asm import CodeBuilder, mem
from repro.clients import IndirectBranchDispatch
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.execute import Executor
from repro.core.options import ENGINES
from repro.ir.create import INSTR_CREATE_nop
from repro.isa.registers import Reg
from repro.loader import Process
from repro.loader.process import Layout
from repro.machine.cost import CostModel
from repro.machine.errors import MachineFault
from repro.tools.chaos import build_smc_image


def _engine_options(factory, engine, **overrides):
    options = factory()
    options.engine = engine
    options.chain_threshold = 1  # promote on the first pass
    for name, value in overrides.items():
        setattr(options, name, value)
    return options


def _run(image, factory, engine, client=None, **overrides):
    runtime = DynamoRIO(
        Process(image),
        options=_engine_options(factory, engine, **overrides),
        client=client() if client is not None else None,
        cost_model=CostModel(),
    )
    result = runtime.run()
    return runtime, result


def _result_key(result):
    return (
        result.cycles,
        result.instructions,
        result.output,
        result.exit_code,
        result.events,
    )


def _assert_engine_differential(image, factory, client=None, **overrides):
    """All three engines produce bit-identical results; returns the
    chain run's (runtime, result) for scenario-specific assertions."""
    runs = {
        engine: _run(image, factory, engine, client=client, **overrides)
        for engine in ENGINES
    }
    reference = _result_key(runs["tuple"][1])
    assert _result_key(runs["closure"][1]) == reference
    assert _result_key(runs["chain"][1]) == reference
    return runs["chain"]


def _chain_report(runtime):
    assert runtime.chains is not None
    return runtime.chains.report()


# ------------------------------------------------------------- promotion

def test_chains_promote_only_at_threshold(loop_image):
    runtime, _ = _run(
        loop_image, RuntimeOptions.with_indirect_links, "chain",
        chain_threshold=10_000_000,
    )
    assert _chain_report(runtime)["chains_built"] == 0

    runtime, _ = _run(loop_image, RuntimeOptions.with_indirect_links, "chain")
    assert _chain_report(runtime)["chains_built"] > 0


def test_chain_manager_absent_on_other_engines(loop_image):
    for engine in ("tuple", "closure"):
        runtime, _ = _run(loop_image, RuntimeOptions.with_traces, engine)
        assert runtime.chains is None


# -------------------------------------------------- eviction chokepoint

def test_eviction_demotes_live_chains(loop_image, loop_native):
    """A tiny code cache keeps flushing fragments out from under their
    chains; every flush must dissolve the embedding chains."""
    runtime, result = _assert_engine_differential(
        loop_image, RuntimeOptions.with_traces,
        code_cache_limit=700, trace_threshold=5,
    )
    assert result.events["cache_evictions"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
    assert result.output == loop_native.output
    assert result.exit_code == loop_native.exit_code


# ----------------------------------------------- replacement chokepoint

class _ChurningClient(Client):
    """Replaces every fragment it sees from a clean call inside it —
    replacement lands while the fragment's chain is live."""

    def __init__(self):
        super().__init__()
        self.replaced = set()
        self.replacements = 0

    def _hook(self, context, tag, ilist):
        def replace_self(ctx, _tag=tag):
            if _tag in self.replaced:
                return
            il = dr_decode_fragment(ctx, _tag)
            if il is None:
                return
            il.prepend(INSTR_CREATE_nop())
            if dr_replace_fragment(ctx, _tag, il):
                self.replaced.add(_tag)
                self.replacements += 1

        dr_insert_clean_call(ilist, ilist.first(), replace_self)

    basic_block = _hook
    trace = _hook

    def fragment_deleted(self, context, tag):
        self.replaced.discard(tag)


def test_replace_fragment_demotes_live_chains(loop_image, loop_native):
    runtime, result = _assert_engine_differential(
        loop_image, RuntimeOptions.with_traces, client=_ChurningClient,
        trace_threshold=5,
    )
    assert result.events["fragments_replaced"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
    assert result.output == loop_native.output


# ------------------------------------------------ inline memory access

def _walker_image(load_first):
    """A hot loop of ``[ebx+disp]`` stores and loads plus a push/pop
    pair, walking ``ebx`` up until one access runs past the end of
    memory in the middle of a chain segment."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.EBX, Layout.MEMORY_SIZE - 0x2000)
    b.mov(Reg.ESI, 0)
    b.label("loop")
    b.add(Reg.ESI, 3)
    if load_first:
        b.mov(Reg.EDX, mem(base=Reg.EBX, disp=12))
    b.mov(mem(base=Reg.EBX, disp=8), Reg.ESI)
    b.push(Reg.EBX)
    b.cmp(Reg.ESI, 0)
    b.jz("loop")  # never taken: splits the loop into two linked blocks
    b.mov(Reg.EDX, mem(base=Reg.EBX, disp=8))
    b.pop(Reg.ECX)
    b.add(Reg.EBX, 4)
    b.add(Reg.ESI, Reg.EDX)
    b.jmp("loop")
    return b.image(entry="main")


@pytest.mark.parametrize("load_first", [False, True])
def test_mid_segment_memory_fault_matches_every_engine(load_first):
    """Segments read and write the buffer inline, in chains and in
    promoted closure tables alike.  A watch on the last lines of memory
    must still see every store into them, and the access that runs
    past memory must still raise the accessor's fault, with the same
    cycle and instruction totals as the per-instruction engines and a
    closure table that never promotes."""
    image = _walker_image(load_first)
    outcomes = {}
    in_segment = {}
    runs = [(engine, 1) for engine in ENGINES] + [("closure", 10**9)]
    for engine, threshold in runs:
        process = Process(image)
        watched = []
        process.memory.add_write_watcher(
            lambda addr, size: watched.append((addr, size)))
        process.memory.watch_range(
            Layout.MEMORY_SIZE - 0x100, Layout.MEMORY_SIZE)
        runtime = DynamoRIO(
            process,
            options=_engine_options(
                RuntimeOptions.with_direct_links, engine,
                chain_threshold=threshold,
            ),
            cost_model=CostModel(),
        )
        with pytest.raises(MachineFault) as exc:
            runtime.run()
        label = (engine, threshold)
        outcomes[label] = (
            str(exc.value),
            runtime.counter.cycles,
            runtime.executor.instructions,
            watched,
        )
        in_segment[label] = any(
            entry.frame.code.raw.co_filename == "<segment>"
            for entry in exc.traceback
        )
        if engine == "chain":
            assert _chain_report(runtime)["chains_built"] >= 1
    message, _, _, watched = outcomes[("chain", 1)]
    assert message.startswith(
        "%s past memory at 0x2000000" % ("read" if load_first else "write"))
    assert len(watched) > 32
    reference = outcomes[("tuple", 1)]
    assert all(outcome == reference for outcome in outcomes.values())
    assert in_segment == {
        ("tuple", 1): False,
        ("closure", 1): True,
        ("chain", 1): True,
        ("closure", 10**9): False,
    }


# ------------------------------------------------------- SMC chokepoint

def test_smc_invalidation_demotes_live_chains():
    """The self-modifying workload patches a block that hot chains have
    stitched; the write-watch delete must demote them so the rebuilt
    code (emitting 'B') executes instead of the stale chain."""
    image = build_smc_image()
    runtime, result = _assert_engine_differential(
        image, RuntimeOptions.with_traces,
        cache_consistency=True, trace_threshold=3,
    )
    assert runtime.stats.smc_invalidations >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
    # Transparency through the patch: stale chains would keep printing 'A'.
    assert result.output == b"A" * 7 + b"B" * 5


# ------------------------------------------------ quarantine chokepoint

def test_client_quarantine_demotes_live_chains(loop_image, loop_native):
    """Guard quarantine flushes every cache (OSR-style bailout); the
    flush funnels through fragment deletion and must take all live
    chains down with it."""
    from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

    def client():
        return FaultInjectingClient(FaultPlan("raise_in_hook", 0))

    runtime, result = _assert_engine_differential(
        loop_image, RuntimeOptions.with_traces, client=client,
        guard_clients=True, trace_threshold=5,
    )
    assert runtime.stats.client_faults >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1
    assert result.output == loop_native.output


# -------------------------------------------- trace-shadowing chokepoint

def test_trace_creation_demotes_bb_chains(loop_image):
    """With chains promoting faster than traces build, the hot loop's
    bb chain is live when its head gets promoted and later shadowed by
    a trace — both funnel through chain invalidation."""
    runtime, result = _assert_engine_differential(
        loop_image, RuntimeOptions.with_traces, trace_threshold=20,
    )
    assert result.events["traces_built"] >= 1
    report = _chain_report(runtime)
    assert report["chains_built"] >= 1
    assert report["chains_invalidated"] >= 1


# ------------------------------------------------ stitching per exit kind

_RUN_LOOP = Executor.run.__code__
# Matched against exit-step function names, most specific first.
_EXIT_KIND_NAMES = ("ind_check", "cond", "jmp", "call", "ind")


def _run_loop_returns(image, factory, engine, client=None, **overrides):
    """Per exit kind, how many times an exit step handed control back to
    the ``Executor.run`` loop (returned ``None`` or raised) instead of
    transferring inside its step table."""
    runtime = DynamoRIO(
        Process(image),
        options=_engine_options(factory, engine, **overrides),
        client=client,
        cost_model=CostModel(),
    )
    returns = Counter()

    def profile(frame, event, arg):
        if (
            event == "return"
            and arg is None
            and frame.f_back is not None
            and frame.f_back.f_code is _RUN_LOOP
        ):
            name = frame.f_code.co_name
            for kind in _EXIT_KIND_NAMES:
                if kind in name:
                    returns[kind] += 1
                    break

    sys.setprofile(profile)
    try:
        runtime.run()
    finally:
        sys.setprofile(None)
    return returns


def _assert_stitched(kinds, image, factory, client=None, **overrides):
    """Every listed exit kind is hot in the closure run (one return to
    the run loop per pass) and stitched in the chain run.  A stitched
    exit charges the same simulated cycles as an unstitched one, so
    only the host-side control flow shows the difference."""
    closure = _run_loop_returns(
        image, factory, "closure",
        client=client() if client is not None else None, **overrides
    )
    chain = _run_loop_returns(
        image, factory, "chain",
        client=client() if client is not None else None, **overrides
    )
    for kind in kinds:
        assert closure[kind] >= 200, (kind, closure)
        assert chain[kind] * 5 <= closure[kind], (kind, chain, closure)


def test_direct_exits_and_ibl_member_hits_stitch(loop_image):
    """The loop's taken ``cond`` back edge, its ``jmp``, the ``call`` of
    ``mix`` and the ``ret`` back into the loop (an IBL hit on a chain
    member) all stay inside the chain."""
    _assert_stitched(
        ("cond", "jmp", "call", "ind"),
        loop_image, RuntimeOptions.with_indirect_links,
    )


def test_dispatch_check_hits_stitch(indirect_image):
    """Trace-inlined dispatch checks (``indirect_dispatch``) that hit
    transfer inside the chain.  The chain must be built after the
    dispatch exits are linked, so this run promotes at the fifth pass
    rather than the first."""
    _assert_stitched(
        ("ind_check",),
        indirect_image, RuntimeOptions.with_traces,
        client=lambda: IndirectBranchDispatch(sample_threshold=8),
        chain_threshold=5, trace_threshold=5,
    )
