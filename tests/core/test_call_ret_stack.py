"""Call and return stack traffic of compiled exit steps.

Call pushes (``call_exit_step``, ``call_inline_step`` and the indirect
call pushes of ``ind_exit_step``/``ind_check_step``) and the ``ret``
target pop pack and unpack the ``Memory.view()`` buffer directly when
the stack slot is in range.  A push tests ``mem.checked_stores`` at
store time and goes through ``write_u32`` while a watch or protection
is armed; a slot past memory goes through the accessor, which raises
its own fault.  Each test compares against the tuple engine, which
always calls the accessors.
"""

import sys

import pytest

from repro.api.client import Client
from repro.api.dr import dr_insert_clean_call
from repro.asm import CodeBuilder
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.execute import Executor
from repro.isa.registers import Reg
from repro.loader import Process
from repro.loader.process import Layout
from repro.machine.cost import CostModel
from repro.machine.errors import MachineFault

# (engine, chain_threshold): the reference, a closure table promoted on
# its first pass, and one that never promotes.
RUNS = (("tuple", 20), ("closure", 1), ("closure", 10**9))

_SIZE = Layout.MEMORY_SIZE


def _exit(b):
    b.mov(Reg.EAX, 1)
    b.mov(Reg.EBX, 0)
    b.syscall()


def _calls_image():
    """A hot loop making a direct call, an indirect call and two
    returns per iteration."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.ECX, 300)
    b.mov(Reg.ESI, 0)
    b.label("loop")
    b.call("bump")
    b.mov(Reg.EAX, b.label_address("bump"))
    b.call_ind(Reg.EAX)
    b.dec(Reg.ECX)
    b.jnz("loop")
    _exit(b)
    b.label("bump")
    b.add(Reg.ESI, 3)
    b.ret()
    return b.image(entry="main")


class _ArmWatchAt(Client):
    """Arms a write watch over the application stack from the
    ``at``-th dynamic block entry, long after the tables are built."""

    def __init__(self, at, memory, log):
        super().__init__()
        self.at = at
        self.memory = memory
        self.log = log
        self.calls = 0

    def _tick(self, context):
        self.calls += 1
        if self.calls == self.at:
            self.memory.add_write_watcher(
                lambda addr, size: self.log.append((addr, size)))
            self.memory.watch_range(
                Layout.STACK_TOP - Layout.STACK_SIZE, Layout.STACK_TOP)

    def basic_block(self, context, tag, ilist):
        dr_insert_clean_call(ilist, next(iter(ilist)), self._tick)


def _step_names(run):
    """Names of the functions the run loop called directly."""
    names = set()
    run_loop = Executor.run.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and (
            frame.f_back.f_code is run_loop
        ):
            names.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize(
    "factory, steps",
    [
        (RuntimeOptions.with_indirect_links, {"call_exit_step", "ind_exit_step"}),
        (RuntimeOptions.with_traces, {"call_inline_step", "ind_check_step"}),
    ],
)
def test_watch_armed_mid_run_sees_every_call_push(factory, steps):
    image = _calls_image()
    outcomes = {}
    for engine, threshold in RUNS:
        process = Process(image)
        log = []
        options = factory()
        options.engine = engine
        options.chain_threshold = threshold
        options.trace_threshold = 5
        runtime = DynamoRIO(
            process,
            options=options,
            client=_ArmWatchAt(100, process.memory, log),
            cost_model=CostModel(),
        )
        if (engine, threshold) == ("closure", 1):
            results = []
            names = _step_names(lambda: results.append(runtime.run()))
            assert steps <= names, names
            result = results[0]
        else:
            result = runtime.run()
        outcomes[(engine, threshold)] = (
            result.cycles, result.instructions, result.events, log,
        )
    reference = outcomes[("tuple", 20)]
    # Two pushes per iteration from the 100th block entry on.
    assert len(reference[3]) > 200
    for outcome in outcomes.values():
        assert outcome == reference


def _fault_image(kind):
    b = CodeBuilder(base=0x1000)
    b.label("main")
    if kind == "inline_call":
        # Every iteration moves esp up 8 and the call pushes 4: once
        # the loop is a trace, the inlined call's push runs past memory.
        b.mov(Reg.ESP, _SIZE - 402)
        b.label("loop")
        b.add(Reg.ESP, 8)
        b.call("target")
        b.label("target")
        b.jmp("loop")
        return b.image(entry="main")
    b.mov(Reg.EAX, b.label_address("target"))
    # Calls push at esp - 4 = size - 2; ret pops at size - 2.
    b.mov(Reg.ESP, _SIZE - 2 if kind == "ret" else _SIZE + 2)
    if kind == "call":
        b.call("target")
    elif kind == "indirect_call":
        b.call_ind(Reg.EAX)
    else:
        b.ret()
    b.label("target")
    _exit(b)
    return b.image(entry="main")


@pytest.mark.parametrize(
    "kind, message",
    [
        ("call", "write past memory at 0x1fffffe"),
        ("indirect_call", "write past memory at 0x1fffffe"),
        ("ret", "read past memory at 0x1fffffe"),
        ("inline_call", "write past memory at 0x1fffffe"),
    ],
)
def test_stack_slot_past_memory_raises_the_accessor_fault(kind, message):
    image = _fault_image(kind)
    outcomes = {}
    for engine, threshold in RUNS:
        runtime = DynamoRIO(
            Process(image),
            options=RuntimeOptions(
                engine=engine, chain_threshold=threshold, trace_threshold=5
            ),
            cost_model=CostModel(),
        )
        with pytest.raises(MachineFault) as exc:
            runtime.run()
        outcomes[(engine, threshold)] = (
            str(exc.value),
            runtime.counter.cycles,
            runtime.executor.instructions,
            runtime.stats.traces_built,
        )
    reference = outcomes[("tuple", 20)]
    assert reference[0].startswith(message)
    if kind == "inline_call":
        assert reference[3] >= 1
    for outcome in outcomes.values():
        assert outcome == reference
