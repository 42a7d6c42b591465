"""Tier-2 promotion: hot fragments run generated-source segments.

Every fragment is emitted with the cheap closure table.  The pass that
brings ``fragment.pass_counter`` to ``options.chain_threshold`` rebuilds
it with :func:`repro.core.closures.compile_segment` for each fused run,
under the default engine and options.  These tests pin both halves of
that contract: hot code really runs segments from that pass on, and
code that never gets hot never pays for codegen.
"""

from types import SimpleNamespace

import pytest

import repro.core.closures as closures_mod
import repro.core.execute as execute_mod
from repro.asm import CodeBuilder, mem
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.emit import OP_EXEC
from repro.isa.opcodes import Opcode
from repro.isa.operands import OPND_REG
from repro.isa.registers import Reg
from repro.loader import Process
from repro.loader.process import Layout
from repro.machine.cost import CostModel, CycleCounter
from repro.machine.cpu import CPU
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import execute_noncti
from repro.machine.memory import Memory
from repro.machine.system import System


def _is_segment(step):
    return step.__code__.co_filename == "<segment>"


def _spy_compiles(monkeypatch):
    """Wrap every step of every compiled table so each executed step
    logs ``(fragment, hot, fragment.pass_counter, is_segment)``; returns
    ``(log, promotions)`` where ``promotions`` lists
    ``(fragment, pass_counter, unwrapped table)`` for each hot compile."""
    log = []
    promotions = []
    real = closures_mod.compile_fragment

    def wrap(fragment, hot, step):
        segment = _is_segment(step)

        def logged(ex, cpu):
            log.append((fragment, hot, fragment.pass_counter, segment))
            return step(ex, cpu)

        return logged

    def spy(fragment, runtime, hot=False):
        table = real(fragment, runtime, hot=hot)
        if hot:
            promotions.append((fragment, fragment.pass_counter, table))
        fragment.compiled = tuple(wrap(fragment, hot, s) for s in table)
        return fragment.compiled

    # Emit compiles through the closures module, the run loop through
    # the name execute.py imported.
    monkeypatch.setattr(closures_mod, "compile_fragment", spy)
    monkeypatch.setattr(execute_mod, "compile_fragment", spy)
    return log, promotions


@pytest.mark.parametrize(
    "factory, hot_kind",
    [
        # Trace building on: blocks are superseded by the traces through
        # them, so only traces tier up.
        (RuntimeOptions, "trace"),
        (RuntimeOptions.with_indirect_links, "bb"),
    ],
)
def test_hot_loop_runs_segments_from_threshold_pass(
    loop_image, loop_native, monkeypatch, factory, hot_kind
):
    log, promotions = _spy_compiles(monkeypatch)
    runtime = DynamoRIO(Process(loop_image), options=factory())
    assert runtime.options.engine == "closure"
    threshold = runtime.options.chain_threshold
    result = runtime.run()
    assert result.output == loop_native.output

    # Each promotion happens once, on the threshold pass.
    assert promotions
    assert {count for _, count, _ in promotions} == {threshold}
    assert {fragment.kind for fragment, _, _ in promotions} == {hot_kind}
    promoted = [fragment for fragment, _, _ in promotions]
    assert len(set(map(id, promoted))) == len(promoted)

    # Cold steps of the promoted kind run only before that pass, hot
    # steps from it on; the other kind always runs cold.
    for fragment, hot, count, _segment in log:
        if fragment.kind != hot_kind:
            assert not hot
        elif hot:
            assert count == threshold
        else:
            assert count < threshold

    # A promoted table holds a segment exactly where the plan has a
    # fused run of two or more instructions, and the hot loop runs them.
    fused_runs = 0
    for fragment, _, table in promotions:
        plans = closures_mod.plan_fragment(fragment.code)[0]
        for index, (kind, payload) in enumerate(plans):
            fused = kind == "run" and len(payload) > 1
            fused_runs += fused
            assert _is_segment(table[index]) == fused
    assert fused_runs > 0
    assert sum(1 for entry in log if entry[3]) > 1000


def test_fragments_evicted_cold_never_compile_segments(
    loop_image, loop_native, monkeypatch
):
    """Under a cache far smaller than the footprint, fragments are
    evicted before they get hot; none of them pays for codegen."""
    emitted = []
    real_compile = closures_mod.compile_fragment

    def note(fragment, runtime, hot=False):
        if not hot:
            emitted.append(fragment)
        return real_compile(fragment, runtime, hot=hot)

    monkeypatch.setattr(closures_mod, "compile_fragment", note)
    monkeypatch.setattr(execute_mod, "compile_fragment", note)
    segment_codes = []
    real_segment = closures_mod.compile_segment

    def counting(runtime, code, run, nxt):
        segment_codes.append(code)
        return real_segment(runtime, code, run, nxt)

    monkeypatch.setattr(closures_mod, "compile_segment", counting)

    options = RuntimeOptions(code_cache_limit=700, cache_evict_policy="fifo")
    runtime = DynamoRIO(Process(loop_image), options=options)
    result = runtime.run()
    assert result.output == loop_native.output
    assert runtime.stats.cache_fragment_evictions > 0

    threshold = options.chain_threshold
    cold_evicted = [
        f for f in emitted if f.deleted and f.pass_counter < threshold
    ]
    assert cold_evicted
    segmented = set(map(id, segment_codes))
    assert not any(id(f.code) in segmented for f in cold_evicted)
    # Promotion still happened for the fragments that did get hot.
    assert segment_codes


@pytest.mark.parametrize("threshold", [1, 5])
def test_promotion_pass_follows_the_option(loop_image, monkeypatch, threshold):
    _log, promotions = _spy_compiles(monkeypatch)
    DynamoRIO(
        Process(loop_image), options=RuntimeOptions(chain_threshold=threshold)
    ).run()
    assert promotions
    assert {count for _, count, _ in promotions} == {threshold}


def _walker_image(load_first):
    """A hot loop of ``[ebx+disp]`` stores and loads plus a push/pop
    pair, walking ``ebx`` up until one access runs past the end of
    memory in the middle of a segment."""
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
    """Segments read and write the buffer inline.  A watch on the last
    lines of memory must still see every store into them, and the
    access that runs past memory must still raise the accessor's fault,
    with the same cycle and instruction totals as the tuple engine and
    a closure table that never promotes."""
    image = _walker_image(load_first)
    outcomes = {}
    in_segment = {}
    for engine, threshold in (
        ("tuple", 1), ("closure", 1), ("closure", 10**9)
    ):
        process = Process(image)
        watched = []
        process.memory.add_write_watcher(
            lambda addr, size: watched.append((addr, size)))
        process.memory.watch_range(
            Layout.MEMORY_SIZE - 0x100, Layout.MEMORY_SIZE)
        options = RuntimeOptions.with_direct_links()
        options.engine = engine
        options.chain_threshold = threshold
        runtime = DynamoRIO(process, options=options, cost_model=CostModel())
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
    message, _, _, watched = outcomes[("closure", 1)]
    assert message.startswith(
        "%s past memory at 0x2000000" % ("read" if load_first else "write"))
    assert len(watched) > 32
    reference = outcomes[("tuple", 1)]
    assert all(outcome == reference for outcome in outcomes.values())
    assert in_segment == {
        ("tuple", 1): False,
        ("closure", 1): True,
        ("closure", 10**9): False,
    }


# ------------------------------------------------ the segment compiler

_EDGES = (0, 1, 2, 15, 16, 127, 128, 255, 256, 0x7FFFFFFF, 0x80000000,
          0x80000001, 0xFFFFFFFE, 0xFFFFFFFF, 0x12345678, 0xDEADBEEF)
_FLAG_OPS = (Opcode.CMP, Opcode.TEST, Opcode.ADD, Opcode.SUB, Opcode.AND,
             Opcode.OR, Opcode.XOR)


def _segment_machine():
    return SimpleNamespace(
        counter=CycleCounter(), memory=Memory(0x1000), system=System())


@pytest.mark.parametrize(
    "opcode", _FLAG_OPS + (Opcode.INC, Opcode.DEC), ids=lambda op: op.name)
def test_segment_flags_match_the_cpu(opcode):
    """Every inline eflags template agrees with the CPU's flag methods
    on edge operands and either incoming carry, in a segment of two
    instructions (the second reads the first's result)."""
    unary = opcode in (Opcode.INC, Opcode.DEC)
    if unary:
        ops = (OPND_REG(Reg.EAX),)
    else:
        ops = (OPND_REG(Reg.EAX), OPND_REG(Reg.EBX))
    second = (OPND_REG(Reg.ECX), OPND_REG(Reg.EAX))
    code = ((OP_EXEC, opcode, ops, 1), (OP_EXEC, Opcode.MOV, second, 1))
    machine = _segment_machine()
    segment = closures_mod.compile_segment(machine, code, [0, 1], 7)
    assert _is_segment(segment)
    for a in _EDGES:
        for b in (_EDGES[:1] if unary else _EDGES):
            for carry in (0, 1):
                expected = CPU()
                expected.regs[Reg.EAX], expected.regs[Reg.EBX] = a, b
                expected.eflags = 0x202 | carry
                got = CPU()
                got.regs[:] = expected.regs
                got.eflags = expected.eflags
                for k in (0, 1):
                    execute_noncti(
                        expected, machine.memory, machine.system,
                        code[k][1], code[k][2])
                ex = SimpleNamespace(instructions=0)
                assert segment(ex, got) == 7
                assert (got.regs, got.eflags) == (
                    expected.regs, expected.eflags), (a, b, carry)
    assert ex.instructions == 2
