import pytest

from repro.isa.opcodes import Opcode
from repro.isa.operands import OPND_IMM8, OPND_IMM32, OPND_MEM, OPND_REG
from repro.isa.registers import Reg
from repro.machine.cpu import CPU
from repro.machine.errors import MachineFault, ProgramExit
from repro.machine.exec_ops import (
    compile_noncti,
    effective_address,
    execute_noncti,
    read_operand,
    write_operand,
)
from repro.machine.memory import Memory
from repro.machine.system import System


@pytest.fixture
def machine():
    return CPU(), Memory(size=0x10000), System()


def ex(machine, opcode, *ops):
    cpu, mem, system = machine
    execute_noncti(cpu, mem, system, opcode, ops)
    return cpu, mem, system


class TestAddressing:
    def test_effective_address(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EBX] = 0x1000
        cpu.regs[Reg.ECX] = 4
        op = OPND_MEM(base=Reg.EBX, index=Reg.ECX, scale=4, disp=0x20)
        assert effective_address(cpu, op) == 0x1030

    def test_address_wraps(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EBX] = 0xFFFFFFFF
        assert effective_address(cpu, OPND_MEM(base=Reg.EBX, disp=2)) == 1

    def test_read_sizes(self, machine):
        cpu, mem, _ = machine
        mem.write_u32(0x100, 0xAABBCCDD)
        cpu.regs[Reg.ESI] = 0x100
        assert read_operand(cpu, mem, OPND_MEM(base=Reg.ESI, size=1)) == 0xDD
        assert read_operand(cpu, mem, OPND_MEM(base=Reg.ESI, size=2)) == 0xCCDD
        assert read_operand(cpu, mem, OPND_MEM(base=Reg.ESI, size=4)) == 0xAABBCCDD

    def test_write_byte(self, machine):
        cpu, mem, _ = machine
        mem.write_u32(0x100, 0xFFFFFFFF)
        write_operand(cpu, mem, OPND_MEM(disp=0x100, size=1), 0xAB)
        assert mem.read_u32(0x100) == 0xFFFFFFAB


class TestDataMovement:
    def test_mov_reg_imm(self, machine):
        cpu, _, _ = ex(machine, Opcode.MOV, OPND_REG(Reg.EAX), OPND_IMM32(42))
        assert cpu.regs[Reg.EAX] == 42

    def test_movzx(self, machine):
        cpu, mem, _ = machine
        mem.write_u8(0x200, 0xFF)
        ex(machine, Opcode.MOVZX, OPND_REG(Reg.EAX), OPND_MEM(disp=0x200, size=1))
        assert cpu.regs[Reg.EAX] == 0xFF

    def test_movsx(self, machine):
        cpu, mem, _ = machine
        mem.write_u8(0x200, 0xFF)
        ex(machine, Opcode.MOVSX, OPND_REG(Reg.EAX), OPND_MEM(disp=0x200, size=1))
        assert cpu.regs[Reg.EAX] == 0xFFFFFFFF

    def test_lea_does_not_touch_memory(self, machine):
        cpu, mem, _ = machine
        cpu.regs[Reg.EBP] = 0x9000  # out of memory bounds: proves no access
        ex(machine, Opcode.LEA, OPND_REG(Reg.EAX), OPND_MEM(base=Reg.EBP, disp=-8))
        assert cpu.regs[Reg.EAX] == 0x8FF8

    def test_xchg(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EAX], cpu.regs[Reg.EBX] = 1, 2
        ex(machine, Opcode.XCHG, OPND_REG(Reg.EAX), OPND_REG(Reg.EBX))
        assert (cpu.regs[Reg.EAX], cpu.regs[Reg.EBX]) == (2, 1)


class TestStack:
    def test_push_pop(self, machine):
        cpu, mem, _ = machine
        cpu.regs[Reg.ESP] = 0x8000
        ex(machine, Opcode.PUSH, OPND_IMM32(77))
        assert cpu.regs[Reg.ESP] == 0x7FFC
        assert mem.read_u32(0x7FFC) == 77
        ex(machine, Opcode.POP, OPND_REG(Reg.EDI))
        assert cpu.regs[Reg.EDI] == 77
        assert cpu.regs[Reg.ESP] == 0x8000


class TestArithmetic:
    def test_div(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EAX] = 17
        cpu.regs[Reg.EBX] = 5
        ex(machine, Opcode.DIV, OPND_REG(Reg.EBX))
        assert cpu.regs[Reg.EAX] == 3
        assert cpu.regs[Reg.EDX] == 2

    def test_div_by_zero_faults(self, machine):
        with pytest.raises(MachineFault):
            ex(machine, Opcode.DIV, OPND_REG(Reg.EBX))

    def test_add_to_memory(self, machine):
        cpu, mem, _ = machine
        mem.write_u32(0x300, 10)
        ex(machine, Opcode.ADD, OPND_MEM(disp=0x300), OPND_IMM8(5))
        assert mem.read_u32(0x300) == 15

    def test_not_leaves_flags(self, machine):
        cpu, _, _ = machine
        cpu.eflags = 0xFF
        ex(machine, Opcode.NOT, OPND_REG(Reg.EAX))
        assert cpu.eflags == 0xFF
        assert cpu.regs[Reg.EAX] == 0xFFFFFFFF


class TestFixedPointFP:
    def test_fld_fst(self, machine):
        cpu, mem, _ = machine
        mem.write_u32(0x400, 1234)
        ex(machine, Opcode.FLD, OPND_REG(Reg.EAX), OPND_MEM(disp=0x400))
        assert cpu.regs[Reg.EAX] == 1234
        ex(machine, Opcode.FST, OPND_MEM(disp=0x404), OPND_REG(Reg.EAX))
        assert mem.read_u32(0x404) == 1234

    def test_fp_ops_do_not_touch_flags(self, machine):
        cpu, _, _ = machine
        cpu.eflags = 0x1234 & 0xFD5  # some flag pattern
        cpu.regs[Reg.EAX] = 3
        cpu.regs[Reg.EDX] = 4
        before = cpu.eflags
        ex(machine, Opcode.FMUL, OPND_REG(Reg.EAX), OPND_REG(Reg.EDX))
        assert cpu.regs[Reg.EAX] == 12
        assert cpu.eflags == before

    def test_fdiv_truncates_toward_zero(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EAX] = (-7) & 0xFFFFFFFF
        cpu.regs[Reg.EDX] = 2
        ex(machine, Opcode.FDIV, OPND_REG(Reg.EAX), OPND_REG(Reg.EDX))
        assert cpu.regs[Reg.EAX] == (-3) & 0xFFFFFFFF

    def test_fdiv_by_zero_faults(self, machine):
        cpu, _, _ = machine
        with pytest.raises(MachineFault):
            ex(machine, Opcode.FDIV, OPND_REG(Reg.EAX), OPND_REG(Reg.EDX))


class TestSyscalls:
    def test_exit(self, machine):
        cpu, _, system = machine
        cpu.regs[Reg.EAX] = 1
        cpu.regs[Reg.EBX] = 7
        with pytest.raises(ProgramExit) as exc:
            ex(machine, Opcode.SYSCALL)
        assert exc.value.code == 7
        assert system.exit_code == 7

    def test_write_byte_and_u32(self, machine):
        cpu, _, system = machine
        cpu.regs[Reg.EAX] = 2
        cpu.regs[Reg.EBX] = 0x41
        ex(machine, Opcode.SYSCALL)
        cpu.regs[Reg.EAX] = 3
        cpu.regs[Reg.EBX] = 0x12345678
        ex(machine, Opcode.SYSCALL)
        assert system.output_bytes() == b"A" + (0x12345678).to_bytes(4, "little")

    def test_unknown_syscall_faults(self, machine):
        cpu, _, _ = machine
        cpu.regs[Reg.EAX] = 99
        with pytest.raises(MachineFault):
            ex(machine, Opcode.SYSCALL)


class TestCompiledMemoryAccess:
    """Closures from compile_noncti, whose common memory forms read and
    write the buffer directly, against the accessors and the
    interpretive path."""

    STORES = (
        (Opcode.MOV, OPND_MEM(base=Reg.EBX, disp=8), OPND_REG(Reg.EAX)),
        (Opcode.PUSH, OPND_REG(Reg.EAX)),
        (Opcode.MOVB_STORE, OPND_MEM(base=Reg.EBX, disp=8, size=1),
         OPND_REG(Reg.EAX)),
    )

    def _compiled(self, mem):
        system = System()
        return [compile_noncti(op, ops, mem, system)
                for op, *ops in self.STORES]

    def _cpu(self):
        cpu = CPU()
        cpu.regs[Reg.EAX] = 0x11223344
        cpu.regs[Reg.EBX] = 0x1000
        cpu.regs[Reg.ESP] = 0x100C
        return cpu

    def test_watch_armed_after_compile_fires(self):
        mem = Memory(size=0x10000)
        fns = self._compiled(mem)
        seen = []
        mem.add_write_watcher(lambda addr, size: seen.append((addr, size)))
        mem.watch_range(0x1000, 0x1010)
        cpu = self._cpu()
        for fn in fns:
            fn(cpu)
        assert seen == [(0x1008, 4), (0x1008, 4), (0x1008, 1)]

    def test_protection_armed_after_compile_faults(self):
        mem = Memory(size=0x10000)
        fns = self._compiled(mem)
        mem.add_region("code", 0x1000, 0x100, writable=False)
        mem.set_protection(True)
        for fn, size in zip(fns, (4, 4, 1)):
            with pytest.raises(MachineFault) as exc:
                fn(self._cpu())
            assert str(exc.value) == (
                "write of %d bytes to read-only region code at 0x1008" % size
            )
        assert mem.read_bytes(0x1000, 0x10) == bytes(0x10)

    @pytest.mark.parametrize("opcode, size", [
        (Opcode.MOV, 4), (Opcode.MOVZX, 2), (Opcode.MOVZX, 1),
    ])
    def test_fused_load_past_memory_faults_like_the_accessor(
        self, opcode, size
    ):
        mem = Memory(size=0x100)
        mem.add_region("stack", 0xF0, 0x10)
        mem.set_fault_context(lambda: 0x4242)
        fn = compile_noncti(
            opcode,
            (OPND_REG(Reg.EAX), OPND_MEM(base=Reg.EBX, disp=-4, size=size)),
            mem, System(),
        )
        accessor = {4: mem.read_u32, 2: mem.read_u16, 1: mem.read_u8}[size]
        for ebx in (0x100 + 5 - size, 0, 0xFFFFFFFF):
            cpu = CPU()
            cpu.regs[Reg.EBX] = ebx
            addr = (ebx - 4) & 0xFFFFFFFF
            with pytest.raises(MachineFault) as want:
                accessor(addr)
            with pytest.raises(MachineFault) as got:
                fn(cpu)
            assert str(got.value) == str(want.value)
            assert cpu.regs[Reg.EAX] == 0

    def test_fused_store_past_memory_writes_nothing(self):
        mem = Memory(size=0x100)
        cpu = self._cpu()
        cpu.regs[Reg.EBX] = 0xFA
        cpu.regs[Reg.ESP] = 0x102
        for fn in self._compiled(mem):
            with pytest.raises(MachineFault) as exc:
                fn(cpu)
            assert str(exc.value).startswith("write past memory at 0x")
        assert mem.view() == bytes(0x100)

    @pytest.mark.parametrize("mem_op", [
        OPND_MEM(base=Reg.EBX, disp=-8),
        OPND_MEM(base=Reg.EBX, disp=0x7FFFFFF0),
        OPND_MEM(index=Reg.ECX, scale=4, disp=0x200),
        OPND_MEM(index=Reg.ECX, scale=8, disp=-0x10, size=2),
        OPND_MEM(base=Reg.EBX, disp=3, size=1),
        OPND_MEM(disp=0x300),
        OPND_MEM(base=Reg.EBX, index=Reg.ECX, scale=2, disp=1),
    ])
    def test_compiled_matches_interpreted(self, mem_op):
        word = OPND_MEM(base=mem_op.base, index=mem_op.index,
                        scale=mem_op.scale, disp=mem_op.disp)
        cases = [
            (Opcode.MOVZX, OPND_REG(Reg.EAX), mem_op),
            (Opcode.MOVSX, OPND_REG(Reg.EDX), mem_op),
            (Opcode.MOV, OPND_REG(Reg.EAX), word),
            (Opcode.MOV, word, OPND_REG(Reg.EDX)),
            (Opcode.MOV, word, OPND_IMM32(0xCAFE)),
            (Opcode.ADD, word, OPND_REG(Reg.EDX)),
            (Opcode.ADD, OPND_REG(Reg.EDX), word),
            (Opcode.MOVB_STORE, OPND_MEM(base=mem_op.base,
                                         index=mem_op.index,
                                         scale=mem_op.scale,
                                         disp=mem_op.disp, size=1),
             OPND_REG(Reg.EDX)),
            (Opcode.PUSH, word),
            (Opcode.POP, word),
        ]
        for ebx in (0x400, 0x80000020, 0x10):
            states = []
            for compiled in (False, True):
                cpu, mem, system = CPU(), Memory(size=0x1000), System()
                mem.write_bytes(0, bytes(i * 7 & 0xFF for i in range(0x1000)))
                cpu.regs[Reg.EBX] = ebx
                cpu.regs[Reg.ECX] = 0x21
                cpu.regs[Reg.EDX] = 0xF00DFACE
                cpu.regs[Reg.ESP] = 0x800
                trace = []
                for opcode, *ops in cases:
                    try:
                        if compiled:
                            compile_noncti(opcode, ops, mem, system)(cpu)
                        else:
                            execute_noncti(cpu, mem, system, opcode, ops)
                        trace.append(None)
                    except MachineFault as exc:
                        trace.append(str(exc))
                    trace.append((list(cpu.regs), cpu.eflags))
                states.append((trace, bytes(mem.view())))
            assert states[0] == states[1]
