"""Chain compilation: dispatch-free execution across linked fragments.

The second compilation tier above :mod:`repro.core.closures`.  The
closure engine compiles one fragment at a time; a *linked transfer*
between two compiled fragments still returns to ``Executor.run``,
which re-checks the budget/alarm/deadline, samples the profiler,
charges the entry cost, and re-enters the step loop — a Python-level
round trip per fragment pass even when the whole working set is hot
and fully linked.

The chain compiler removes that round trip.  When a fragment has been
entered ``options.chain_threshold`` times, :class:`ChainManager`
walks its *stable direct links* (``LinkStub.KIND_DIRECT``, linked, not
``always_stub``) breadth-first up to ``options.chain_max_fragments``
members and concatenates the members' step tables into one flat
super-table.  The steps themselves come from
:func:`~repro.core.closures.compile_steps`, the one place exit steps
are built; this module hands it the data of one build (member bases,
members by tag, the :func:`cross` boundary and the segment compiler):

* linked ``jmp``/``cond``/``call`` exits and dispatch-check hits whose
  target is a chain member become **direct step-index transfers**;
* an indirect exit whose IBL hit is a chain member jumps straight into
  that member's slice of the super-table;
* at each such transfer the run loop's per-pass bookkeeping (budget,
  alarm, deadline/reschedule, profiler sample, entry cost) happens
  without leaving the step loop: the common case is open-coded in the
  exit step as one fused counter update (the deferred exit cost plus
  the next member's entry cost), and :func:`cross` handles the rest;
* straight-line runs of two or more instructions become generated
  source (:meth:`ChainManager._compile_segment`).

Chains are a pure wall-clock optimization: cycles, stats, events and
output are bit-identical to both the closure and the tuple engine —
the three-engine determinism tests assert it.  Chains therefore add
**no** stats counters or event kinds; build/invalidate telemetry lives
in :meth:`ChainManager.report` only.

Correctness under mutation rests on two mechanisms:

* every stitched step re-reads ``stub.linked_to`` and falls back to
  the generic ``_direct_exit`` when the baked target is no longer the
  link (self-validation — covers same-pass mutation by clean calls,
  SMC write watchers, and replacement);
* every unlink chokepoint in the runtime (fragment delete — which
  flush, eviction, SMC invalidation and client quarantine all route
  through — replacement, trace-head promotion and trace shadowing)
  calls :meth:`ChainManager.invalidate`, which dissolves every chain
  embedding the touched fragment via ``fragment.chains_in``
  back-pointers.  Stitched targets are always members, so invalidating
  the touched fragment reaches every baked reference to it.  New link
  *formation* is deliberately not a chokepoint: un-stitched generic
  exit steps read ``linked_to`` at exit time and pick up the fresh
  link, and the fragment gets a better chain at its next promotion.
"""

import sys

from repro.core.closures import compile_steps, plan_fragment
from repro.core.execute import EXIT_DISPATCH, CacheExit
from repro.core.fragments import LinkStub
from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cpu import _PARITY
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti
from repro.machine.memory import pack_u8, pack_u32, unpack_u16, unpack_u32

_MASK32 = 0xFFFFFFFF
_M = "4294967295"  # _MASK32 as a source literal

# Inline eflags templates mirroring the CPU's flag methods statement
# for statement (repro.machine.cpu: flags_sub / flags_add / flags_inc /
# flags_dec / flags_logic), with the flag bits as literals
# (CF=1, PF=4, AF=16, ZF=64, SF=128, OF=2048; ALL=2253) and the parity
# table bound as ``_parity``.  ``_r`` is the 32-bit result; sub/add
# templates consume ``_a``/``_b``.
_RESULT_FLAGS = (
    "(64 if _r == 0 else 0) | (128 if _r & 2147483648 else 0)"
    " | (4 if _parity[_r & 255] else 0)"
)
_LOGIC_FLAGS = "cpu.eflags = (cpu.eflags & ~2253) | " + _RESULT_FLAGS
_SUB_FLAGS = (
    "_r = (_a - _b) & 4294967295; "
    "cpu.eflags = (cpu.eflags & ~2253) | (1 if _a < _b else 0)"
    " | (2048 if ((_a ^ _b) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ _b ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_ADD_FLAGS = (
    "_full = _a + _b; _r = _full & 4294967295; "
    "cpu.eflags = (cpu.eflags & ~2253) | (1 if _full > 4294967295 else 0)"
    " | (2048 if (~(_a ^ _b) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ _b ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_INC_FLAGS = (
    "_a = regs[%d]; _r = (_a + 1) & 4294967295; "
    "cpu.eflags = (cpu.eflags & ~2253) | (cpu.eflags & 1)"
    " | (2048 if (~(_a ^ 1) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ 1 ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_DEC_FLAGS = (
    "_a = regs[%d]; _r = (_a - 1) & 4294967295; "
    "cpu.eflags = (cpu.eflags & ~2253) | (cpu.eflags & 1)"
    " | (2048 if ((_a ^ 1) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ 1 ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)

# Compiled code objects for generated segment sources, keyed by the
# source text: structurally identical runs (common in unrolled loops)
# are compiled by CPython once per process.
_SEGMENT_CODE_CACHE = {}


def _ea_expr(op):
    """Source expression for a MemOperand's effective address —
    mirrors ``exec_ops.compile_ea`` case for case."""
    base, index, scale, disp = op.base, op.index, op.scale, op.disp
    if base is None and index is None:
        return str(disp & _MASK32)
    if index is None:
        if disp == 0:
            return "(regs[%d] & %s)" % (base, _M)
        return "((%d + regs[%d]) & %s)" % (disp, base, _M)
    if base is None:
        return "((%d + regs[%d] * %d) & %s)" % (disp, index, scale, _M)
    return "((%d + regs[%d] + regs[%d] * %d) & %s)" % (
        disp, base, index, scale, _M,
    )


# Memory access in segment source reads and writes the backing buffer
# directly when the address is in range (and, for stores, no write
# protection or watch is armed, tested at store time); otherwise it
# calls the Memory accessor, which performs the checks or raises its
# own fault from the same source line.  ``_e`` holds the address.
_LOAD = {
    4: "(_u32(_buf, _e)[0] if (_e := %s) <= _last4 else read_u32(_e))",
    2: "(_u16(_buf, _e)[0] if (_e := %s) <= _last2 else read_u16(_e))",
    1: "(_buf[_e] if (_e := %s) <= _last1 else read_u8(_e))",
}
_STORE = {
    4: "_p32(_buf, _e, %s & " + _M + ") if (_e := %s) <= _last4"
       " and not _mem.checked_stores else write_u32(_e, %s)",
    1: "_p8(_buf, _e, %s & 255) if (_e := %s) <= _last1"
       " and not _mem.checked_stores else write_u8(_e, %s)",
}


def _store_expr(size, ea, value):
    """Source expression storing the simple expression ``value``
    (evaluated after the address) at address ``ea``."""
    return _STORE[size] % (value, ea, value)


def _read_expr(op):
    """Source expression for an operand read (zero-extended), or None
    — mirrors ``exec_ops.compile_read``."""
    if isinstance(op, RegOperand):
        return "regs[%d]" % op.reg
    if isinstance(op, ImmOperand):
        return str(op.value & _MASK32)
    if isinstance(op, MemOperand):
        return _LOAD[op.size] % _ea_expr(op)
    return None


def _store_stmt(op, value_expr):
    """Source statement writing ``value_expr`` to operand ``op``, or
    None — mirrors ``exec_ops.compile_write``, including its
    value-before-address evaluation order for memory stores (the value
    read may fault; the address arithmetic cannot)."""
    if isinstance(op, RegOperand):
        return "regs[%d] = (%s) & %s" % (op.reg, value_expr, _M)
    if isinstance(op, MemOperand) and op.size in _STORE:
        return "_t = %s; %s" % (
            value_expr, _store_expr(op.size, _ea_expr(op), "_t"))
    return None


def _inline_instr(opcode, ops):
    """One generated source line executing a non-CTI instruction, or
    None when the opcode/operand shape has no inline template (the
    caller then falls back to the compiled per-instruction closure).

    Each template mirrors the corresponding ``exec_ops`` compiler —
    same value masking, same flags calls, same evaluation order — so
    faults and results are identical; the win is purely fewer Python
    calls (no per-instruction closure, no operand-accessor thunks, no
    ``Memory`` method call for an in-range load or unwatched store).
    Every instruction is exactly one source line (compound statements
    via ``;``), so a traceback line identifies the faulting
    instruction.
    """
    if opcode in (Opcode.NOP, Opcode.LABEL):
        return "pass"
    if opcode == Opcode.CMP:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return "_a = %s; _b = %s; %s" % (r0, r1, _SUB_FLAGS)
    if opcode == Opcode.TEST:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return "_r = (%s) & (%s); %s" % (r0, r1, _LOGIC_FLAGS)
    if opcode == Opcode.PUSH:
        r = _read_expr(ops[0])
        if r is None:
            return None
        # Value read before moving esp (push %esp semantics).
        return "_t = %s; regs[4] = (regs[4] - 4) & %s; %s" % (
            r, _M, _store_expr(4, "regs[4]", "_t"))
    if opcode == Opcode.POP:
        store = _store_stmt(ops[0], "_t")
        if store is None:
            return None
        return "_t = %s; regs[4] = (regs[4] + 4) & %s; %s" % (
            _LOAD[4] % ("(regs[4] & %s)" % _M), _M, store)
    if opcode == Opcode.LEA:
        if not isinstance(ops[0], RegOperand) or not isinstance(
            ops[1], MemOperand
        ):
            return None
        return "regs[%d] = %s" % (ops[0].reg, _ea_expr(ops[1]))

    if opcode in (Opcode.MOV, Opcode.MOVZX, Opcode.FLD, Opcode.FST):
        dst, src = ops[0], ops[1]
        if isinstance(dst, RegOperand):
            d = dst.reg
            if isinstance(src, RegOperand):
                return "regs[%d] = regs[%d]" % (d, src.reg)
            if isinstance(src, ImmOperand):
                return "regs[%d] = %d" % (d, src.value & _MASK32)
            if isinstance(src, MemOperand) and src.size == 4:
                return "regs[%d] = %s" % (d, _read_expr(src))
        elif isinstance(dst, MemOperand) and dst.size == 4:
            if isinstance(src, (RegOperand, ImmOperand)):
                return _store_expr(4, _ea_expr(dst), _read_expr(src))
        r = _read_expr(src)
        if r is None:
            return None
        return _store_stmt(dst, r)
    if opcode == Opcode.MOVB_STORE:
        r = _read_expr(ops[1])
        if r is None:
            return None
        return _store_stmt(ops[0], "(%s) & 255" % r)
    if opcode == Opcode.MOVSX:
        src = ops[1]
        if not isinstance(src, MemOperand):
            return None
        r = _read_expr(src)
        if r is None:
            return None
        sign_bit = 1 << (src.size * 8 - 1)
        return _store_stmt(
            ops[0], "((%s ^ %d) - %d) & %s" % (r, sign_bit, sign_bit, _M)
        )

    if opcode in (Opcode.ADD, Opcode.SUB):
        flags = _ADD_FLAGS if opcode == Opcode.ADD else _SUB_FLAGS
        dst = ops[0]
        r1 = _read_expr(ops[1])
        if r1 is None:
            return None
        if isinstance(dst, RegOperand):
            d = dst.reg
            return "_a = regs[%d]; _b = %s; %s; regs[%d] = _r" % (
                d, r1, flags, d,
            )
        method = "flags_add" if opcode == Opcode.ADD else "flags_sub"
        r0 = _read_expr(dst)
        if r0 is None:
            return None
        return _store_stmt(dst, "cpu.%s(%s, %s)" % (method, r0, r1))
    if opcode in (Opcode.INC, Opcode.DEC):
        dst = ops[0]
        if isinstance(dst, RegOperand):
            d = dst.reg
            flags = _INC_FLAGS if opcode == Opcode.INC else _DEC_FLAGS
            return "%s; regs[%d] = _r" % (flags % d, d)
        method = "flags_inc" if opcode == Opcode.INC else "flags_dec"
        r = _read_expr(dst)
        if r is None:
            return None
        return _store_stmt(dst, "cpu.%s(%s)" % (method, r))
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        pyop = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}[opcode]
        dst = ops[0]
        r1 = _read_expr(ops[1])
        if r1 is None:
            return None
        if isinstance(dst, RegOperand):
            d = dst.reg
            return "_r = regs[%d] %s (%s); %s; regs[%d] = _r" % (
                d, pyop, r1, _LOGIC_FLAGS, d,
            )
        r0 = _read_expr(dst)
        if r0 is None:
            return None
        return _store_stmt(
            dst, "cpu.flags_logic((%s) %s (%s))" % (r0, pyop, r1)
        )
    if opcode == Opcode.NOT:
        r = _read_expr(ops[0])
        if r is None:
            return None
        return _store_stmt(ops[0], "~(%s) & %s" % (r, _M))
    if opcode == Opcode.NEG:
        r = _read_expr(ops[0])
        if r is None:
            return None
        return _store_stmt(ops[0], "cpu.flags_neg(%s)" % r)
    if opcode in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        if opcode == Opcode.SHL:
            value = "cpu.flags_shl(%s, (%s) & 31)" % (r0, r1)
        elif opcode == Opcode.SHR:
            value = "cpu.flags_shr(%s, (%s) & 31)" % (r0, r1)
        else:
            value = "cpu.flags_shr(%s, (%s) & 31, arithmetic=True)" % (r0, r1)
        return _store_stmt(ops[0], value)
    if opcode == Opcode.IMUL:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return _store_stmt(ops[0], "cpu.flags_imul(%s, %s)" % (r0, r1))
    if opcode in (Opcode.FADD, Opcode.FSUB):
        pyop = "+" if opcode == Opcode.FADD else "-"
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return _store_stmt(ops[0], "((%s) %s (%s)) & %s" % (r0, pyop, r1, _M))

    # DIV, XCHG, FMUL, FDIV, SYSCALL and anything unrecognized run
    # through their compiled closures.
    return None


class _ChainRecord:
    """One built chain: the root whose ``chain`` holds the table, and
    the members whose steps (and link stubs) the table embeds."""

    __slots__ = ("root", "members", "table", "bases", "dead")

    def __init__(self, root, members, table, bases):
        self.root = root
        self.members = members
        self.table = table
        # Each member's starting index in the super-table, parallel to
        # ``members`` — the key for translating a super-table step back
        # to (member, local step) for detach-time state translation.
        self.bases = bases
        self.dead = False

    def __repr__(self):
        return "<_ChainRecord root=0x%x members=%d steps=%d%s>" % (
            self.root.tag,
            len(self.members),
            len(self.table),
            " dead" if self.dead else "",
        )


class ChainManager:
    """Builds, caches and invalidates chains for one runtime."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.threshold = runtime.options.chain_threshold
        self.max_fragments = runtime.options.chain_max_fragments
        self.built = 0
        self.dissolved = 0
        self._cross = self._make_cross()

    # ------------------------------------------------------------- promotion

    def note_pass(self, fragment):
        """One pass through a chainless fragment.  Returns the freshly
        built chain table at the promotion threshold, else ``None``."""
        count = fragment.chain_counter + 1
        if count < self.threshold:
            fragment.chain_counter = count
            return None
        fragment.chain_counter = 0
        if fragment.deleted:
            return None
        rguard = self.runtime.rguard
        if rguard is None or rguard.recovering:
            return self._build(fragment)
        # drshield: chain building is a runtime chokepoint — a fault
        # here is recorded and the fragment simply keeps running its
        # per-fragment table (chains are a wall-clock optimization, so
        # skipping the build is always safe); repeated chain faults
        # disable the chain subsystem outright.
        from repro.resilience.guard import RUNTIME_PASSTHROUGH

        try:
            rguard.check("chain", fragment.tag)
            return self._build(fragment)
        except RUNTIME_PASSTHROUGH:
            raise
        except Exception as exc:
            rguard.record_fault("chain", fragment.tag, exc)
            return None

    # ----------------------------------------------------------- invalidation

    def invalidate(self, fragment):
        """Dissolve every chain whose table embeds ``fragment``.

        Called at each unlink chokepoint.  A table currently executing
        keeps running correctly (its stitched steps self-validate
        against the live link stubs); this only demotes future entries
        back to per-fragment tables."""
        records = fragment.chains_in
        if not records:
            return
        for record in list(records):
            self._dissolve(record)

    def _dissolve(self, record):
        if record.dead:
            return
        record.dead = True
        root = record.root
        root.chain = None
        root.chain_counter = 0
        for member in record.members:
            try:
                member.chains_in.remove(record)
            except ValueError:
                pass
        self.dissolved += 1

    def translate_step(self, record, index):
        """Application PC for interruption at entry to super-table step
        ``index``: find the owning member's slice and translate through
        that fragment's table (repro.core.translate)."""
        members = record.members
        bases = record.bases
        for pos in range(len(bases) - 1, -1, -1):
            if index >= bases[pos]:
                member = members[pos]
                if member.translation is not None:
                    return member.translation.translate_step(index - bases[pos])
                return member.tag
        return record.root.tag

    def report(self):
        """Build/invalidate telemetry (not part of RunResult.events —
        chains must not perturb the replayable stats/event streams)."""
        return {
            "chains_built": self.built,
            "chains_invalidated": self.dissolved,
            "chains_live": self.built - self.dissolved,
        }

    def check_integrity(self):
        """Debug invariant sweep over every live chain (used by the
        cache-pressure fuzz tests): no live chain may embed a deleted
        fragment, every member's ``chains_in`` back-pointer must reach
        its record, and every record a fragment points at must list it
        as a member.  Returns a list of violation strings (empty =
        clean)."""
        problems = []
        seen = set()
        for thread in self.runtime.threads:
            for cache in (thread.bb_cache, thread.trace_cache):
                if id(cache) in seen:
                    continue
                seen.add(id(cache))
                for fragment in cache.fragments.values():
                    for record in fragment.chains_in:
                        if record.dead:
                            problems.append(
                                "0x%x: chains_in holds a dead record"
                                % fragment.tag
                            )
                            continue
                        if fragment not in record.members:
                            problems.append(
                                "0x%x: back-pointer to a chain that does "
                                "not list it" % fragment.tag
                            )
                        for member in record.members:
                            if member.deleted:
                                problems.append(
                                    "chain rooted at 0x%x embeds deleted "
                                    "0x%x" % (record.root.tag, member.tag)
                                )
                        if record.root.chain is not record.table:
                            problems.append(
                                "chain rooted at 0x%x live but not "
                                "installed" % record.root.tag
                            )
        return problems

    # ---------------------------------------------------------------- building

    def _build(self, root):
        """Stitch ``root`` and its stable linked successors into one
        flat super-table; returns it, or ``None`` when a chain would
        not beat the plain per-fragment table."""
        max_fragments = self.max_fragments
        members = [root]
        seen = {id(root)}
        queue = [root]
        while queue:
            frag = queue.pop(0)
            for stub in frag.exits:
                if stub.kind != LinkStub.KIND_DIRECT or stub.always_stub:
                    continue
                target = stub.linked_to
                if (
                    target is None
                    or target.deleted
                    or id(target) in seen
                    or len(members) >= max_fragments
                ):
                    continue
                seen.add(id(target))
                members.append(target)
                queue.append(target)

        if len(members) == 1 and not any(
            stub.kind == LinkStub.KIND_INDIRECT for stub in root.exits
        ):
            # No stitchable link and no indirect exit that could
            # self-resolve: the chain would be the compiled table with
            # extra overhead.  (The counter was reset — links formed
            # later get another shot after `threshold` more passes.)
            return None

        runtime = self.runtime
        base_of = {}
        bases = []
        total = 0
        for member in members:
            base_of[id(member)] = total
            bases.append(total)
            total += plan_fragment(member.code)[2]
        # IBL hits transfer by application tag; first member wins when
        # a bb and its shadowing trace share one (the identity check in
        # the exit step keeps a stale entry from ever being taken).
        members_by_tag = {}
        for member, base in zip(members, bases):
            members_by_tag.setdefault(member.tag, (member, base))

        table = []
        for member, base in zip(members, bases):
            table.extend(
                compile_steps(
                    member,
                    runtime,
                    base,
                    base_of,
                    members_by_tag,
                    self._cross,
                    self._compile_segment,
                )
            )
        table = tuple(table)

        record = _ChainRecord(root, tuple(members), table, tuple(bases))
        root.chain = table
        for member in members:
            member.chains_in.append(record)
        self.built += 1
        return table

    # ----------------------------------------------------- segment compilation

    def _compile_segment(self, code, run, nxt):
        """Compile one fused OP_EXEC run into an inline-semantics step.

        The closure engine's fused step pays a loop iteration, a tuple
        unpack, two counter increments and one closure call per
        instruction.  Here the run becomes straight-line generated
        source: recognized opcode/operand shapes are translated to
        inline Python mirroring their ``exec_ops`` compilers (register
        file as a local; memory buffer, ``struct`` primitives and
        accessors as globals; same masking, same flags calls, same
        evaluation order), unrecognized shapes fall back to a direct
        call of their compiled closure, and cycles/instructions land in
        one batched update at the end.

        On a mid-run fault (or program exit) the exception's traceback
        line identifies exactly how far the run got — every instruction
        occupies exactly one source line — so the flushed totals match
        the per-instruction engines at every observable point; charges
        are deferred into locals, as the generic fused step already
        does, so only the final sums are ever visible.
        """
        runtime = self.runtime
        counter = runtime.counter
        mem = runtime.memory
        system = runtime.system
        prefix = []
        total = 0
        env = {
            "_sys": sys,
            "_counter": counter,
            "_total": None,  # placeholders, filled in below
            "_nxt": nxt,
            "_flush": None,
            "read_u32": mem.read_u32,
            "read_u16": mem.read_u16,
            "read_u8": mem.read_u8,
            "write_u32": mem.write_u32,
            "write_u8": mem.write_u8,
            "_mem": mem,
            "_buf": mem.view(),
            "_u32": unpack_u32,
            "_u16": unpack_u16,
            "_p32": pack_u32,
            "_p8": pack_u8,
            "_last4": mem.size - 4,
            "_last2": mem.size - 2,
            "_last1": mem.size - 1,
            "_parity": _PARITY,
        }
        lines = [
            "def _segment(ex, cpu):",
            " regs = cpu.regs",
            " try:",
        ]
        line_index = {}
        for k, op_index in enumerate(run):
            op = code[op_index]
            total += op[3]
            prefix.append(total)
            text = _inline_instr(op[1], op[2])
            if text is None:
                name = "_f%d" % k
                env[name] = compile_noncti(op[1], op[2], mem, system)
                text = "%s(cpu)" % name
            lines.append("  " + text)
            line_index[len(lines)] = k
        lines.extend(
            [
                " except BaseException:",
                "  _flush(ex, _sys.exc_info()[2].tb_lineno)",
                "  raise",
                " _counter.cycles += _total",
                " ex.instructions += %d" % len(run),
                " return _nxt",
            ]
        )
        source = "\n".join(lines)
        code_obj = _SEGMENT_CODE_CACHE.get(source)
        if code_obj is None:
            code_obj = compile(source, "<chain-segment>", "exec")
            _SEGMENT_CODE_CACHE[source] = code_obj
        prefix = tuple(prefix)

        def _flush(ex, lineno):
            index = line_index[lineno]
            counter.cycles += prefix[index]
            ex.instructions += index + 1

        env["_total"] = total
        env["_flush"] = _flush
        exec(code_obj, env)
        return env["_segment"]

    # -------------------------------------------------------------- boundary

    def _make_cross(self):
        """The fragment boundary of a stitched transfer: exactly the
        per-pass prologue of ``Executor.run``'s loop (non-first
        iteration), with the previous exit's deferred cycle charge
        (``pending``) landing at the same observable points as the
        generic engines charge it.  Exit steps open-code its common
        case and call it only when that does not apply."""
        runtime = self.runtime
        counter = runtime.counter
        system = runtime.system
        fragment_entry = runtime.cost.fragment_entry

        def cross(ex, fragment, pending):
            budget = ex._budget
            if budget is not None and ex.instructions > budget:
                counter.cycles += pending
                raise MachineFault(
                    "instruction budget exhausted (%d)" % budget
                )
            if system.alarm_active:
                system.convert_alarm(ex.instructions)
                if system.alarm_due(ex.instructions):
                    counter.cycles += pending
                    raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
            if (
                ex._deadline is not None
                and ex.instructions >= ex._deadline
            ) or runtime._need_reschedule:
                counter.cycles += pending
                raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
            profile_enter = ex._profile_enter
            if profile_enter is None:
                # The fused boundary: deferred exit cost + entry cost
                # in one counter update.
                counter.cycles += pending + fragment_entry
            else:
                counter.cycles += pending
                profile_enter(fragment, counter.cycles)
                counter.cycles += fragment_entry

        return cross
