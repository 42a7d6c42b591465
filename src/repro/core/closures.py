"""Closure compilation of fragments: the encode-into-cache step.

:func:`compile_fragment` translates a fragment's lowered op tuples
(``repro.core.emit``) into a flat tuple of *step closures* — the moral
equivalent of DynamoRIO's encoder emitting machine code into the code
cache.  Each step binds everything static about its op at compile time:
operand accessors, pre-summed cycle costs, the exit's
:class:`~repro.core.fragments.LinkStub` object, compiled branch
predicates, and the runtime's memory/system/counter/stats.  The
executor's hot loop then degenerates to ``i = steps[i](executor, cpu)``.

A step returns the index of the next step to run, or ``None`` when the
fragment is done — in which case the step has already resolved the exit
(``executor._next_fragment`` holds the linked/IBL-hit successor, or a
:class:`~repro.core.execute.CacheExit` was raised back to the
dispatcher).

Runs of consecutive straight-line ``OP_EXEC`` ops are *fused* into a
single step that executes the whole run in one call (charging cycles
and instructions exactly as one step per instruction would, including
on a mid-run fault or program exit).  Fusion never spans an intra-fragment
branch target, so ``OP_LOCAL_BR`` indices stay addressable.

Step tables come in two tiers.  Every fragment is emitted with the
cheap tier-1 table above.  On the pass that brings
``fragment.pass_counter`` to ``options.chain_threshold``,
``Executor.run`` rebuilds it with ``compile_fragment(..., hot=True)``:
each fused run of two or more instructions becomes one generated
Python function (:func:`compile_segment`) that inlines the
instructions' semantics and batches their charges.  While trace
building is on only traces tier up: a hot block is superseded by the
trace through it on about the same pass.  A segment replaces
its fused step one for one, so step indices, poll points and state
translation are the same in both tiers, and a table already running
keeps running until its next exit.  Codegen is paid only by code that
has proven hot — the paper's adaptive level of detail, and the lazy
tiering of method JITs.

Only the CPU is passed per call: fragments may be shared between
threads (the thread-shared cache ablation), so per-thread state cannot
be bound at compile time.  Link stubs are bound as objects and their
``linked_to`` fields read at exit time, preserving the link/unlink and
fragment-replacement semantics unchanged.

Both tiers produce **bit-identical** cycles, stats, events and output;
the golden digests of ``GOLDENS.json`` and the determinism tests pin
this end to end.
"""

import sys

from repro.core.emit import (
    CLEAN_CALL_COST,
    OP_CALL_EXIT,
    OP_CALL_INLINE,
    OP_CLEAN_CALL,
    OP_COND_EXIT,
    OP_EXEC,
    OP_IND_CHECK,
    OP_IND_EXIT,
    OP_JMP_EXIT,
    OP_LOCAL_BR,
)
from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cpu import _PARITY, compile_condition
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, compile_read, read_operand
from repro.machine.memory import pack_u8, pack_u32, unpack_u16, unpack_u32
from repro.machine.system import pop_signal_frame
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_DISPATCH_CHECK_HIT,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF


def _compile_target_fetch(operand, mem):
    """Compile the indirect-branch target fetch: fn(cpu) -> target."""
    if operand == "ret":
        read_u32 = mem.read_u32
        buf = mem.view()
        last4 = mem.size - 4

        def pop_ret(cpu):
            regs = cpu.regs
            sp = regs[4] & _MASK32
            # In range: unpack the buffer; else the accessor faults.
            target = unpack_u32(buf, sp)[0] if sp <= last4 else read_u32(sp)
            regs[4] = (sp + 4) & _MASK32
            return target

        return pop_ret
    if operand == "iret":
        return lambda cpu: pop_signal_frame(cpu, mem)
    fetch = compile_read(operand, mem)
    if fetch is None:
        return lambda cpu: read_operand(cpu, mem, operand)
    return fetch


def plan_fragment(code):
    """Plan the op-index → step-index mapping, fusing OP_EXEC runs.

    Returns ``(plans, step_of, table_len)``: ``plans`` is a list of
    ``("run", [op indices])`` / ``("op", op index)`` entries, one per
    step; ``step_of`` maps op indices (and the one-past-the-end index)
    to step indices; ``table_len`` counts the trailing fell-through
    sentinel step.  Shared by :func:`compile_steps` and the state
    translator (:mod:`repro.core.translate`).
    """
    # Intra-fragment branch targets must begin a step of their own.
    branch_targets = set()
    for op in code:
        if op[0] == OP_LOCAL_BR:
            branch_targets.add(op[2])

    plans = []
    step_of = {}
    n_ops = len(code)
    i = 0
    while i < n_ops:
        if code[i][0] == OP_EXEC:
            run = [i]
            j = i + 1
            while (
                j < n_ops
                and code[j][0] == OP_EXEC
                and j not in branch_targets
            ):
                run.append(j)
                j += 1
            step_of[i] = len(plans)
            plans.append(("run", run))
            i = j
        else:
            step_of[i] = len(plans)
            plans.append(("op", i))
            i += 1
    sentinel_index = len(plans)
    step_of[n_ops] = sentinel_index
    return plans, step_of, sentinel_index + 1


def compile_fragment(fragment, runtime, hot=False):
    """Compile ``fragment.code`` into step closures; caches the result
    on ``fragment.compiled`` and returns it.

    With ``hot``, straight-line runs of two or more instructions become
    generated source (:func:`compile_segment`): the tier-2 table that
    ``Executor.run`` swaps in once a fragment has made
    ``options.chain_threshold`` passes.  Each segment replaces its fused
    step one for one, so step indices, poll points and translation are
    the same in both tables.
    """
    compiled = tuple(
        compile_steps(
            fragment,
            runtime,
            compile_segment=compile_segment if hot else None,
        )
    )
    fragment.compiled = compiled
    return compiled


def _exit_clean_call(runtime, fn, role, tag, target):
    """An indirect exit's checker or profiler clean call: its cost, the
    stat, the event, then the call itself (routed through the client
    guard when one is installed)."""
    runtime.counter.cycles += CLEAN_CALL_COST
    runtime.stats.clean_calls += 1
    observer = runtime.observer
    if observer is not None:
        observer.emit(EV_CLEAN_CALL, tag, role=role, target=target)
    guard = runtime.guard
    if guard is None:
        fn(runtime.current_thread, target)
    else:
        guard.call(fn, (runtime.current_thread, target), tag=tag, role=role)


def compile_steps(fragment, runtime, compile_segment=None):
    """Compile ``fragment.code`` into a list of step closures.

    This is the only place exit steps are built.  With
    ``compile_segment(runtime, code, run, nxt)`` (hot tables pass
    :func:`compile_segment`), an ``OP_EXEC`` run of two or more
    instructions compiles to generated source in place of the generic
    fused step.

    Under ``options.precise_interrupts`` every poll-point step, whatever
    built it, is wrapped exactly once by
    :func:`~repro.core.translate.wrap_poll_steps`.
    """
    code = fragment.code
    exits = fragment.exits
    mem = runtime.memory
    system = runtime.system
    counter = runtime.counter
    stats = runtime.stats
    taken_penalty = runtime.cost.taken_branch_penalty
    write_u32 = mem.write_u32
    # Call pushes store into the buffer in range and while no store
    # check is armed (tested at store time); else through write_u32.
    buf = mem.view()
    last4 = mem.size - 4
    tag = fragment.tag

    plans, step_of, _table_len = plan_fragment(code)
    sentinel_index = len(plans)

    def next_step(op_index):
        return step_of.get(op_index, sentinel_index)

    steps = []
    for plan_kind, payload in plans:
        if plan_kind == "run":
            nxt = next_step(payload[-1] + 1)
            if compile_segment is not None and len(payload) > 1:
                steps.append(compile_segment(runtime, code, payload, nxt))
                continue
            pairs = tuple(
                (code[k][3], compile_noncti(code[k][1], code[k][2], mem, system))
                for k in payload
            )
            if len(pairs) == 1:
                c, fn = pairs[0]

                def exec_step(ex, cpu, _c=c, _fn=fn, _nxt=nxt):
                    counter.cycles += _c
                    ex.instructions += 1
                    _fn(cpu)
                    return _nxt

                steps.append(exec_step)
            else:

                def fused_step(ex, cpu, _pairs=pairs, _nxt=nxt):
                    cycles = 0
                    done = 0
                    try:
                        for c, fn in _pairs:
                            cycles += c
                            done += 1
                            fn(cpu)
                    finally:
                        # Flush even when an instruction faults or exits
                        # the program: totals match one step per
                        # instruction at every observable point.
                        counter.cycles += cycles
                        ex.instructions += done
                    return _nxt

                steps.append(fused_step)
            continue

        op_index = payload
        op = code[op_index]
        kind = op[0]
        nxt = next_step(op_index + 1)

        if kind == OP_COND_EXIT:
            cond = compile_condition(op[1])

            def cond_exit_step(
                ex,
                cpu,
                _cond=cond,
                _stub=exits[op[2]],
                _c=op[3],
                _ct=op[3] + taken_penalty,
                _nxt=nxt,
            ):
                ex.instructions += 1
                if _cond(cpu.eflags):
                    counter.cycles += _ct
                    ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                    return None
                counter.cycles += _c
                return _nxt

            steps.append(cond_exit_step)

        elif kind == OP_JMP_EXIT:

            def jmp_exit_step(
                ex, cpu, _stub=exits[op[1]], _ct=op[2] + taken_penalty
            ):
                ex.instructions += 1
                counter.cycles += _ct
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(jmp_exit_step)

        elif kind == OP_CALL_EXIT:

            def call_exit_step(
                ex,
                cpu,
                _stub=exits[op[1]],
                _ra=op[2] & _MASK32,
                _ct=op[3] + taken_penalty,
            ):
                ex.instructions += 1
                # Charged before the push: the store may trip the SMC
                # write watcher, whose charges land after this exit's.
                counter.cycles += _ct
                regs = cpu.regs
                sp = (regs[4] - 4) & _MASK32
                regs[4] = sp
                if sp <= last4 and not mem.checked_stores:
                    pack_u32(buf, sp, _ra)
                else:
                    write_u32(sp, _ra)
                # The link is read after the push: the store may have
                # just unlinked the stub.
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(call_exit_step)

        elif kind == OP_CALL_INLINE:
            ret_addr = op[1] & _MASK32
            c = op[2]

            def call_inline_step(ex, cpu, _ra=ret_addr, _c=c, _nxt=nxt):
                # Inlined call in a trace: push and fall through (no
                # taken penalty — superior trace layout).
                ex.instructions += 1
                counter.cycles += _c
                regs = cpu.regs
                sp = (regs[4] - 4) & _MASK32
                regs[4] = sp
                if sp <= last4 and not mem.checked_stores:
                    pack_u32(buf, sp, _ra)
                else:
                    write_u32(sp, _ra)
                return _nxt

            steps.append(call_inline_step)

        elif kind == OP_IND_EXIT:
            _k, exit_idx, operand, is_call, ret_addr, profiler, checker, c = op

            def ind_exit_step(
                ex,
                cpu,
                _fetch=_compile_target_fetch(operand, mem),
                _stub=exits[exit_idx],
                _is_call=is_call,
                _ra=ret_addr & _MASK32 if is_call else None,
                _profiler=profiler,
                _checker=checker,
                _ct=c + taken_penalty,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    _exit_clean_call(runtime, _checker, "checker", _tag, target)
                if _is_call:
                    regs = cpu.regs
                    sp = (regs[4] - 4) & _MASK32
                    regs[4] = sp
                    if sp <= last4 and not mem.checked_stores:
                        pack_u32(buf, sp, _ra)
                    else:
                        write_u32(sp, _ra)
                counter.cycles += _ct
                if _profiler is not None:
                    _exit_clean_call(
                        runtime, _profiler, "profiler", _tag, target
                    )
                ex._next_fragment = ex._indirect_exit(
                    _stub, target, cpu, mem, system
                )
                return None

            steps.append(ind_exit_step)

        elif kind == OP_IND_CHECK:
            (
                _k,
                ibl_idx,
                operand,
                expected,
                dispatch,
                is_call,
                ret_addr,
                profiler,
                checker,
                c,
                check_cost,
            ) = op
            dispatch_entries = tuple(
                (d_tag, exits[d_idx]) for d_tag, d_idx in dispatch
            )

            def ind_check_step(
                ex,
                cpu,
                _fetch=_compile_target_fetch(operand, mem),
                _expected=expected,
                _dispatch=dispatch_entries,
                _ibl_stub=exits[ibl_idx],
                _is_call=is_call,
                _ra=ret_addr & _MASK32 if is_call else None,
                _profiler=profiler,
                _checker=checker,
                _c=c,
                _check_cost=check_cost,
                _nxt=nxt,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    _exit_clean_call(runtime, _checker, "checker", _tag, target)
                if _is_call:
                    regs = cpu.regs
                    sp = (regs[4] - 4) & _MASK32
                    regs[4] = sp
                    if sp <= last4 and not mem.checked_stores:
                        pack_u32(buf, sp, _ra)
                    else:
                        write_u32(sp, _ra)
                counter.cycles += _c
                if target == _expected:
                    stats.inline_check_hits += 1
                    observer = runtime.observer
                    if observer is not None:
                        observer.emit(EV_INLINE_CHECK_HIT, _tag, target=target)
                    return _nxt
                for d_tag, d_stub in _dispatch:
                    counter.cycles += _check_cost
                    if target != d_tag:
                        continue
                    stats.dispatch_check_hits += 1
                    observer = runtime.observer
                    if observer is not None:
                        observer.emit(EV_DISPATCH_CHECK_HIT, _tag, target=target)
                    counter.cycles += taken_penalty
                    ex._next_fragment = ex._direct_exit(d_stub, cpu, mem, system)
                    return None
                if _profiler is not None:
                    _exit_clean_call(
                        runtime, _profiler, "profiler", _tag, target
                    )
                counter.cycles += taken_penalty
                ex._next_fragment = ex._indirect_exit(
                    _ibl_stub, target, cpu, mem, system
                )
                return None

            steps.append(ind_check_step)

        elif kind == OP_LOCAL_BR:
            _k, jcc, target_index, c = op
            target_step = next_step(target_index)
            if jcc is None:

                def local_jmp_step(ex, cpu, _t=target_step, _c=c):
                    ex.instructions += 1
                    counter.cycles += _c + taken_penalty
                    return _t

                steps.append(local_jmp_step)
            else:
                cond = compile_condition(jcc)

                def local_br_step(
                    ex, cpu, _cond=cond, _t=target_step, _c=c, _nxt=nxt
                ):
                    ex.instructions += 1
                    if _cond(cpu.eflags):
                        counter.cycles += _c + taken_penalty
                        return _t
                    counter.cycles += _c
                    return _nxt

                steps.append(local_br_step)

        elif kind == OP_CLEAN_CALL:
            fn = op[1]
            c = op[2]

            def clean_call_step(ex, cpu, _fn=fn, _c=c, _nxt=nxt, _tag=tag):
                counter.cycles += _c
                stats.clean_calls += 1
                observer = ex.runtime.observer
                if observer is not None:
                    observer.emit(EV_CLEAN_CALL, _tag, role="call")
                guard = ex.runtime.guard
                if guard is None:
                    _fn(ex.runtime.current_thread)
                else:
                    guard.call(
                        _fn,
                        (ex.runtime.current_thread,),
                        tag=_tag,
                        role="clean_call",
                    )
                return _nxt

            steps.append(clean_call_step)

        else:
            raise MachineFault("unknown fragment op kind %r" % (kind,))

    if runtime.options.precise_interrupts and fragment.translation is not None:
        # Wrap the application-consistent steps with the interrupt poll
        # (repro.core.translate).
        from repro.core.translate import wrap_poll_steps

        wrap_poll_steps(fragment, runtime, plans, steps)

    def fell_through_step(ex, cpu, _tag=tag):
        # Only reachable when a fragment has no terminating exit —
        # fragments are built so this cannot happen.
        raise MachineFault(
            "fragment 0x%x fell through without an exit" % _tag
        )

    steps.append(fell_through_step)
    return steps


# --------------------------------------------------------------------------
# Tier 2: generated-source segments
# --------------------------------------------------------------------------

_M = "4294967295"  # _MASK32 as a source literal

# Inline eflags templates computing what the CPU's flag methods compute
# (repro.machine.cpu: flags_sub / flags_add / flags_inc / flags_dec /
# flags_logic), branch-free: each flag's source bit is shifted into
# place (OF: bit 31 >> 20 = 2048; SF: bit 31 >> 24 = 128; CF of an add:
# bit 32 >> 32 = 1), comparisons contribute a bool, and ``_pf`` maps the
# low result byte to PF (4) or 0.  Flag bits: CF=1, PF=4, AF=16, ZF=64,
# SF=128, OF=2048; ALL=2253.  ``_r`` is the 32-bit result; sub/add
# templates consume ``_a``/``_b``.  Short templates also keep CPython's
# compile() cost, which dominates promotion, down.
_RESULT_FLAGS = "(_r == 0) << 6 | _r >> 24 & 128 | _pf[_r & 255]"
_LOGIC_FLAGS = "cpu.eflags = cpu.eflags & ~2253 | " + _RESULT_FLAGS
_SUB_FLAGS = (
    "_r = (_a - _b) & 4294967295; "
    "cpu.eflags = cpu.eflags & ~2253 | (_a < _b)"
    " | ((_a ^ _b) & (_a ^ _r)) >> 20 & 2048"
    " | (_a ^ _b ^ _r) & 16 | " + _RESULT_FLAGS
)
_ADD_FLAGS = (
    "_full = _a + _b; _r = _full & 4294967295; "
    "cpu.eflags = cpu.eflags & ~2253 | _full >> 32"
    " | (~(_a ^ _b) & (_a ^ _r)) >> 20 & 2048"
    " | (_a ^ _b ^ _r) & 16 | " + _RESULT_FLAGS
)
# inc/dec keep CF: clear the other five flags (~2252).
_INC_FLAGS = (
    "_a = regs[%d]; _r = (_a + 1) & 4294967295; "
    "cpu.eflags = cpu.eflags & ~2252"
    " | (~(_a ^ 1) & (_a ^ _r)) >> 20 & 2048"
    " | (_a ^ 1 ^ _r) & 16 | " + _RESULT_FLAGS
)
_DEC_FLAGS = (
    "_a = regs[%d]; _r = (_a - 1) & 4294967295; "
    "cpu.eflags = cpu.eflags & ~2252"
    " | ((_a ^ 1) & (_a ^ _r)) >> 20 & 2048"
    " | (_a ^ 1 ^ _r) & 16 | " + _RESULT_FLAGS
)
_PF = bytes(4 if even else 0 for even in _PARITY)

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


def compile_segment(runtime, code, run, nxt):
    """Compile one fused OP_EXEC run into an inline-semantics step.

    The cold table's fused step pays a loop iteration, a tuple unpack,
    two counter increments and one closure call per instruction.  Here
    the run becomes straight-line generated source: recognized
    opcode/operand shapes are translated to inline Python mirroring
    their ``exec_ops`` compilers (register file as a local; memory
    buffer, ``struct`` primitives and accessors as globals; same
    masking, same flag results, same evaluation order), unrecognized
    shapes fall back to a direct call of their compiled closure, and
    cycles/instructions land in one batched update at the end.

    On a mid-run fault (or program exit) the exception's traceback
    line identifies exactly how far the run got — every instruction
    occupies exactly one source line — so the flushed totals match
    one step per instruction at every observable point; charges
    are deferred into locals, as the generic fused step already
    does, so only the final sums are ever visible.
    """
    counter = runtime.counter
    mem = runtime.memory
    system = runtime.system
    prefix = []
    total = 0
    env = {
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
        "_pf": _PF,
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
            "  _flush(ex)",
            "  raise",
            " _counter.cycles += _total",
            " ex.instructions += %d" % len(run),
            " return _nxt",
        ]
    )
    source = "\n".join(lines)
    code_obj = _SEGMENT_CODE_CACHE.get(source)
    if code_obj is None:
        code_obj = compile(source, "<segment>", "exec")
        _SEGMENT_CODE_CACHE[source] = code_obj
    prefix = tuple(prefix)

    def _flush(ex):
        # Called from the segment's handler: the traceback's first
        # entry is the segment frame, at the line that raised.
        index = line_index[sys.exc_info()[2].tb_lineno]
        counter.cycles += prefix[index]
        ex.instructions += index + 1

    env["_total"] = total
    env["_flush"] = _flush
    exec(code_obj, env)
    return env["_segment"]
