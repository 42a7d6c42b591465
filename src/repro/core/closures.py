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
and instructions exactly as the per-op engine would, including on a
mid-run fault or program exit).  Fusion never spans an intra-fragment
branch target, so ``OP_LOCAL_BR`` indices stay addressable.

Only the CPU is passed per call: fragments may be shared between
threads (the thread-shared cache ablation), so per-thread state cannot
be bound at compile time.  Link stubs are bound as objects and their
``linked_to`` fields read at exit time, preserving the link/unlink and
fragment-replacement semantics unchanged.

Compiled steps produce **bit-identical** cycles, stats, events and
output to the tuple-dispatch engine; the determinism regression tests
assert this end to end.
"""

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
from repro.core.fragments import LinkStub
from repro.machine.cpu import compile_condition
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, compile_read, read_operand
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

        def pop_ret(cpu):
            regs = cpu.regs
            target = read_u32(regs[4])
            regs[4] = (regs[4] + 4) & _MASK32
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
    sentinel step.  Shared by :func:`compile_steps` and the chain
    compiler (which must know a member's table length before any of
    its stitched steps are built).
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


def compile_fragment(fragment, runtime):
    """Compile ``fragment.code`` into step closures; caches the result
    on ``fragment.compiled`` and returns it."""
    compiled = tuple(compile_steps(fragment, runtime))
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


def compile_steps(
    fragment,
    runtime,
    base=0,
    base_of=None,
    members_by_tag=None,
    cross=None,
    compile_segment=None,
):
    """Compile ``fragment.code`` into a list of step closures.

    This is the only place exit steps are built.  The arguments after
    ``runtime`` are the chain compiler's (:mod:`repro.core.chains`)
    data for one super-table build; the closure engine passes none.

    * ``base`` offsets every produced step index: a chain concatenates
      its members' step lists into one flat table, so intra-fragment
      transfers and fall-throughs address their member's slice of it.
    * ``base_of`` maps ``id(member)`` to the member's base.  A direct
      exit (cond taken, jmp, call, dispatch-check hit) whose stub is
      linked to a member bakes ``(target, base)``; at run time it
      re-reads ``stub.linked_to is target`` and transfers inside the
      table, else it leaves through ``Executor._direct_exit`` as usual.
    * ``members_by_tag`` maps an application tag to ``(member, base)``:
      an indirect exit whose IBL hit is that member jumps to its base.
    * ``cross(ex, target, pending)`` is the fragment boundary a
      stitched transfer performs instead of returning to
      ``Executor.run``.  The common case (``ex._stitch_limit`` not
      reached, no alarm, no reschedule) is open-coded in each exit
      step as one counter update; ``cross`` derives the exact
      charge/raise order in every other case.
    * ``compile_segment(code, run, nxt)`` compiles an ``OP_EXEC`` run of
      two or more instructions in place of the generic fused step.

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
    fragment_entry = runtime.cost.fragment_entry
    write_u32 = mem.write_u32
    tag = fragment.tag

    plans, step_of, _table_len = plan_fragment(code)
    sentinel_index = len(plans)

    def next_step(op_index):
        return step_of.get(op_index, sentinel_index) + base

    def stitch_of(stub):
        """``(target, target_base)`` when ``stub`` is a stable direct
        link to a chain member, else ``(None, 0)``."""
        if (
            base_of is None
            or stub.kind != LinkStub.KIND_DIRECT
            or stub.always_stub
        ):
            return None, 0
        target = stub.linked_to
        target_base = base_of.get(id(target))
        if target_base is None:
            return None, 0
        return target, target_base

    steps = []
    for plan_kind, payload in plans:
        if plan_kind == "run":
            nxt = next_step(payload[-1] + 1)
            if compile_segment is not None and len(payload) > 1:
                steps.append(compile_segment(code, payload, nxt))
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
                        # the program: totals match the per-op engine at
                        # every observable point.
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
            stub = exits[op[2]]
            target, target_base = stitch_of(stub)

            def cond_exit_step(
                ex,
                cpu,
                _cond=cond,
                _stub=stub,
                _c=op[3],
                _ct=op[3] + taken_penalty,
                _nxt=nxt,
                _target=target,
                _tbase=target_base,
            ):
                ex.instructions += 1
                if _cond(cpu.eflags):
                    if _target is not None and _stub.linked_to is _target:
                        if (
                            ex.instructions < ex._stitch_limit
                            and not system.alarm_active
                            and not runtime._need_reschedule
                        ):
                            counter.cycles += _ct + fragment_entry
                        else:
                            cross(ex, _target, _ct)
                        return _tbase
                    counter.cycles += _ct
                    ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                    return None
                counter.cycles += _c
                return _nxt

            steps.append(cond_exit_step)

        elif kind == OP_JMP_EXIT:
            stub = exits[op[1]]
            target, target_base = stitch_of(stub)

            def jmp_exit_step(
                ex,
                cpu,
                _stub=stub,
                _ct=op[2] + taken_penalty,
                _target=target,
                _tbase=target_base,
            ):
                ex.instructions += 1
                if _target is not None and _stub.linked_to is _target:
                    if (
                        ex.instructions < ex._stitch_limit
                        and not system.alarm_active
                        and not runtime._need_reschedule
                    ):
                        counter.cycles += _ct + fragment_entry
                    else:
                        cross(ex, _target, _ct)
                    return _tbase
                counter.cycles += _ct
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(jmp_exit_step)

        elif kind == OP_CALL_EXIT:
            stub = exits[op[1]]
            target, target_base = stitch_of(stub)

            def call_exit_step(
                ex,
                cpu,
                _stub=stub,
                _ra=op[2],
                _ct=op[3] + taken_penalty,
                _target=target,
                _tbase=target_base,
            ):
                ex.instructions += 1
                # Charged before the push: the store may trip the SMC
                # write watcher, whose charges land after this exit's.
                counter.cycles += _ct
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                # Link re-read after the push: the store may have just
                # invalidated the baked target.
                if _target is not None and _stub.linked_to is _target:
                    if (
                        ex.instructions < ex._stitch_limit
                        and not system.alarm_active
                        and not runtime._need_reschedule
                    ):
                        counter.cycles += fragment_entry
                    else:
                        cross(ex, _target, 0)
                    return _tbase
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(call_exit_step)

        elif kind == OP_CALL_INLINE:
            ret_addr = op[1]
            c = op[2]

            def call_inline_step(ex, cpu, _ra=ret_addr, _c=c, _nxt=nxt):
                # Inlined call in a trace: push and fall through (no
                # taken penalty — superior trace layout).
                ex.instructions += 1
                counter.cycles += _c
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
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
                _ra=ret_addr,
                _profiler=profiler,
                _checker=checker,
                _ct=c + taken_penalty,
                _tag=tag,
                _members=members_by_tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    _exit_clean_call(runtime, _checker, "checker", _tag, target)
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _ct
                if _profiler is not None:
                    _exit_clean_call(
                        runtime, _profiler, "profiler", _tag, target
                    )
                fragment = ex._indirect_exit(_stub, target, cpu, mem, system)
                if _members is not None:
                    member = _members.get(target)
                    if member is not None and member[0] is fragment:
                        if (
                            ex.instructions < ex._stitch_limit
                            and not system.alarm_active
                            and not runtime._need_reschedule
                        ):
                            counter.cycles += fragment_entry
                        else:
                            cross(ex, fragment, 0)
                        return member[1]
                ex._next_fragment = fragment
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
            # (tag, stub, stitched target or None, target base) per entry.
            dispatch_entries = tuple(
                (d_tag, exits[d_idx]) + stitch_of(exits[d_idx])
                for d_tag, d_idx in dispatch
            )

            def ind_check_step(
                ex,
                cpu,
                _fetch=_compile_target_fetch(operand, mem),
                _expected=expected,
                _dispatch=dispatch_entries,
                _ibl_stub=exits[ibl_idx],
                _is_call=is_call,
                _ra=ret_addr,
                _profiler=profiler,
                _checker=checker,
                _c=c,
                _check_cost=check_cost,
                _nxt=nxt,
                _tag=tag,
                _members=members_by_tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    _exit_clean_call(runtime, _checker, "checker", _tag, target)
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c
                if target == _expected:
                    stats.inline_check_hits += 1
                    observer = runtime.observer
                    if observer is not None:
                        observer.emit(EV_INLINE_CHECK_HIT, _tag, target=target)
                    return _nxt
                for d_tag, d_stub, d_target, d_base in _dispatch:
                    counter.cycles += _check_cost
                    if target != d_tag:
                        continue
                    stats.dispatch_check_hits += 1
                    observer = runtime.observer
                    if observer is not None:
                        observer.emit(EV_DISPATCH_CHECK_HIT, _tag, target=target)
                    counter.cycles += taken_penalty
                    if d_target is not None and d_stub.linked_to is d_target:
                        if (
                            ex.instructions < ex._stitch_limit
                            and not system.alarm_active
                            and not runtime._need_reschedule
                        ):
                            counter.cycles += fragment_entry
                        else:
                            cross(ex, d_target, 0)
                        return d_base
                    ex._next_fragment = ex._direct_exit(d_stub, cpu, mem, system)
                    return None
                if _profiler is not None:
                    _exit_clean_call(
                        runtime, _profiler, "profiler", _tag, target
                    )
                counter.cycles += taken_penalty
                fragment = ex._indirect_exit(
                    _ibl_stub, target, cpu, mem, system
                )
                if _members is not None:
                    member = _members.get(target)
                    if member is not None and member[0] is fragment:
                        if (
                            ex.instructions < ex._stitch_limit
                            and not system.alarm_active
                            and not runtime._need_reschedule
                        ):
                            counter.cycles += fragment_entry
                        else:
                            cross(ex, fragment, 0)
                        return member[1]
                ex._next_fragment = fragment
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
