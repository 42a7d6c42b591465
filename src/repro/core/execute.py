"""The in-cache execution engine.

Executes fragment op streams against the application's CPU/memory,
chaining through linked exits without leaving the cache; returns to the
dispatcher only on an unlinked exit or an IBL miss — the
performance-critical dotted lines of the paper's Figure 1.

Cycle charging:

* every op carries its pre-computed instruction cost;
* taken control transfers add the hardware taken-branch penalty;
* indirect branches resolved in-cache pay ``ibl_lookup`` (the hashtable)
  or the per-pair compare cost when a trace-inlined check/dispatch hits;
* unlinked exits pay the exit stub and a full context switch.

The engine reads ``fragment.code`` once into a local — so a fragment
replaced mid-execution (adaptive optimization) keeps running its old
code until the next exit, exactly the paper's replacement semantics.

Three interchangeable engines drive the op stream, selected by
``options.engine``:

* the **closure engine** (default, ``"closure"``) runs the fragment's
  closure-compiled step table (:mod:`repro.core.closures`) — each step
  has its operand accessors, costs and link stubs pre-bound, so the
  loop is just ``i = steps[i](self, cpu)``.  The loop counts each
  fragment's passes in ``fragment.pass_counter``; the pass that
  reaches ``options.chain_threshold`` first swaps in the fragment's
  tier-2 table, whose straight-line runs are generated source (traces
  only, while ``options.traces`` is on);
* the **chain engine** (``"chain"``) runs the same steps, concatenated
  across hot linked fragments into one super-table
  (:mod:`repro.core.chains`), so linked transfers and IBL hits on chain
  members stay inside the step loop instead of returning here.  It
  promotes fragment tables the same way, and keeps counting to try a
  chain build every ``chain_threshold`` passes;
* the **tuple engine** (``"tuple"``) interprets the lowered op tuples
  directly (:meth:`Executor._run_ops`), kept as the regression
  reference.

All three charge cycles and update stats identically; the determinism
tests assert bit-identical results across engines.
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
from repro.core.closures import compile_fragment
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import execute_noncti, read_operand
from repro.machine.system import pop_signal_frame
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_CONTEXT_SWITCH,
    EV_DISPATCH_CHECK_HIT,
    EV_IBL_HIT,
    EV_IBL_MISS,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF

# Exit reasons returned to the dispatcher.
EXIT_DISPATCH = "dispatch"  # unlinked exit; next_tag + stub
EXIT_IBL_MISS = "ibl_miss"  # indirect target not in table
# Mid-fragment interrupt poll fired (options.precise_interrupts): a due
# alarm or a pending detach unwound at an application-consistent step;
# next_tag is the *translated* source PC (repro.core.translate).
EXIT_INTERRUPT = "interrupt"


class CacheExit(Exception):
    """Internal non-local exit used to unwind the op loop."""

    def __init__(self, reason, next_tag, stub):
        self.reason = reason
        self.next_tag = next_tag
        self.stub = stub


class Executor:
    """Executes fragments for one runtime (shared across its threads)."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.instructions = 0
        # Set by closure-compiled exit steps before they return None.
        self._next_fragment = None
        # Per-run() state mirrored onto the executor so chain boundary
        # steps (repro.core.chains) see exactly what the run loop sees.
        self._budget = None
        self._deadline = None
        self._profile_enter = None
        # Stitched exit steps take the fused boundary while
        # ``instructions < _stitch_limit`` (and no alarm or reschedule
        # is pending); see run().
        self._stitch_limit = -1

    # ------------------------------------------------------------ exit paths

    def _run_stub_ops(self, stub_ops, cpu, mem, system, counter):
        for op in stub_ops:
            if op[0] == OP_CLEAN_CALL:
                counter.cycles += op[2]
                guard = self.runtime.guard
                if guard is None:
                    op[1](self.runtime.current_thread)
                else:
                    guard.call(
                        op[1],
                        (self.runtime.current_thread,),
                        role="stub_call",
                    )
            else:
                counter.cycles += op[3]
                execute_noncti(cpu, mem, system, op[1], op[2])

    def _direct_exit(self, stub, cpu, mem, system):
        """Leave through a direct exit; returns the next fragment or
        raises CacheExit back to the dispatcher."""
        runtime = self.runtime
        counter = runtime.counter
        linked = stub.linked_to
        if linked is not None and not stub.always_stub:
            return linked
        if stub.stub_ops:
            self._run_stub_ops(stub.stub_ops, cpu, mem, system, counter)
        if stub.always_stub and linked is not None:
            return linked
        counter.cycles += runtime.cost.context_switch
        runtime.stats.context_switches += 1
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CONTEXT_SWITCH,
                stub.target_tag,
                from_tag=stub.fragment.tag,
                reason=EXIT_DISPATCH,
            )
        raise CacheExit(EXIT_DISPATCH, stub.target_tag, stub)

    def _indirect_exit(self, stub, target, cpu, mem, system):
        """Leave through an indirect exit: returns the IBL hit, or runs
        any stub code, charges the context switch and raises CacheExit
        back to the dispatcher."""
        runtime = self.runtime
        stats = runtime.stats
        observer = runtime.observer
        if runtime.options.link_indirect:
            runtime.counter.cycles += runtime.cost.ibl_lookup
            # One dict probe; hit/miss accounting is done here, at the
            # caller, so the table itself stays plumbing-free.
            fragment = runtime.current_thread.ibl.table.get(target)
            if fragment is not None:
                stats.ibl_hits += 1
                if observer is not None:
                    observer.emit(
                        EV_IBL_HIT, target, fragment_kind=fragment.kind
                    )
                return fragment
            stats.ibl_misses += 1
            if observer is not None:
                observer.emit(EV_IBL_MISS, target)
        counter = runtime.counter
        if stub is not None and stub.stub_ops:
            self._run_stub_ops(stub.stub_ops, cpu, mem, system, counter)
        counter.cycles += runtime.cost.context_switch
        stats.context_switches += 1
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CONTEXT_SWITCH,
                target,
                from_tag=stub.fragment.tag if stub is not None else None,
                reason=EXIT_IBL_MISS,
            )
        raise CacheExit(EXIT_IBL_MISS, target, stub)

    # ------------------------------------------------------------- main loop

    def run(self, fragment, single_step=False, budget=None, deadline=None):
        """Execute starting at ``fragment``; chain until an unlinked
        exit (or after one fragment when ``single_step``, or once the
        thread's instruction ``deadline`` passes — the scheduler's
        quantum boundary).

        Returns ``(reason, next_tag, stub)``.  Raises ProgramExit when
        the application ends, MachineFault on machine errors.
        """
        runtime = self.runtime
        thread = runtime.current_thread
        cpu = thread.cpu
        mem = runtime.memory
        system = runtime.system
        counter = runtime.counter
        cost = runtime.cost
        fragment_entry = cost.fragment_entry
        use_closures = runtime.options.engine != "tuple"
        # drtrace profiler: sampled at fragment-pass granularity only
        # (one guard per pass, never per instruction) so the simulated
        # cycle stream is identical with tracing on or off.  Gated on
        # the observer's profiling hooks, not just the observer, so
        # event-tracing-only runs pay no per-pass profiler guard.
        observer = runtime.observer
        profile_enter = observer.profile_enter if observer is not None else None
        profile_break = observer.profile_break if observer is not None else None
        # Mirror per-run state for chain boundary steps, which perform
        # this loop's per-pass bookkeeping inline (repro.core.chains).
        self._budget = budget
        self._deadline = deadline
        self._profile_enter = profile_enter
        # The budget and deadline tests of a boundary folded into one
        # bound; -1 sends every boundary through cross() while the
        # profiler samples passes.
        if profile_enter is not None:
            limit = -1
        else:
            limit = sys.maxsize if budget is None else budget + 1
            if deadline is not None and deadline < limit:
                limit = deadline
        self._stitch_limit = limit
        # Passes before a fragment's table tiers up (and, under the
        # chain engine, between chain builds).
        threshold = runtime.options.chain_threshold
        # With trace building on, traces are the hot representation: a
        # block reaches the threshold just as the trace through it
        # forms (both thresholds default to 20) and is then superseded,
        # so only traces tier up.
        promote_bbs = not runtime.options.traces
        # Chains are a multi-fragment construct: never entered when the
        # dispatcher needs control back after one fragment.
        chains = (
            runtime.chains if (use_closures and not single_step) else None
        )

        try:
            first = True
            while True:
                if budget is not None and self.instructions > budget:
                    raise MachineFault(
                        "instruction budget exhausted (%d)" % budget
                    )
                if system.alarm_active:
                    system.convert_alarm(self.instructions)
                    if not first and system.alarm_due(self.instructions):
                        # pending signal: deliver from the dispatcher at
                        # this fragment boundary (the safe point)
                        raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
                if not first and (
                    (deadline is not None and self.instructions >= deadline)
                    or runtime._need_reschedule
                ):
                    # Quantum expired (or a thread was spawned) at a
                    # fragment boundary: back to the scheduler, without a
                    # context-switch charge (the dispatcher charges the
                    # thread switch).
                    raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
                first = False
                if profile_enter is not None:
                    profile_enter(fragment, counter.cycles)
                counter.cycles += fragment_entry
                if use_closures:
                    # Step table read once — a fragment replaced
                    # mid-execution keeps running its old steps until
                    # the next exit, like the tuple engine with `code`.
                    steps = fragment.chain if chains is not None else None
                    if steps is None:
                        count = fragment.pass_counter
                        if count < threshold or chains is not None:
                            # Tier-up: the pass that reaches the
                            # threshold runs the fragment's table
                            # rebuilt with generated-source segments.
                            # The chain engine keeps counting and tries
                            # to stitch every `threshold` passes.
                            count += 1
                            fragment.pass_counter = count
                            if count == threshold and (
                                promote_bbs or fragment.is_trace
                            ):
                                compile_fragment(fragment, runtime, hot=True)
                            if chains is not None and not count % threshold:
                                steps = chains.stitch(fragment)
                        if steps is None:
                            steps = fragment.compiled
                            if steps is None:
                                steps = compile_fragment(fragment, runtime)
                    self._next_fragment = None
                    i = 0
                    while i is not None:
                        i = steps[i](self, cpu)
                    next_fragment = self._next_fragment
                else:
                    next_fragment = self._run_ops(
                        fragment, thread, cpu, mem, system, counter
                    )

                # A linked (or IBL-hit) transfer: continue in the cache.
                if single_step:
                    raise CacheExit(EXIT_DISPATCH, next_fragment.tag, None)
                fragment = next_fragment
        except CacheExit as exit_:
            if profile_break is not None:
                profile_break(counter.cycles)
            return exit_.reason, exit_.next_tag, exit_.stub

    def _run_ops(self, fragment, thread, cpu, mem, system, counter):
        """Interpret the fragment's lowered op tuples (the pre-closure
        engine, kept as the regression reference); returns the next
        fragment or raises CacheExit."""
        runtime = self.runtime
        observer = runtime.observer
        guard = runtime.guard
        taken_penalty = runtime.cost.taken_branch_penalty
        regs = cpu.regs
        code = fragment.code
        exits = fragment.exits
        # Precise interrupts: poll at the same application-consistent
        # points the closure engine compiles polls into (the fused-run
        # starts of repro.core.translate) so both engines interrupt at
        # identical instruction counts.
        translation = fragment.translation
        poll_map = (
            translation.poll_ops
            if translation is not None
            and translation.poll_ops
            and runtime.options.precise_interrupts
            else None
        )
        n = len(code)
        i = 0
        next_fragment = None
        while i < n:
            if poll_map is not None and (
                system.alarm_active
                or runtime._detach_pending
                or runtime._shield_pending
            ):
                pc = poll_map.get(i)
                if pc is not None:
                    system.convert_alarm(self.instructions)
                    if runtime._detach_pending or runtime._shield_pending or (
                        system.alarm_due(self.instructions)
                        and system.signal_handler
                    ):
                        raise CacheExit(EXIT_INTERRUPT, pc, None)
            op = code[i]
            kind = op[0]
            if kind == OP_EXEC:
                counter.cycles += op[3]
                self.instructions += 1
                execute_noncti(cpu, mem, system, op[1], op[2])
                i += 1
                continue
            if kind == OP_COND_EXIT:
                self.instructions += 1
                if cpu.condition_holds(op[1]):
                    counter.cycles += op[3] + taken_penalty
                    next_fragment = self._direct_exit(
                        exits[op[2]], cpu, mem, system
                    )
                    break
                counter.cycles += op[3]
                i += 1
                continue
            if kind == OP_JMP_EXIT:
                self.instructions += 1
                counter.cycles += op[2] + taken_penalty
                next_fragment = self._direct_exit(
                    exits[op[1]], cpu, mem, system
                )
                break
            if kind == OP_CALL_EXIT:
                self.instructions += 1
                counter.cycles += op[3] + taken_penalty
                regs[4] = (regs[4] - 4) & _MASK32
                mem.write_u32(regs[4], op[2])
                next_fragment = self._direct_exit(
                    exits[op[1]], cpu, mem, system
                )
                break
            if kind == OP_CALL_INLINE:
                # Inlined call in a trace: push and fall through
                # (no taken penalty — superior trace layout).
                self.instructions += 1
                counter.cycles += op[2]
                regs[4] = (regs[4] - 4) & _MASK32
                mem.write_u32(regs[4], op[1])
                i += 1
                continue
            if kind == OP_IND_EXIT:
                self.instructions += 1
                (
                    _k,
                    exit_idx,
                    operand,
                    is_call,
                    ret_addr,
                    profiler,
                    checker,
                    c,
                ) = op
                if operand == "ret":
                    target = mem.read_u32(regs[4])
                    regs[4] = (regs[4] + 4) & _MASK32
                elif operand == "iret":
                    target = pop_signal_frame(cpu, mem)
                else:
                    target = read_operand(cpu, mem, operand)
                if checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    runtime.stats.clean_calls += 1
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, fragment.tag,
                            role="checker", target=target,
                        )
                    if guard is None:
                        checker(thread, target)
                    else:
                        guard.call(
                            checker, (thread, target),
                            tag=fragment.tag, role="checker",
                        )
                if is_call:
                    regs[4] = (regs[4] - 4) & _MASK32
                    mem.write_u32(regs[4], ret_addr)
                counter.cycles += c + taken_penalty
                if profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    runtime.stats.clean_calls += 1
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, fragment.tag,
                            role="profiler", target=target,
                        )
                    if guard is None:
                        profiler(thread, target)
                    else:
                        guard.call(
                            profiler, (thread, target),
                            tag=fragment.tag, role="profiler",
                        )
                next_fragment = self._indirect_exit(
                    exits[exit_idx], target, cpu, mem, system
                )
                break
            if kind == OP_IND_CHECK:
                self.instructions += 1
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
                if operand == "ret":
                    target = mem.read_u32(regs[4])
                    regs[4] = (regs[4] + 4) & _MASK32
                elif operand == "iret":
                    target = pop_signal_frame(cpu, mem)
                else:
                    target = read_operand(cpu, mem, operand)
                if checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    runtime.stats.clean_calls += 1
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, fragment.tag,
                            role="checker", target=target,
                        )
                    if guard is None:
                        checker(thread, target)
                    else:
                        guard.call(
                            checker, (thread, target),
                            tag=fragment.tag, role="checker",
                        )
                if is_call:
                    regs[4] = (regs[4] - 4) & _MASK32
                    mem.write_u32(regs[4], ret_addr)
                counter.cycles += c
                if target == expected:
                    runtime.stats.inline_check_hits += 1
                    if observer is not None:
                        observer.emit(
                            EV_INLINE_CHECK_HIT, fragment.tag, target=target
                        )
                    i += 1
                    continue
                matched = None
                for tag, exit_idx in dispatch:
                    counter.cycles += check_cost
                    if target == tag:
                        matched = exit_idx
                        break
                if matched is not None:
                    runtime.stats.dispatch_check_hits += 1
                    if observer is not None:
                        observer.emit(
                            EV_DISPATCH_CHECK_HIT, fragment.tag, target=target
                        )
                    counter.cycles += taken_penalty
                    next_fragment = self._direct_exit(
                        exits[matched], cpu, mem, system
                    )
                    break
                if profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    runtime.stats.clean_calls += 1
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, fragment.tag,
                            role="profiler", target=target,
                        )
                    if guard is None:
                        profiler(thread, target)
                    else:
                        guard.call(
                            profiler, (thread, target),
                            tag=fragment.tag, role="profiler",
                        )
                counter.cycles += taken_penalty
                next_fragment = self._indirect_exit(
                    exits[ibl_idx], target, cpu, mem, system
                )
                break
            if kind == OP_LOCAL_BR:
                self.instructions += 1
                _k, jcc, target_index, c = op
                if jcc is None or cpu.condition_holds(jcc):
                    counter.cycles += c + taken_penalty
                    i = target_index
                else:
                    counter.cycles += c
                    i += 1
                continue
            if kind == OP_CLEAN_CALL:
                counter.cycles += op[2]
                runtime.stats.clean_calls += 1
                if observer is not None:
                    observer.emit(EV_CLEAN_CALL, fragment.tag, role="call")
                if guard is None:
                    op[1](thread)
                else:
                    guard.call(
                        op[1], (thread,), tag=fragment.tag, role="clean_call"
                    )
                i += 1
                continue
            raise MachineFault("unknown fragment op kind %r" % (kind,))
        else:
            # Fell off the end of a fragment: only legal when the
            # last op was an elided continuation — fragments are
            # built so this cannot happen.
            raise MachineFault(
                "fragment 0x%x fell through without an exit"
                % fragment.tag
            )

        return next_fragment
