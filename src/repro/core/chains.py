"""Chain compilation: dispatch-free execution across linked fragments.

The second compilation tier above :mod:`repro.core.closures`.  The
closure engine compiles one fragment at a time; a *linked transfer*
between two compiled fragments still returns to ``Executor.run``,
which re-checks the budget/alarm/deadline, samples the profiler,
charges the entry cost, and re-enters the step loop — a Python-level
round trip per fragment pass even when the whole working set is hot
and fully linked.

The chain compiler removes that round trip.  Every
``options.chain_threshold`` passes a chainless fragment makes (the
count that also tiers up fragment tables to generated source),
:class:`ChainManager` walks its *stable direct links*
(``LinkStub.KIND_DIRECT``, linked, not
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
  source (:func:`~repro.core.closures.compile_segment`, the segment
  compiler hot closure tables use too).

This module only stitches: exit steps and segments are built by
:mod:`repro.core.closures`.

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

from repro.core.closures import compile_segment, compile_steps, plan_fragment
from repro.core.execute import EXIT_DISPATCH, CacheExit
from repro.core.fragments import LinkStub
from repro.machine.errors import MachineFault


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
        self.max_fragments = runtime.options.chain_max_fragments
        self.built = 0
        self.dissolved = 0
        self._cross = self._make_cross()

    # ------------------------------------------------------------- promotion

    def stitch(self, fragment):
        """Build the chain rooted at a chainless ``fragment``; returns its
        table, or ``None`` when no chain is worth building (or the build
        faulted).  ``Executor.run`` calls it every
        ``options.chain_threshold`` passes the fragment makes without a
        chain, counted in ``fragment.pass_counter``."""
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
            # extra overhead.  (Links formed later get another shot
            # after `chain_threshold` more passes.)
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
                    compile_segment,
                )
            )
        table = tuple(table)

        record = _ChainRecord(root, tuple(members), table, tuple(bases))
        root.chain = table
        for member in members:
            member.chains_in.append(record)
        self.built += 1
        return table

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
