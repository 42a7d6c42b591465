"""Typed runtime events and the bounded event bus ("drtrace").

The runtime's introspection surface: every interesting transition of
the code cache (fragment emission, linking, deletion, replacement,
trace-head promotion, IBL hits/misses, cache evictions, context
switches, clean calls, ...) is a *typed event*.  When tracing is
enabled (``RuntimeOptions(trace_events=True)``) the runtime owns an
:class:`Observer` and every emit site records into its bounded ring
buffer; when disabled the runtime's ``observer`` attribute is ``None``
and each emit site is a single ``is not None`` check — the execution
engine's per-instruction hot loops carry no emit sites at all (the
profiler samples at fragment dispatch/exit granularity only), so the
simulated cycle accounting is identical with tracing on or off.

Event kinds mirror — and refine — the :class:`RuntimeStats` counters:
each counter's increment site emits a matching event, so the replayed
event stream reconstructs the counters exactly (regression tests
assert this on cold and tier-2 step tables).
"""

from collections import deque, namedtuple

# ----------------------------------------------------------- event kinds

EV_FRAGMENT_EMIT = "fragment_emit"
EV_FRAGMENT_LINK = "fragment_link"
EV_FRAGMENT_UNLINK = "fragment_unlink"
EV_FRAGMENT_DELETE = "fragment_delete"
EV_FRAGMENT_REPLACE = "fragment_replace"
EV_TRACE_HEAD_PROMOTED = "trace_head_promoted"
EV_TRACE_HEAD_COUNT = "trace_head_count"
EV_TRACE_STITCH = "trace_stitch"
EV_IBL_HIT = "ibl_hit"
EV_IBL_MISS = "ibl_miss"
EV_INLINE_CHECK_HIT = "inline_check_hit"
EV_DISPATCH_CHECK_HIT = "dispatch_check_hit"
EV_CACHE_EVICTION = "cache_eviction"
# Per-fragment cache management (paper Section 6): a single-fragment
# FIFO eviction under cache_evict_policy="fifo", and an adaptive
# working-set resize of one cache unit.  EV_CACHE_EVICTION stays the
# coarse "unit hit its limit" pressure event under either policy.
EV_CACHE_EVICT = "cache_evict"
EV_CACHE_RESIZE = "cache_resize"
EV_CONTEXT_SWITCH = "context_switch"
EV_CLEAN_CALL = "clean_call"
EV_CLIENT_HOOK = "client_hook"
EV_SIGNAL_DELIVERED = "signal_delivered"
EV_THREAD_SPAWN = "thread_spawn"
# Resilience ("drguard") events.
EV_CLIENT_FAULT = "client_fault"
EV_CLIENT_QUARANTINED = "client_quarantined"
EV_FRAGMENT_BAILOUT = "fragment_bailout"
EV_SMC_INVALIDATE = "smc_invalidate"
# Detach/re-attach ("drdetach"): the runtime translated every thread to
# application state and handed execution to native, then resumed.
EV_DETACH = "detach"
EV_REATTACH = "reattach"
# Self-protection ("drshield"): an errant application store into
# runtime-owned memory or an internal runtime fault was contained
# (kind="errant_write" vs kind="internal"); an optional subsystem was
# turned off by the escalation ladder; the forward-progress watchdog
# fired on a translate/flush livelock.
EV_SHIELD_FAULT = "shield_fault"
EV_SUBSYSTEM_DISABLED = "subsystem_disabled"
EV_WATCHDOG_TRIP = "watchdog_trip"

EVENT_KINDS = (
    EV_FRAGMENT_EMIT,
    EV_FRAGMENT_LINK,
    EV_FRAGMENT_UNLINK,
    EV_FRAGMENT_DELETE,
    EV_FRAGMENT_REPLACE,
    EV_TRACE_HEAD_PROMOTED,
    EV_TRACE_HEAD_COUNT,
    EV_TRACE_STITCH,
    EV_IBL_HIT,
    EV_IBL_MISS,
    EV_INLINE_CHECK_HIT,
    EV_DISPATCH_CHECK_HIT,
    EV_CACHE_EVICTION,
    EV_CACHE_EVICT,
    EV_CACHE_RESIZE,
    EV_CONTEXT_SWITCH,
    EV_CLEAN_CALL,
    EV_CLIENT_HOOK,
    EV_SIGNAL_DELIVERED,
    EV_THREAD_SPAWN,
    EV_CLIENT_FAULT,
    EV_CLIENT_QUARANTINED,
    EV_FRAGMENT_BAILOUT,
    EV_SMC_INVALIDATE,
    EV_DETACH,
    EV_REATTACH,
    EV_SHIELD_FAULT,
    EV_SUBSYSTEM_DISABLED,
    EV_WATCHDOG_TRIP,
)

# How the event stream maps back onto RuntimeStats counters.  Each
# value is ``(event kind, data-field filter pairs)``; the drift
# regression test replays a recorded stream through this table and
# demands exact equality with the stats dictionary.
STATS_EVENT_MAP = {
    "bbs_built": (EV_FRAGMENT_EMIT, (("kind", "bb"), ("reason", "build"))),
    "traces_built": (EV_FRAGMENT_EMIT, (("kind", "trace"), ("reason", "build"))),
    "fragments_deleted": (EV_FRAGMENT_DELETE, ()),
    "fragments_replaced": (EV_FRAGMENT_REPLACE, ()),
    "context_switches": (EV_CONTEXT_SWITCH, ()),
    "direct_links": (EV_FRAGMENT_LINK, ()),
    "ibl_hits": (EV_IBL_HIT, ()),
    "ibl_misses": (EV_IBL_MISS, ()),
    "inline_check_hits": (EV_INLINE_CHECK_HIT, ()),
    "dispatch_check_hits": (EV_DISPATCH_CHECK_HIT, ()),
    "trace_head_counts": (EV_TRACE_HEAD_COUNT, ()),
    "clean_calls": (EV_CLEAN_CALL, ()),
    "client_bb_hooks": (EV_CLIENT_HOOK, (("phase", "bb"),)),
    "client_trace_hooks": (EV_CLIENT_HOOK, (("phase", "trace"),)),
    "cache_evictions": (EV_CACHE_EVICTION, ()),
    "cache_fragment_evictions": (EV_CACHE_EVICT, ()),
    "cache_resizes": (EV_CACHE_RESIZE, ()),
    "client_faults": (EV_CLIENT_FAULT, ()),
    "client_quarantines": (EV_CLIENT_QUARANTINED, ()),
    "fragment_bailouts": (EV_FRAGMENT_BAILOUT, ()),
    "smc_invalidations": (EV_SMC_INVALIDATE, ()),
    "detaches": (EV_DETACH, ()),
    "reattaches": (EV_REATTACH, ()),
    "shield_faults": (EV_SHIELD_FAULT, ()),
    "subsystems_disabled": (EV_SUBSYSTEM_DISABLED, ()),
    "watchdog_trips": (EV_WATCHDOG_TRIP, ()),
}


class Event(namedtuple("Event", ["seq", "kind", "tag", "data"])):
    """One recorded runtime event.

    ``seq``  monotonically increasing emission index (1-based);
    ``tag``  the application address the event is about, or ``None``;
    ``data`` kind-specific payload dict (possibly empty).
    """

    __slots__ = ()

    def to_dict(self):
        # The event kind exports as "event" so payloads that carry a
        # "kind" of their own (fragment_emit's bb/trace) survive the
        # flattening without clobbering the envelope.
        out = {"seq": self.seq, "event": self.kind}
        if self.tag is not None:
            out["tag"] = self.tag
        out.update(self.data)
        return out


def replay_stats(events):
    """Reconstruct the RuntimeStats counter dict from an event stream.

    Exact when the stream is complete (nothing dropped from the ring);
    the differential regression test runs with an unbounded buffer and
    asserts equality against the live counters.
    """
    counts = {}
    for field, (kind, pairs) in STATS_EVENT_MAP.items():
        counts[field] = sum(
            1
            for e in events
            if e.kind == kind
            and all(e.data.get(key) == want for key, want in pairs)
        )
    return counts


class Observer:
    """The event bus plus the per-fragment profiler.

    The runtime holds at most one; ``runtime.observer is None`` is the
    disabled state checked (once) at every emit site.  ``capacity``
    bounds the detail ring — aggregate per-kind counts are always kept,
    so summaries stay exact even after the ring wraps.  ``None`` means
    unbounded (used by replay tests).

    ``profile=False`` turns off per-fragment cycle attribution while
    keeping the event bus: ``profile_enter``/``profile_break`` are then
    ``None``, and the execution engines (which gate on those hooks, not
    on the observer itself) skip the per-pass profiler samples entirely
    — the event-tracing-only fast configuration.
    """

    def __init__(self, capacity=65536, profile=True):
        from repro.observe.profiler import FragmentProfiler

        self.capacity = capacity
        self.ring = deque(maxlen=capacity)
        self.counts = {}
        self.tracers = []  # dr_register_event_tracer callbacks
        self.profiler = FragmentProfiler()
        self.profiling = profile
        self._seq = 0
        # Bound methods re-exported so hot callers skip a dict lookup;
        # None when profiling is off (the engines' per-pass gate).
        self.profile_enter = self.profiler.enter_fragment if profile else None
        self.profile_break = self.profiler.to_overhead if profile else None

    # -------------------------------------------------------------- emission

    def emit(self, kind, tag=None, /, **data):
        # kind/tag are positional-only so payloads may carry "kind" and
        # "tag" keys of their own (e.g. fragment_emit's fragment kind).
        self._seq += 1
        event = Event(self._seq, kind, tag, data)
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        self.ring.append(event)
        for fn in self.tracers:
            fn(event)

    # --------------------------------------------------------------- queries

    @property
    def total_emitted(self):
        return self._seq

    @property
    def dropped(self):
        return self._seq - len(self.ring)

    def events(self, kinds=None):
        """The recorded events (oldest first), optionally filtered."""
        if kinds is None:
            return list(self.ring)
        kinds = set(kinds)
        return [e for e in self.ring if e.kind in kinds]

    def finalize(self, cycles_now):
        """Close profiler attribution at end of run."""
        if self.profiling:
            self.profiler.finalize(cycles_now)

    def summary(self):
        """Flat integer summary merged into ``RunResult.events``."""
        prof = self.profiler
        return {
            "observe_events": self._seq,
            "observe_events_dropped": self.dropped,
            "observe_event_kinds": len(self.counts),
            "observe_fragments_profiled": prof.fragment_count(),
            "observe_attributed_cycles": prof.attributed_cycles(),
            "observe_overhead_cycles": prof.overhead_cycles(),
        }
