"""Regression: cache eviction racing fragment replacement.

An absurdly small code cache forces unit flushes (core/runtime.py
``_place``) while a client keeps calling ``dr_replace_fragment`` from
clean calls *inside* the fragments being replaced.  The hazard under
test: a flush deletes a replaced fragment (or the replacement itself),
and a stale exit stub or IBL entry funnels execution into freed code.
Transparent output proves no stale-stub execution; with tracing on,
the recorded ``fragment_delete`` / ``cache_eviction`` events must
reconstruct the live counters exactly.
"""

import pytest

from repro.api.client import Client
from repro.api.dr import (
    dr_decode_fragment,
    dr_insert_clean_call,
    dr_replace_fragment,
)
from repro.core import RuntimeOptions
from repro.ir.create import INSTR_CREATE_nop
from repro.observe import replay_stats

from tests.core.conftest import run_under


class _ChurningClient(Client):
    """Replaces every fragment it sees, again after each flush.

    ``fragment_deleted`` clears the per-tag marker, so when an evicted
    tag is rebuilt the rebuild gets replaced too — replacement and
    eviction keep interleaving for the whole run.
    """

    def __init__(self):
        super().__init__()
        self.replaced = set()
        self.replacements = 0
        self.deletions = 0

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
        self.deletions += 1
        self.replaced.discard(tag)


def _churn_options(policy="flush"):
    opts = RuntimeOptions.with_traces()
    opts.code_cache_limit = 700  # constant pressure (test_cache_and_stubs)
    opts.cache_evict_policy = policy
    opts.trace_threshold = 5
    opts.trace_events = True
    opts.trace_buffer = None  # unbounded: replay must be exact
    return opts


@pytest.mark.parametrize("policy", ["flush", "fifo"])
def test_eviction_during_replacement_stays_transparent(
    loop_image, loop_native, policy
):
    client = _ChurningClient()
    dr, result = run_under(loop_image, _churn_options(policy), client=client)

    # The interplay actually happened: fragments were replaced AND the
    # cache evicted fragments (including replaced ones) mid-run.
    assert client.replacements >= 1
    assert result.events["fragments_replaced"] == client.replacements
    assert result.events["cache_evictions"] >= 1
    if policy == "fifo":
        # Per-victim accounting only exists under single-fragment
        # eviction; a flush drops whole units without it.
        assert result.events["cache_fragment_evictions"] >= 1
    assert result.events["fragments_deleted"] >= 1
    assert client.deletions == result.events["fragments_deleted"]
    # Tags were re-replaced after eviction rebuilt them.
    assert client.replacements > len(client.replaced)

    # No stale-stub execution: the app ran to completion with output
    # identical to native.
    assert result.exit_code == loop_native.exit_code
    assert result.output == loop_native.output

    # The event stream accounts for every deletion/eviction the stats
    # saw — nothing double-counted, nothing missed.
    observer = dr.observer
    assert observer.dropped == 0
    assert replay_stats(observer.events()) == dr.stats.as_dict()


@pytest.mark.parametrize("policy", ["flush", "fifo"])
def test_no_stale_fragments_remain(loop_image, policy):
    """After the run, every live cache entry is a non-deleted fragment
    and every linked stub points at a live fragment."""
    client = _ChurningClient()
    dr, _ = run_under(loop_image, _churn_options(policy), client=client)
    thread = dr.current_thread
    for cache in (thread.bb_cache, thread.trace_cache):
        for fragment in cache.fragments.values():
            assert not fragment.deleted
            for stub in fragment.exits:
                if stub.linked_to is not None:
                    assert not stub.linked_to.deleted


def test_fifo_eviction_trace_heads_and_replacement(
    indirect_image, indirect_native
):
    """Single-fragment eviction interleaved with trace-head promotion
    and in-fragment replacement on the indirect workload: hair-trigger
    tracing means victims are routinely trace heads or trace members,
    and the churning client re-replaces every rebuild."""
    client = _ChurningClient()
    opts = _churn_options(policy="fifo")
    opts.trace_threshold = 3  # promotions throughout the run
    dr, result = run_under(indirect_image, opts, client=client)

    assert result.events["traces_built"] >= 1
    assert result.events["trace_head_counts"] >= 1
    assert result.events["cache_fragment_evictions"] >= 1
    assert client.replacements >= 1
    assert result.events["fragments_replaced"] == client.replacements

    assert result.exit_code == indirect_native.exit_code
    assert result.output == indirect_native.output

    observer = dr.observer
    assert observer.dropped == 0
    assert replay_stats(observer.events()) == dr.stats.as_dict()


def test_fifo_eviction_squashes_stale_recording(loop_image):
    """A FIFO eviction that deletes a block referenced by an
    in-progress trace recording must abandon the recording — the fifo
    analogue of the whole-flush squash (test_cache_and_stubs)."""
    from repro.core import DynamoRIO
    from repro.core.trace_builder import TraceRecording
    from repro.loader import Process

    opts = RuntimeOptions.with_traces()
    opts.cache_evict_policy = "fifo"
    opts.cache_consistency = True
    runtime = DynamoRIO(Process(loop_image), options=opts)
    thread = runtime.current_thread

    first = runtime._build_bb(loop_image.entry)
    recording = TraceRecording(first.tag)
    recording.append(first)
    thread.trace_in_progress = recording

    # Shrink the unit under its occupancy: the next build must evict
    # `first` (the FIFO front) out from under the recording.
    thread.bb_cache.limit = thread.bb_cache.used()
    runtime._build_bb(first.source_spans[0][1])

    assert first.deleted
    assert runtime.stats.cache_fragment_evictions >= 1
    assert thread.trace_in_progress is None
