"""Cache consistency: stores into translated code invalidate fragments.

The self-modifying workload (from the chaos harness) patches the
immediate of its emitting ``mov`` mid-run.  Natively the interpreter's
decode cache notices the store; under the runtime the
``cache_consistency`` write-watch must invalidate the stale fragments
(and any traces that stitched them) so the rebuilt code sees the new
bytes.  Without the flag the stale translation keeps executing — which
is exactly the divergence the feature closes.
"""

import pytest

from repro.core import DynamoRIO, RuntimeOptions
from repro.core.code_cache import CodeRegionMap
from repro.loader import Process
from repro.machine.interp import run_native
from repro.tools.chaos import build_smc_image


@pytest.fixture(scope="module")
def smc_image():
    return build_smc_image()


@pytest.fixture(scope="module")
def smc_native(smc_image):
    return run_native(Process(smc_image))


def _smc_options(consistency=True, chain_threshold=20):
    options = RuntimeOptions.with_traces()
    options.chain_threshold = chain_threshold
    options.cache_consistency = consistency
    options.trace_events = True
    options.trace_buffer = None
    options.trace_threshold = 3  # traces stitch the patched block early
    return options


def test_native_smc_output_shape(smc_native):
    # 7 iterations emit 'A', the patch lands in iteration 6 (after that
    # pass's call), the remaining 5 emit 'B'.
    assert smc_native.output == b"A" * 7 + b"B" * 5
    assert smc_native.exit_code == 0


def test_smc_invalidation_matches_native(smc_image, smc_native):
    runtime = DynamoRIO(Process(smc_image), options=_smc_options())
    result = runtime.run()
    assert result.output == smc_native.output
    assert result.exit_code == smc_native.exit_code
    assert runtime.stats.smc_invalidations >= 1
    counts = runtime.observer.counts
    assert counts["smc_invalidate"] == runtime.stats.smc_invalidations
    # The invalidation deleted at least one fragment.
    assert runtime.stats.fragments_deleted >= 1


def test_smc_diverges_without_consistency(smc_image, smc_native):
    """The flag is load-bearing: without it the stale 'A' fragment keeps
    running and the patch is never picked up."""
    runtime = DynamoRIO(
        Process(smc_image),
        options=_smc_options(consistency=False),
    )
    result = runtime.run()
    assert result.output == b"A" * 12
    assert result.output != smc_native.output
    assert runtime.stats.smc_invalidations == 0


def test_smc_engines_bit_identical(smc_image):
    """Invalidated tier-2 tables and cold tables agree exactly."""
    results = [
        DynamoRIO(
            Process(smc_image), options=_smc_options(chain_threshold=threshold)
        ).run()
        for threshold in (1, 10**9)
    ]
    a, b = results
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.output == b.output
    assert a.events == b.events


def test_smc_invalidation_charges_cycles(smc_image):
    """Invalidation is modeled work: the consistency run costs more
    simulated cycles than a (wrong-output) run without it."""
    with_it = DynamoRIO(
        Process(smc_image), options=_smc_options()
    ).run()
    without = DynamoRIO(
        Process(smc_image),
        options=_smc_options(consistency=False),
    ).run()
    assert with_it.cycles > without.cycles


# ------------------------------------------------------------- region map


class _WatchRecorder:
    """Stands in for Memory: records the armed watch ranges."""

    def __init__(self):
        self.ranges = []

    def watch_range(self, start, end):
        self.ranges.append((start, end))


class _Frag:
    def __init__(self, tag):
        self.tag = tag
        self.deleted = False


def test_region_map_exact_overlap_filter():
    memory = _WatchRecorder()
    rmap = CodeRegionMap()
    frag = _Frag(0x1000)
    rmap.register(frag, ((0x1000, 0x1010),), "t0", memory)
    assert memory.ranges == [(0x1000, 0x1010)]
    assert len(rmap) == 1

    # Same 64-byte line, but no byte overlap: not a hit.
    assert rmap.overlapping(0x1010, 4) == []
    assert rmap.overlapping(0x0FF0, 0x10) == []
    # Exact overlaps, including single-byte and boundary-straddling.
    assert rmap.overlapping(0x100F, 1) == [(frag, "t0")]
    assert rmap.overlapping(0x0FFE, 4) == [(frag, "t0")]
    assert rmap.overlapping(0x1000, 0x10) == [(frag, "t0")]


def test_region_map_multi_span_and_unregister():
    memory = _WatchRecorder()
    rmap = CodeRegionMap()
    trace = _Frag(0x2000)
    # A trace stitched from two source regions: a write into either
    # span must report it (deduplicated, once).
    rmap.register(trace, ((0x2000, 0x2008), (0x2100, 0x2108)), "t0", memory)
    assert rmap.overlapping(0x2004, 1) == [(trace, "t0")]
    assert rmap.overlapping(0x2100, 2) == [(trace, "t0")]
    assert rmap.overlapping(0x2000, 0x200) == [(trace, "t0")]

    rmap.unregister(trace)
    assert len(rmap) == 0
    assert rmap.overlapping(0x2004, 1) == []
    # Unregistering twice is a no-op.
    rmap.unregister(trace)


def test_region_map_empty_spans_ignored():
    rmap = CodeRegionMap()
    frag = _Frag(0x3000)
    rmap.register(frag, ((0x3000, 0x3000),), "t0", _WatchRecorder())
    assert len(rmap) == 0
