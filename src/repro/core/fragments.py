"""Fragment and exit-stub data structures.

A *fragment* is a basic block or trace resident in the code cache
(paper Section 2).  Each exit from a fragment has a :class:`LinkStub`:
when unlinked, control goes through the stub (running any client custom
stub code) and context-switches back to the runtime; when linked,
control transfers directly to the target fragment.
"""


class LinkStub:
    """One exit from a fragment."""

    __slots__ = (
        "fragment",
        "index",
        "kind",
        "target_tag",
        "linked_to",
        "stub_ops",
        "always_stub",
        "is_call_exit",
    )

    KIND_DIRECT = "direct"
    KIND_INDIRECT = "indirect"

    def __init__(self, fragment, index, kind, target_tag=None):
        self.fragment = fragment
        self.index = index
        self.kind = kind
        self.target_tag = target_tag  # application address, direct exits
        self.linked_to = None  # Fragment when linked
        # Lowered client custom-stub instructions: list of (opcode, ops, cost)
        self.stub_ops = ()
        self.always_stub = False
        # Call exits do not count as "backward branches" for the default
        # trace-head heuristic (calls target earlier-placed functions all
        # the time; loop backedges are what NET heads are about).
        self.is_call_exit = False

    def __repr__(self):
        state = "->%s" % self.linked_to if self.linked_to else "unlinked"
        return "<LinkStub #%d %s tag=0x%x %s>" % (
            self.index,
            self.kind,
            self.target_tag or 0,
            state,
        )


class Fragment:
    """A basic block or trace in the code cache."""

    __slots__ = (
        "tag",
        "kind",
        "code",
        "exits",
        "cache_addr",
        "size",
        "instrs_source",
        "source_tags",
        "is_trace_head",
        "head_counter",
        "incoming",
        "deleted",
        "generation",
        "compiled",
        "source_spans",
        "pass_counter",
        "translation",
    )

    KIND_BB = "bb"
    KIND_TRACE = "trace"

    def __init__(self, tag, kind):
        self.tag = tag
        self.kind = kind
        self.code = ()  # lowered ops (see repro.core.emit)
        self.exits = []
        self.cache_addr = None
        self.size = 0  # encoded size in the simulated code cache
        # The InstrList this fragment was emitted from, retained to
        # support dr_decode_fragment (adaptive re-optimization).
        self.instrs_source = None
        # Ordered application block tags this fragment translates:
        # (tag,) for a basic block, the stitched sequence for a trace.
        # Input to the drequiv equivalence checker (analysis/equiv.py).
        self.source_tags = (tag,)
        self.is_trace_head = False
        self.head_counter = 0
        # Incoming LinkStubs pointing at this fragment (for unlinking
        # and fragment replacement).
        self.incoming = []
        self.deleted = False
        self.generation = 0
        # Closure-compiled step table (repro.core.closures); built when
        # the fragment is emitted under a runtime, lazily otherwise, and
        # rebuilt with generated-source segments once the fragment is
        # hot (``pass_counter`` reaching ``options.chain_threshold``;
        # see Executor.run for which fragments tier up).
        self.compiled = None
        # Application-code byte ranges this fragment was translated
        # from: tuple of (start, end) pairs.  Registered with the
        # cache-consistency region map when options.cache_consistency is
        # on; traces carry the union of their constituent blocks' spans.
        self.source_spans = ()
        # Passes Executor.run has started in this fragment's table
        # (counting stops at the promotion threshold).
        self.pass_counter = 0
        # Execution-point -> application-PC map (repro.core.translate):
        # built at emit time, drives mid-fragment signal delivery and
        # detach-time state translation.
        self.translation = None

    @property
    def is_trace(self):
        return self.kind == self.KIND_TRACE

    def __repr__(self):
        return "<Fragment %s tag=0x%x %d ops>" % (
            self.kind,
            self.tag,
            len(self.code),
        )
