"""Per-layer tracing from outside the runtime.

A :class:`Tracer` replaces each layer's entry point with a wrapper that
records a span (name, start, end, parent span) and puts the original
back on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes; the
untraced benchmark never installs a wrapper.

Memory accessors are called per guest load and store, so they keep no
spans: each call only bumps a count and a running nanosecond total.
A span's *self* time is its duration minus the time covered by its
child spans and by memory accesses made directly inside it, so the
self times of a tree plus the memory time inside its root add up to
the root's duration exactly.
"""

import json
import time
from contextlib import contextmanager

import repro.core.closures as closures_mod
import repro.core.execute as execute_mod
import repro.core.runtime as runtime_mod
import repro.core.translate as translate_mod
from repro.core.code_cache import CacheUnit
from repro.machine.memory import Memory
from repro.resilience.shield import RuntimeGuard, Shield

# (owner, attribute, span name).  Module-level names are patched where
# they are looked up at call time: runtime.py imports the builders by
# name, emit.py imports translate/closures lazily from their modules,
# and execute.py compiles evicted step tables through its own import.
SPANS = (
    (runtime_mod.DynamoRIO, "run", "runtime"),
    (runtime_mod, "build_basic_block", "bb_builder"),
    (runtime_mod, "emit_fragment", "emit"),
    (runtime_mod, "stitch_trace", "trace_builder"),
    (translate_mod, "build_translation", "translate"),
    (closures_mod, "compile_fragment", "closures"),
    (execute_mod, "compile_fragment", "closures"),
    (execute_mod.Executor, "run", "execute"),
    (CacheUnit, "allocate", "code_cache.allocate"),
    (CacheUnit, "remove", "code_cache.remove"),
    (CacheUnit, "flush", "code_cache.flush"),
    (RuntimeGuard, "check", "resilience.check"),
    (Shield, "deliver", "resilience.deliver"),
)

# Client hooks are patched on the client instance of the run.
CLIENT_HOOKS = (("basic_block", "clients.bb_hook"),
                ("trace", "clients.trace_hook"))

MEMORY_READS = ("read_u8", "read_u16", "read_u32", "read_bytes")
MEMORY_WRITES = ("write_u8", "write_u32", "write_bytes")

# Index of the fields of one span record.
NAME, START, END, PARENT, MEM = range(5)


class Tracer:
    """Spans for one program run, kept in memory until written."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent, memory_ns]
        self._stack = []
        self.memory = [0, 0, 0]  # reads, writes, ns
        self._saved = []

    # --------------------------------------------------------------- spans

    def _open(self, name):
        stack = self._stack
        record = [name, 0, 0, stack[-1] if stack else -1, self.memory[2]]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _close(self, record):
        record[END] = time.perf_counter_ns()
        record[MEM] = self.memory[2] - record[MEM]
        self._stack.pop()

    def _wrap(self, name, fn):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            record = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(record)

        return traced

    def _wrap_access(self, fn, slot):
        memory = self.memory
        clock = time.perf_counter_ns

        def traced(mem, *args):
            start = clock()
            try:
                return fn(mem, *args)
            finally:
                memory[2] += clock() - start
                memory[slot] += 1

        return traced

    @contextmanager
    def span(self, name):
        """A span around a call the benchmark itself makes."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, client=None):
        """Wrap every layer entry point (and ``client``'s hooks)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        for slot, names in ((0, MEMORY_READS), (1, MEMORY_WRITES)):
            for attr in names:
                self._patch(
                    Memory, attr, self._wrap_access(vars(Memory)[attr], slot)
                )
        if client is not None:
            for attr, name in CLIENT_HOOKS:
                hook = getattr(client, attr)
                self._saved.append((client, attr, None))
                setattr(client, attr, self._wrap(name, hook))

    def uninstall(self):
        """Put every original back, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)  # instance hook: class method shows
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def self_ns(self):
        """Self time of every span, in span order."""
        spans = self.spans
        own = [r[END] - r[START] - r[MEM] for r in spans]
        for r in spans:
            if r[PARENT] >= 0:
                own[r[PARENT]] -= r[END] - r[START] - r[MEM]
        return own

    def layers(self):
        """``{span name: [calls, self_ns]}`` over every span."""
        totals = {}
        for record, own in zip(self.spans, self.self_ns()):
            entry = totals.setdefault(record[NAME], [0, 0])
            entry[0] += 1
            entry[1] += own
        return totals

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as f:
            for index, r in enumerate(self.spans):
                f.write(json.dumps({
                    "run": self.run_id, "id": index, "name": r[NAME],
                    "start_ns": r[START], "end_ns": r[END],
                    "parent": r[PARENT], "memory_ns": r[MEM],
                }))
                f.write("\n")
