"""Per-fragment cycle and entry-count attribution.

The profiler samples the runtime's cycle counter at *fragment
boundaries* — dispatch into a fragment, and the exit back to the
dispatcher — never per instruction, so the execution engine's hot
loops stay untouched.  Between two samples every simulated cycle is
attributed to the current *attribution target*: the fragment being
executed, or the ``OVERHEAD`` bucket (dispatch, block building, trace
stitching, client hooks, scheduling) when control is in the runtime.

Because samples are deltas of the same monotonically increasing
counter, attribution is *exact*: fragment cycles plus overhead cycles
always equal the run's total simulated cycles (the hot-table test
asserts the 1%-of-total acceptance bound via exact equality).

A fragment passes through the profiler many times; keys are
``(kind, tag)`` so a replaced fragment (same tag, new generation)
accumulates into the same row — matching how dr_replace_fragment keeps
a tag's identity stable across re-optimization.
"""

OVERHEAD_KEY = ("overhead", None)


class FragmentProfiler:
    """Cycle/entry attribution over (kind, tag) fragment keys."""

    def __init__(self):
        self._cycles = {}  # (kind, tag) -> attributed cycles
        self._entries = {}  # (kind, tag) -> entry count
        self._last = 0  # cycle stamp of the previous sample
        self._current = OVERHEAD_KEY

    # -------------------------------------------------------------- sampling

    def _attribute(self, now):
        delta = now - self._last
        if delta:
            cur = self._current
            cycles = self._cycles
            cycles[cur] = cycles.get(cur, 0) + delta
        self._last = now

    def enter_fragment(self, fragment, now):
        """Dispatch is entering ``fragment``; cycles since the last
        sample belong to whatever ran before (previous fragment in a
        linked chain, or runtime overhead)."""
        self._attribute(now)
        key = (fragment.kind, fragment.tag)
        self._current = key
        entries = self._entries
        entries[key] = entries.get(key, 0) + 1

    def to_overhead(self, now):
        """Control left the code cache for the dispatcher."""
        self._attribute(now)
        self._current = OVERHEAD_KEY

    def finalize(self, now):
        """Attribute the tail of the run and close the books."""
        self._attribute(now)
        self._current = OVERHEAD_KEY

    # --------------------------------------------------------------- queries

    def fragment_count(self):
        return sum(1 for k in self._cycles if k != OVERHEAD_KEY)

    def attributed_cycles(self):
        """Cycles attributed to fragments (excludes overhead)."""
        return sum(
            c for k, c in self._cycles.items() if k != OVERHEAD_KEY
        )

    def overhead_cycles(self):
        return self._cycles.get(OVERHEAD_KEY, 0)

    def total_cycles(self):
        return sum(self._cycles.values())

    def entries(self, key):
        return self._entries.get(key, 0)

    def hot_fragments(self, top=None):
        """The hot-fragment table: rows sorted by attributed cycles.

        Each row is a dict with ``tag``, ``kind``, ``entries``,
        ``cycles``, and ``share`` (fraction of *total* attributed
        cycles including overhead).
        """
        total = self.total_cycles()
        rows = []
        for key, cycles in self._cycles.items():
            if key == OVERHEAD_KEY:
                continue
            kind, tag = key
            rows.append(
                {
                    "tag": tag,
                    "kind": kind,
                    "entries": self._entries.get(key, 0),
                    "cycles": cycles,
                    "share": (cycles / total) if total else 0.0,
                }
            )
        rows.sort(key=lambda r: (-r["cycles"], r["tag"]))
        if top is not None:
            rows = rows[:top]
        return rows
