"""Flat byte-addressable memory for the RIO-32 machine.

A single contiguous ``bytearray`` models the low portion of a 32-bit
address space.  Named *regions* give the loader and the runtime distinct,
non-overlapping address ranges (application code, application heap,
stack, and — crucially for the paper's transparency requirements — a
separate runtime heap and code cache that never alias application
memory).  Optional write protection catches a client or runtime bug that
scribbles over application code.
"""

import struct

from repro.machine.errors import MachineFault

_MASK32 = 0xFFFFFFFF

# Prebound little-endian primitives, shared with the fused loads and
# stores of repro.machine.exec_ops.  Each raises ``struct.error`` when
# the access runs past the end of the buffer (or a value is out of
# range).
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
unpack_u8 = _U8.unpack_from
unpack_u16 = _U16.unpack_from
unpack_u32 = _U32.unpack_from
pack_u8 = _U8.pack_into
pack_u32 = _U32.pack_into

# Write-watch granularity: watched address ranges are rounded out to
# 64-byte lines, so the per-write fast path is one set-membership test.
WATCH_SHIFT = 6


class Region:
    """A named address range ``[start, start+size)``."""

    __slots__ = ("name", "start", "size", "writable")

    def __init__(self, name, start, size, writable=True):
        self.name = name
        self.start = start
        self.size = size
        self.writable = writable

    @property
    def end(self):
        return self.start + self.size

    def contains(self, addr):
        return self.start <= addr < self.end

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end

    def __repr__(self):
        return "<Region %s [0x%x, 0x%x)%s>" % (
            self.name,
            self.start,
            self.end,
            "" if self.writable else " ro",
        )


class Memory:
    """Simulated physical memory with region bookkeeping."""

    def __init__(self, size=1 << 24):
        self.size = size
        self._bytes = bytearray(size)
        self._regions = {}
        self._protect = False
        # Write monitoring (cache consistency / SMC detection).  When no
        # ranges are watched ``_watch_pages is None`` and every write
        # path pays a single attribute test, mirroring ``_protect``.
        self._watch_pages = None
        self._watchers = ()
        # True once protection or write watching is armed.  Compiled
        # fused stores test it on every store and, when set, go through
        # write_u8/write_u32 so the checks run at store time.
        self.checked_stores = False
        # Optional fault-context provider (``fn() -> app PC or None``),
        # consulted on error paths only: raised faults then blame the
        # application instruction that performed the access.
        self._fault_pc = None

    # -------------------------------------------------------------- regions

    def add_region(self, name, start, size, writable=True):
        region = Region(name, start, size, writable=writable)
        if region.end > self.size:
            raise MachineFault(
                "region %s extends past memory (0x%x > 0x%x)"
                % (name, region.end, self.size)
            )
        for other in self._regions.values():
            if region.overlaps(other):
                raise MachineFault(
                    "region %s overlaps %s" % (region, other)
                )
        self._regions[name] = region
        return region

    def region(self, name):
        return self._regions[name]

    def regions(self):
        return list(self._regions.values())

    def region_containing(self, addr):
        for region in self._regions.values():
            if region.contains(addr):
                return region
        return None

    def set_protection(self, enabled):
        """Enable/disable write-protection checks (off = fast path)."""
        self._protect = bool(enabled)
        self.checked_stores = self._protect or self._watch_pages is not None

    def set_fault_context(self, fn):
        """Register a fault-context provider: ``fn()`` returns the
        current application PC (or ``None``).  Consulted only when a
        fault is raised — never on the access fast path — so faults can
        name the application instruction responsible."""
        self._fault_pc = fn

    def _fault_detail(self, addr, with_region=True):
        """Diagnostic suffix for fault messages: the region containing
        ``addr`` (when known and wanted) and the attributed app PC."""
        parts = []
        if with_region:
            region = self.region_containing(addr)
            if region is not None:
                parts.append("region %s" % region.name)
        fn = self._fault_pc
        if fn is not None:
            pc = fn()
            if pc is not None:
                parts.append("app pc 0x%x" % pc)
        return " (%s)" % ", ".join(parts) if parts else ""

    def _check_write(self, addr, size):
        """Fault if ``[addr, addr+size)`` touches any read-only region.

        A store running past memory is left to fault as such."""
        end = addr + size
        if end > self.size:
            return
        for region in self._regions.values():
            if (
                not region.writable
                and region.start < end
                and addr < region.start + region.size
            ):
                raise MachineFault(
                    "write of %d bytes to read-only region %s at 0x%x%s"
                    % (
                        size,
                        region.name,
                        addr,
                        self._fault_detail(addr, with_region=False),
                    )
                )

    # --------------------------------------------------------- write watching

    def add_write_watcher(self, fn):
        """Register ``fn(addr, size)`` to run on writes into watched ranges.

        Watchers only fire for addresses covered by :meth:`watch_range`;
        they must not write to memory themselves.
        """
        self._watchers = self._watchers + (fn,)
        if self._watch_pages is None:
            self._watch_pages = set()
        self.checked_stores = True

    def watch_range(self, start, end):
        """Watch writes touching ``[start, end)`` (rounded out to lines)."""
        if self._watch_pages is None:
            self._watch_pages = set()
        self.checked_stores = True
        self._watch_pages.update(
            range(start >> WATCH_SHIFT, ((end - 1) >> WATCH_SHIFT) + 1)
        )

    def _notify_write(self, addr, size):
        for fn in self._watchers:
            fn(addr, size)

    # ------------------------------------------------------------- accessors
    #
    # The fixed-width accessors let the buffer do the bounds check: a
    # prebound ``struct`` call raises ``struct.error`` and an index
    # raises ``IndexError`` past the end, and only then is the fault
    # message built.  ``addr &= _MASK32`` must stay: ``unpack_from`` and
    # indexing both count a negative offset from the end of the buffer.
    # Stores never use an unchecked slice, which would grow the buffer.

    def _read_fault(self, addr):
        raise MachineFault(
            "read past memory at 0x%x%s" % (addr, self._fault_detail(addr))
        ) from None

    def _write_fault(self, addr):
        raise MachineFault(
            "write past memory at 0x%x%s" % (addr, self._fault_detail(addr))
        ) from None

    def read_u8(self, addr):
        addr &= _MASK32
        try:
            return self._bytes[addr]
        except IndexError:
            self._read_fault(addr)

    def read_u16(self, addr):
        addr &= _MASK32
        try:
            return unpack_u16(self._bytes, addr)[0]
        except struct.error:
            self._read_fault(addr)

    def read_u32(self, addr):
        addr &= _MASK32
        try:
            return unpack_u32(self._bytes, addr)[0]
        except struct.error:
            self._read_fault(addr)

    def write_u8(self, addr, value):
        addr &= _MASK32
        if self._protect:
            self._check_write(addr, 1)
        try:
            self._bytes[addr] = value & 0xFF
        except IndexError:
            self._write_fault(addr)
        pages = self._watch_pages
        if pages is not None and (addr >> WATCH_SHIFT) in pages:
            self._notify_write(addr, 1)

    def write_u32(self, addr, value):
        addr &= _MASK32
        if self._protect:
            self._check_write(addr, 4)
        try:
            pack_u32(self._bytes, addr, value & _MASK32)
        except struct.error:
            self._write_fault(addr)
        pages = self._watch_pages
        if pages is not None and (
            (addr >> WATCH_SHIFT) in pages
            or ((addr + 3) >> WATCH_SHIFT) in pages
        ):
            self._notify_write(addr, 4)

    def read_bytes(self, addr, n):
        addr &= _MASK32
        if addr + n > self.size:
            self._read_fault(addr)
        return bytes(self._bytes[addr : addr + n])

    def write_bytes(self, addr, data):
        addr &= _MASK32
        if addr + len(data) > self.size:
            self._write_fault(addr)
        if self._protect:
            self._check_write(addr, len(data))
        self._bytes[addr : addr + len(data)] = data
        pages = self._watch_pages
        if pages is not None and len(data):
            first = addr >> WATCH_SHIFT
            last = (addr + len(data) - 1) >> WATCH_SHIFT
            if any(p in pages for p in range(first, last + 1)):
                self._notify_write(addr, len(data))

    def view(self):
        """The raw backing bytearray.

        The decoder's fast paths and the fused loads and stores that
        :mod:`repro.machine.exec_ops` compiles read (and, when
        :attr:`checked_stores` is false, write) it directly, so it is
        created once and never replaced or resized.
        """
        return self._bytes
