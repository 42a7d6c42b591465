import pytest

from repro.machine.errors import MachineFault
from repro.machine.memory import Memory


class TestAccess:
    def test_u8_roundtrip(self):
        m = Memory(size=0x1000)
        m.write_u8(0x10, 0xAB)
        assert m.read_u8(0x10) == 0xAB

    def test_u32_little_endian(self):
        m = Memory(size=0x1000)
        m.write_u32(0x20, 0x12345678)
        assert m.read_u8(0x20) == 0x78
        assert m.read_u8(0x23) == 0x12
        assert m.read_u32(0x20) == 0x12345678

    def test_u16(self):
        m = Memory(size=0x1000)
        m.write_bytes(0x30, b"\xcd\xab")
        assert m.read_u16(0x30) == 0xABCD

    def test_bytes_roundtrip(self):
        m = Memory(size=0x1000)
        m.write_bytes(0x40, b"hello")
        assert m.read_bytes(0x40, 5) == b"hello"

    def test_wraps_value_to_32_bits(self):
        m = Memory(size=0x1000)
        m.write_u32(0, 0x1_2345_6789)
        assert m.read_u32(0) == 0x23456789

    def test_out_of_range_faults(self):
        m = Memory(size=0x100)
        with pytest.raises(MachineFault):
            m.read_u32(0x100)
        with pytest.raises(MachineFault):
            m.write_u8(0x4000, 1)


class TestRegions:
    def test_overlap_rejected(self):
        m = Memory(size=0x10000)
        m.add_region("a", 0x0, 0x100)
        with pytest.raises(MachineFault):
            m.add_region("b", 0x80, 0x100)

    def test_region_containing(self):
        m = Memory(size=0x10000)
        r = m.add_region("code", 0x1000, 0x100)
        assert m.region_containing(0x1050) is r
        assert m.region_containing(0x2000) is None

    def test_write_protection(self):
        m = Memory(size=0x10000)
        m.add_region("code", 0x1000, 0x100, writable=False)
        m.write_u32(0x1000, 1)  # protection off by default
        m.set_protection(True)
        with pytest.raises(MachineFault):
            m.write_u32(0x1000, 2)
        m.write_u32(0x5000, 3)  # outside any region: allowed

    def test_region_past_memory_rejected(self):
        m = Memory(size=0x100)
        with pytest.raises(MachineFault):
            m.add_region("big", 0x80, 0x100)

    def test_protection_covers_straddling_stores(self):
        m = Memory(size=0x1000)
        m.add_region("data", 0x0, 0x100)
        m.add_region("code", 0x100, 0x100, writable=False)
        m.set_protection(True)
        with pytest.raises(MachineFault) as exc:
            m.write_u32(0xFE, 0xFFFFFFFF)
        assert str(exc.value) == (
            "write of 4 bytes to read-only region code at 0xfe"
        )
        with pytest.raises(MachineFault) as exc:
            m.write_bytes(0xF0, b"\xff" * 32)
        assert str(exc.value) == (
            "write of 32 bytes to read-only region code at 0xf0"
        )
        assert m.read_bytes(0xF0, 32) == bytes(32)
        m.write_u32(0xFC, 1)  # ends where code starts: allowed
        m.write_bytes(0x200, b"\xff" * 4)  # starts where code ends


SIZE = 0x100

# name -> (width, access(m, addr), kind)
ACCESSORS = {
    "read_u8": (1, lambda m, a: m.read_u8(a), "read"),
    "read_u16": (2, lambda m, a: m.read_u16(a), "read"),
    "read_u32": (4, lambda m, a: m.read_u32(a), "read"),
    "read_bytes": (3, lambda m, a: m.read_bytes(a, 3), "read"),
    "write_u8": (1, lambda m, a: m.write_u8(a, 0x5A), "write"),
    "write_u32": (4, lambda m, a: m.write_u32(a, 0x5A5A5A5A), "write"),
    "write_bytes": (3, lambda m, a: m.write_bytes(a, b"ZZZ"), "write"),
}

EDGE_ADDRS = (SIZE - 1, SIZE - 2, SIZE - 3, SIZE - 4, 0xFFFFFFFF, -4)


def _patterned():
    m = Memory(size=SIZE)
    m.write_bytes(0, bytes(range(SIZE)))
    return m


class TestFaultParity:
    @pytest.mark.parametrize("addr", EDGE_ADDRS)
    @pytest.mark.parametrize("name", sorted(ACCESSORS))
    def test_edge_addresses(self, name, addr):
        width, access, kind = ACCESSORS[name]
        m = _patterned()
        masked = addr & 0xFFFFFFFF
        if masked + width <= SIZE:
            access(m, addr)  # in range: no fault
            return
        with pytest.raises(MachineFault) as exc:
            access(m, addr)
        assert str(exc.value) == "%s past memory at 0x%x" % (kind, masked)
        # A failed store neither grows the buffer nor writes a byte.
        assert len(m.view()) == SIZE
        assert m.view() == bytes(range(SIZE))

    @pytest.mark.parametrize("name", sorted(ACCESSORS))
    def test_negative_address_faults_instead_of_wrapping(self, name):
        access, kind = ACCESSORS[name][1:]
        m = _patterned()
        with pytest.raises(MachineFault) as exc:
            access(m, -4)
        assert str(exc.value) == "%s past memory at 0xfffffffc" % kind

    @pytest.mark.parametrize("name", sorted(ACCESSORS))
    def test_fault_names_region_and_app_pc(self, name):
        width, access, kind = ACCESSORS[name]
        m = _patterned()
        m.add_region("stack", SIZE - 0x10, 0x10)
        m.set_fault_context(lambda: 0x1234)
        # A one-byte access first faults at SIZE, past every region.
        where = SIZE - 1 if width > 1 else SIZE
        detail = "region stack, " if width > 1 else ""
        with pytest.raises(MachineFault) as exc:
            access(m, where)
        assert str(exc.value) == "%s past memory at 0x%x (%sapp pc 0x1234)" % (
            kind, where, detail)
        with pytest.raises(MachineFault) as exc:
            access(m, 0xFFFFFFFF)
        assert str(exc.value) == (
            "%s past memory at 0xffffffff (app pc 0x1234)" % kind
        )
        assert m.view() == bytes(range(SIZE))
