"""Simulated physical memory, address spaces, and the trusted grant authority.

Physical memory is fixed-size pages indexed by integer page id. Each
allocation is one extent, a buffer holding its pages end to end. A mapping,
private or shared, must name one in-order run of one allocation's pages, as
an io_uring registered buffer is one contiguous range pinned once; so every
access through a window is one range of one extent. Freeing any page of an
allocation ends access through every window on it. Address spaces are pure
translation layers from 64-bit virtual addresses onto pages. The authority
owns the page allocation table, enforces per-party page quotas, validates
every host-offered shared grant before it can be mapped, and models the
bus-level world filter: a normal-world access can never reach a
trusted-world page.

Nothing an untrusted party writes into page contents can change any structure
in this module; all metadata lives in private Python objects on the trusted
side of the simulation.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .config import PAGE_SIZE
from .errors import (
    BusFault,
    DuplicatePage,
    NotOneRun,
    NotValidated,
    OutOfMemory,
    OverlapWithPrivate,
    QuotaExceeded,
    RegionIdBusy,
    SizeMismatch,
    VirtualRangeBusy,
)

TRUSTED = "trusted"
NORMAL = "normal"

# registration lifecycle
PENDING = "pending"
VALIDATED = "validated"
MAPPED = "mapped"

READ = "r"
WRITE = "w"


@dataclass
class PageInfo:
    owner: str
    world: str
    purpose: str


@dataclass
class SharedRegistration:
    region_id: int
    pages: tuple[int, ...]
    expected_size: int
    state: str = PENDING


class Extent:
    """The bytes of one allocation's pages, end to end; every mapping and
    window is one range of one extent. Broken once any of its pages is
    freed: its offsets then no longer name live pages, every window on it
    faults, and it drops its bytes (`buf` is None) at once."""

    __slots__ = ("buf", "page_ids", "broken")

    def __init__(self, page_ids: tuple[int, ...]):
        self.buf = memoryview(bytearray(len(page_ids) * PAGE_SIZE))
        self.page_ids = page_ids  # in buffer order
        self.broken = False


@dataclass
class Mapping:
    base: int
    size: int
    page_ids: tuple[int, ...]
    perms: str
    pages_world: str
    region_id: int | None
    # the extent holding page_ids as one run from byte extent_off
    extent: Extent = field(repr=False, compare=False)
    extent_off: int


class AccessMonitor:
    """Audit hook fed by every windowed byte access.

    Armed only by test/fuzz harnesses. Tallies access counts (the step-count
    proxy for bounded-work assertions), recomputes the world check straight
    from the allocation table, and flags accesses landing outside
    caller-declared allowed ranges.
    """

    def __init__(self, table: "PageAllocTable"):
        self._table = table
        self.armed = False
        self.access_count = 0
        self.write_count = 0
        self.violations: list[tuple] = []
        # owner -> list of (base, size) virtual windows considered legitimate
        self.allowed: dict[str, list[tuple[int, int]]] = {}

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def mark(self) -> int:
        return self.access_count

    def delta(self, mark: int) -> int:
        return self.access_count - mark

    def on_access(self, space: "AddressSpace", vaddr: int, length: int,
                  mode: str, page_ids: tuple[int, ...]) -> None:
        self.access_count += 1
        if mode == WRITE:
            self.write_count += 1
        if space.world == NORMAL:
            # independent re-check against the table, not the mapping
            for pid in page_ids:
                info = self._table.entries.get(pid)
                if info is None or info.world == TRUSTED:
                    self.violations.append(("world", space.owner, vaddr, pid))
        ranges = self.allowed.get(space.owner)
        if ranges is not None:
            for base, size in ranges:
                if base <= vaddr and vaddr + length <= base + size:
                    break
            else:
                self.violations.append(("window", space.owner, vaddr, length, mode))


class PageAllocTable:
    """Physical page ownership, world tags, and per-party quotas."""

    def __init__(self) -> None:
        self.entries: dict[int, PageInfo] = {}
        self.quotas: dict[str, int] = {}
        self.used: dict[str, int] = {}

    def set_quota(self, owner: str, pages: int) -> None:
        self.quotas[owner] = pages

    def charge(self, owner: str, n: int) -> None:
        limit = self.quotas.get(owner)
        have = self.used.get(owner, 0)
        if limit is not None and have + n > limit:
            raise QuotaExceeded(f"{owner}: {have}+{n} > {limit}")
        self.used[owner] = have + n

    def credit(self, owner: str, n: int) -> None:
        self.used[owner] = self.used.get(owner, 0) - n


class MemoryWindow:
    """Bounds-checked byte view over one mapped virtual range.

    A mapping's pages are one in-order run of one allocation, so a window
    is one range of that allocation's extent. Every access goes through
    read/write (byte strings) or unpack/pack (fixed-size `struct.Struct`
    records): one bounds check, one monitor call when armed, and one slice
    or `struct` call, so the monitor sees each one. read() returns copies
    (snapshots), never live views. Freeing any page of the allocation
    breaks its extent, and every access through every window on it then
    raises BusFault.
    """

    __slots__ = ("_space", "base", "length", "_monitor", "_extent", "_pos")

    def __init__(self, space: "AddressSpace", base: int, length: int,
                 monitor: AccessMonitor, extent: Extent, pos: int):
        self._space = space
        self.base = base
        self.length = length
        self._monitor = monitor
        self._extent = extent
        self._pos = pos  # offset of the window start in the extent

    def _fault(self, off: int, n: int) -> BusFault:
        if self._extent.broken:
            return BusFault(f"window at {self.base:#x} over freed pages")
        return BusFault(f"window access [{off},{off + n}) outside length {self.length}")

    def _report(self, off: int, n: int, mode: str) -> None:
        # the pages [off, off + n) touches; a zero-length access names the
        # page holding off, or the window's last page when off is its end
        pos = self._pos + off
        at_end = n == 0 and off == self.length > 0
        first = (pos - at_end) // PAGE_SIZE
        last = max(first, (pos + n - 1) // PAGE_SIZE)
        self._monitor.on_access(self._space, self.base + off, n, mode,
                                self._extent.page_ids[first:last + 1])

    def read(self, off: int, n: int) -> bytes:
        ext = self._extent
        if off < 0 or n < 0 or off + n > self.length or ext.broken:
            raise self._fault(off, n)
        if self._monitor.armed:
            self._report(off, n, READ)
        pos = self._pos + off
        return ext.buf[pos:pos + n].tobytes()

    def write(self, off: int, data: bytes) -> None:
        n = len(data)
        ext = self._extent
        if off < 0 or off + n > self.length or ext.broken:
            raise self._fault(off, n)
        if self._monitor.armed:
            self._report(off, n, WRITE)
        pos = self._pos + off
        ext.buf[pos:pos + n] = data

    def unpack(self, st: struct.Struct, off: int) -> tuple:
        """`st.unpack` of the record at `off`, in place."""
        n = st.size
        ext = self._extent
        if off < 0 or off + n > self.length or ext.broken:
            raise self._fault(off, n)
        if self._monitor.armed:
            self._report(off, n, READ)
        return st.unpack_from(ext.buf, self._pos + off)

    def pack(self, st: struct.Struct, off: int, *values) -> None:
        """Store `st.pack(*values)` at `off`, in place."""
        n = st.size
        ext = self._extent
        if off < 0 or off + n > self.length or ext.broken:
            raise self._fault(off, n)
        if self._monitor.armed:
            self._report(off, n, WRITE)
        st.pack_into(ext.buf, self._pos + off, *values)


class AddressSpace:
    """Per-party virtual address space: an ordered set of disjoint mappings."""

    def __init__(self, owner: str, world: str, monitor: AccessMonitor,
                 base_hint: int = 0x10000):
        self.owner = owner
        self.world = world
        self._monitor = monitor
        self._maps: list[Mapping] = []  # sorted by base
        self._next_base = base_hint

    def mappings(self) -> list[Mapping]:
        return list(self._maps)

    def fresh_base(self, size: int) -> int:
        base = self._next_base
        # keep ranges page-aligned and leave a guard gap
        self._next_base = base + ((size + PAGE_SIZE - 1) // PAGE_SIZE + 1) * PAGE_SIZE
        return base

    def _find(self, vaddr: int, length: int) -> Mapping | None:
        lo, hi = 0, len(self._maps) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            m = self._maps[mid]
            if vaddr < m.base:
                hi = mid - 1
            elif vaddr >= m.base + m.size:
                lo = mid + 1
            else:
                if vaddr + length <= m.base + m.size:
                    return m
                return None
        return None

    def add_mapping(self, mapping: Mapping) -> None:
        for m in self._maps:
            if mapping.base < m.base + m.size and m.base < mapping.base + mapping.size:
                raise VirtualRangeBusy(
                    f"{self.owner}: [{mapping.base:#x},+{mapping.size:#x}) overlaps existing")
        self._maps.append(mapping)
        self._maps.sort(key=lambda m: m.base)

    def access(self, vaddr: int, length: int, mode: str = READ) -> MemoryWindow:
        """Resolve a byte window or raise BusFault.

        The window is only handed out when the whole range lies inside one
        mapping whose permissions include the requested mode.
        """
        m = self._find(vaddr, length)
        if m is None:
            raise BusFault(f"{self.owner}: no mapping covers [{vaddr:#x},+{length})")
        if mode not in m.perms:
            raise BusFault(f"{self.owner}: mapping at {m.base:#x} lacks '{mode}'")
        if self.world == NORMAL and m.pages_world == TRUSTED:
            raise BusFault(f"{self.owner}: normal-world access to trusted pages")
        return MemoryWindow(self, vaddr, length, self._monitor,
                            m.extent, m.extent_off + vaddr - m.base)


class MemoryAuthority:
    """The trusted side of physical memory management.

    Owns the page pool, the allocation table, shared-grant validation, and
    mapping construction. It is the single writer of all metadata here;
    untrusted parties only ever reach page *contents* through windows.
    """

    def __init__(self, total_pages: int = 65536):
        self.total_pages = total_pages
        self._extents: dict[int, Extent] = {}  # page -> its allocation
        self.table = PageAllocTable()
        self.monitor = AccessMonitor(self.table)
        self.registrations: dict[int, SharedRegistration] = {}
        self.spaces: list[AddressSpace] = []
        self._free: list[int] = []
        self._next_page = 0

    # --- page pool ---

    def alloc_pages(self, n: int, owner: str, world: str,
                    purpose: str = "anon") -> list[int]:
        if n <= 0:
            raise OutOfMemory("allocation of zero pages")
        if len(self.table.entries) + n > self.total_pages:
            raise OutOfMemory(f"pool of {self.total_pages} pages exhausted")
        self.table.charge(owner, n)
        ids = []
        for _ in range(n):
            if self._free:
                pid = self._free.pop()
            else:
                pid = self._next_page
                self._next_page += 1
            self.table.entries[pid] = PageInfo(owner, world, purpose)
            ids.append(pid)
        self._extents.update(dict.fromkeys(ids, Extent(tuple(ids))))
        return ids

    def free_pages(self, page_ids: list[int], owner: str) -> None:
        """Free pages `owner` holds, all checked before any goes: one not
        owned, or listed twice, frees none. Each one's allocation breaks and
        drops its bytes, even while windows name it."""
        for pid in page_ids:
            info = self.table.entries.get(pid)
            if info is None or info.owner != owner:
                raise BusFault(f"free of page {pid} not owned by {owner}")
        if len(set(page_ids)) != len(page_ids):
            raise BusFault("free lists a page twice")
        for pid in sorted(page_ids, reverse=True):
            del self.table.entries[pid]
            ext = self._extents.pop(pid)
            ext.broken, ext.buf = True, None
            self._free.append(pid)
        self.table.credit(owner, len(page_ids))

    def _run_of(self, page_ids) -> tuple[Extent, int]:
        """(extent, byte offset) of page_ids, which must be, in order, one
        run of one allocation's live pages; else NotOneRun."""
        ext = self._extents.get(page_ids[0]) if page_ids else None
        if ext is not None:
            k = ext.page_ids.index(page_ids[0])
            if ext.page_ids[k:k + len(page_ids)] == tuple(page_ids):
                return ext, k * PAGE_SIZE
        raise NotOneRun("pages are not one in-order run of one allocation")

    # --- address spaces ---

    def create_space(self, owner: str, world: str, base_hint: int = 0x10000) -> AddressSpace:
        sp = AddressSpace(owner, world, self.monitor, base_hint)
        self.spaces.append(sp)
        return sp

    def map_private(self, space: AddressSpace, page_ids: list[int],
                    base: int | None = None, perms: str = "rw") -> Mapping:
        """Map pages a party already owns into its own space: one in-order
        run of one allocation, else NotOneRun."""
        worlds = {self.table.entries[p].world for p in page_ids}
        if len(worlds) != 1:
            raise BusFault("mixed-world mapping")
        world = worlds.pop()
        if world == TRUSTED and space.world == NORMAL:
            raise BusFault("trusted pages can never enter a normal-world space")
        ext, off = self._run_of(page_ids)
        if base is None:
            base = space.fresh_base(len(page_ids) * PAGE_SIZE)
        m = Mapping(base, len(page_ids) * PAGE_SIZE, tuple(page_ids), perms, world,
                    None, ext, off)
        space.add_mapping(m)
        return m

    # --- shared grants ---

    def register_shared(self, pages: list[int], region_id: int,
                        expected_size: int) -> SharedRegistration:
        """Validate a host-offered page grant.

        Accepts if and only if: the region id is unused, the page list has no
        duplicates, every page is a known normal-world page (disjoint from all
        trusted-private and trusted-kernel memory), page count times page
        size equals the expected size, and the pages are one in-order run of
        one allocation (checked last, so the earlier refusals keep their
        names). Rejection raises before any state is touched, leaving the
        authority bit-identical. Freeing any page of that allocation later
        ends access through every window on the grant.
        """
        if region_id in self.registrations:
            raise RegionIdBusy(f"region {region_id} already registered")
        seen: set[int] = set()
        for pid in pages:
            if pid in seen:
                raise DuplicatePage(f"page {pid} granted twice")
            seen.add(pid)
        for pid in pages:
            info = self.table.entries.get(pid)
            if info is None:
                raise OverlapWithPrivate(f"page {pid} unknown to the allocation table")
            if info.world == TRUSTED:
                raise OverlapWithPrivate(
                    f"page {pid} is trusted-world ({info.owner}/{info.purpose})")
        if len(pages) * PAGE_SIZE != expected_size:
            raise SizeMismatch(
                f"{len(pages)} pages != expected {expected_size} bytes")
        self._run_of(pages)
        reg = SharedRegistration(region_id, tuple(pages), expected_size, VALIDATED)
        self.registrations[region_id] = reg
        return reg

    def map_region(self, space: AddressSpace, region_id: int,
                   base: int | None = None, perms: str = "rw") -> Mapping:
        """Map a validated grant. The same region may enter several spaces
        (that is what makes it shared); only pending grants refuse."""
        reg = self.registrations.get(region_id)
        if reg is None or reg.state not in (VALIDATED, MAPPED):
            raise NotValidated(f"region {region_id} not in a mappable state")
        if base is None:
            base = space.fresh_base(reg.expected_size)
        m = Mapping(base, reg.expected_size, reg.pages, perms, NORMAL, region_id,
                    *self._run_of(reg.pages))
        space.add_mapping(m)
        reg.state = MAPPED
        return m

    # --- state snapshot for atomicity checks ---

    def state_digest(self) -> tuple:
        """Exact snapshot of the metadata (not the payload), for `==`."""
        t = self.table
        return (sorted((pid, i.owner, i.world, i.purpose)
                       for pid, i in t.entries.items()),
                sorted(t.quotas.items()), sorted(t.used.items()),
                sorted((rid, r.pages, r.expected_size, r.state)
                       for rid, r in self.registrations.items()),
                [(sp.owner, sp.world, [(m.base, m.size, m.page_ids, m.perms)
                                       for m in sp._maps])
                 for sp in self.spaces])
