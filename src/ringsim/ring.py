"""Shared-memory submission/completion rings with a fixed wire format.

Layout of a ring region (little-endian throughout):

    offset 0   u32 head      free-running consumer counter (shared)
    offset 4   u32 tail      free-running producer counter (shared)
    offset 8   u32 entries   written at init; re-read only to confirm at attach
    offset 12  ..63          reserved
    offset 64  slots         entries * slot_size bytes

Entry counts are powers of two. Indices are free-running 32-bit counters and
are masked with a private mask at each use; the mask and entry count cached at
init/attach are never re-read from shared memory, so no scribbled header value
can change a loop bound or index an out-of-range slot. Occupancy is always
derived as (tail - head) mod 2^32 and clamped to [0, entries].

Each side owns exactly one index (producer: tail, consumer: head) and keeps a
private copy of it, publishing after the slot bytes are in place (release)
and reading the opposing index fresh per operation (acquire): one in-place
`MemoryWindow.unpack` per index read, never cached across operations. Slot
snapshots are in-place unpacks too. Under CPython the byte stores are atomic
enough for the threaded smoke test; the deterministic interleaving checks
are the normative model.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .config import PAGE_SIZE
from .errors import BadSize, EmptyConsume
from .shm import MemoryWindow

MASK32 = 0xFFFFFFFF
RING_HEADER = 64

# opcode u8, flags u8, fd i32, addr u64, len u32, off u64, user_data u64,
# padded to 64 bytes
_SQE = struct.Struct("<BBiQIQQ30x")
# user_data u64, result i32, flags u32
_CQE = struct.Struct("<QiI")

SQE_SIZE = _SQE.size
CQE_SIZE = _CQE.size

_HDR_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Sqe:
    STRUCT = _SQE  # wire format, decoded as Sqe(*STRUCT.unpack(raw)); not a field
    opcode: int
    flags: int
    fd: int
    addr: int
    len: int
    off: int
    user_data: int

    def pack(self) -> bytes:
        return _SQE.pack(self.opcode & 0xFF, self.flags & 0xFF, self.fd,
                         self.addr & (2**64 - 1), self.len & MASK32,
                         self.off & (2**64 - 1), self.user_data & (2**64 - 1))


@dataclass(frozen=True)
class Cqe:
    STRUCT = _CQE
    user_data: int
    result: int
    flags: int

    def pack(self) -> bytes:
        return _CQE.pack(self.user_data & (2**64 - 1), self.result,
                         self.flags & MASK32)


def _check_geometry(window: MemoryWindow, entries: int, slot_size: int) -> None:
    if entries < 1 or entries & (entries - 1):
        raise BadSize(f"entry count {entries} not a power of two")
    need = RING_HEADER + entries * slot_size
    if window.length < need:
        raise BadSize(f"region of {window.length} bytes < required {need}")


class Ring:
    """One party's view of a shared ring.

    A view acts as producer or consumer but never both; the constructor
    caches the private mask and the private copy of the owned index. The slot
    size is the codec's wire size. `initialize` zeroes the indices (the first
    view); otherwise only the shared size field is read, to confirm the
    caller's private geometry.
    """

    def __init__(self, window: MemoryWindow, entries: int, codec, *,
                 initialize: bool):
        self._record = codec.STRUCT
        self._slot = self._record.size
        _check_geometry(window, entries, self._slot)
        self._win = window
        self._entries = entries
        self._mask = entries - 1
        self._codec = codec
        if initialize:
            window.pack(_HDR_U32, 0, 0)
            window.pack(_HDR_U32, 4, 0)
            window.pack(_HDR_U32, 8, entries)
            self._head = 0
            self._tail = 0
        else:
            (shared,) = window.unpack(_HDR_U32, 8)
            if shared != entries:
                raise BadSize(f"shared size field {shared} != expected {entries}")
            (self._head,) = window.unpack(_HDR_U32, 0)
            (self._tail,) = window.unpack(_HDR_U32, 4)

    @property
    def entries(self) -> int:
        return self._entries

    # --- shared index helpers ---

    def _read_shared_head(self) -> int:
        return self._win.unpack(_HDR_U32, 0)[0]

    def _read_shared_tail(self) -> int:
        return self._win.unpack(_HDR_U32, 4)[0]

    def _publish_head(self) -> None:
        self._win.pack(_HDR_U32, 0, self._head)

    def _publish_tail(self) -> None:
        self._win.pack(_HDR_U32, 4, self._tail)

    @staticmethod
    def _clamp(delta: int, entries: int) -> int:
        occ = delta & MASK32
        return entries if occ > entries else occ

    # --- producer side ---

    def producer_occupancy(self) -> int:
        return self._clamp(self._tail - self._read_shared_head(), self._entries)

    def produce(self, entry) -> bool:
        """Serialize one entry and publish it. False when full."""
        if self.producer_occupancy() == self._entries:
            return False
        off = RING_HEADER + (self._tail & self._mask) * self._slot
        self._win.write(off, entry.pack())
        self._tail = (self._tail + 1) & MASK32
        self._publish_tail()
        return True

    # --- consumer side ---

    def consumer_occupancy(self) -> int:
        return self._clamp(self._read_shared_tail() - self._head, self._entries)

    def peek(self):
        """Snapshot the head entry without advancing. One slot read, ever."""
        if self.consumer_occupancy() == 0:
            return None
        off = RING_HEADER + (self._head & self._mask) * self._slot
        return self._codec(*self._win.unpack(self._record, off))

    def consume_one(self) -> None:
        if self.consumer_occupancy() == 0:
            raise EmptyConsume("consume on empty ring")
        self._head = (self._head + 1) & MASK32
        self._publish_head()

    def consume_batch(self, max_entries: int) -> list:
        """Snapshot and consume up to max_entries in order.

        The loop bound is min(clamped occupancy, max_entries): both are
        private quantities once clamped, so a scribbled tail can only make
        the batch smaller or exactly `entries` long, never larger.
        """
        n = min(self.consumer_occupancy(), max_entries)
        out = []
        for _ in range(n):
            off = RING_HEADER + (self._head & self._mask) * self._slot
            out.append(self._codec(*self._win.unpack(self._record, off)))
            self._head = (self._head + 1) & MASK32
        if n:
            self._publish_head()
        return out


def sq_ring_init(window: MemoryWindow, entries: int) -> Ring:
    return Ring(window, entries, Sqe, initialize=True)


def sq_ring_attach(window: MemoryWindow, entries: int) -> Ring:
    return Ring(window, entries, Sqe, initialize=False)


def cq_ring_init(window: MemoryWindow, entries: int) -> Ring:
    return Ring(window, entries, Cqe, initialize=True)


def cq_ring_attach(window: MemoryWindow, entries: int) -> Ring:
    return Ring(window, entries, Cqe, initialize=False)


def ring_region_bytes(entries: int, slot_size: int) -> int:
    """Page-rounded region size for a ring of the given geometry."""
    raw = RING_HEADER + entries * slot_size
    return ((raw + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


# --- operation vocabulary carried in Sqe.opcode ---
# Numbers are wire format and never reused; 8..14 and 17 are unassigned.

OP_OPEN = 1
OP_READ = 2
OP_WRITE = 3
OP_CLOSE = 4
OP_STATX = 5
OP_UNLINK = 6
OP_MKDIR = 7
OP_GETPID = 15
OP_ENCLAVE_MMAP = 16

OP_NAMES = {
    OP_OPEN: "open", OP_READ: "read", OP_WRITE: "write", OP_CLOSE: "close",
    OP_STATX: "statx", OP_UNLINK: "unlink", OP_MKDIR: "mkdir",
    OP_GETPID: "getpid", OP_ENCLAVE_MMAP: "enclave_mmap",
}

# open() mode bits carried in Sqe.off
OPENF_CREATE = 0x1
OPENF_TRUNC = 0x2

# statx payload written into the caller buffer: size u64, block_size u32,
# pseudo u32
STATX_FMT = struct.Struct("<QII")
STATX_BYTES = STATX_FMT.size

# wake-queue record the trusted kernel posts on ring enter: free-running post
# count u32, last caller ordinal u32
WAKE_FMT = struct.Struct("<II")
