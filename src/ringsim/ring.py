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
and loading the opposing index (acquire) once per batch, as liburing's
`io_uring_peek_batch_cqe` does; a call outside a batch is a batch of one.
With one simulated core the other party cannot move or scribble its index
while a batch is open, so the raw snapshot, clamped again at each step, is
exactly what a re-read would give. All accesses are in-place `unpack`s and
`pack`s. Under CPython the byte stores are atomic enough for the threaded
smoke test; the deterministic interleaving checks are the normative model.

An SQE's flags byte has one bit, SQE_DRAIN (io_uring's IOSQE_IO_DRAIN): start
the entry once every entry consumed before it from its ring has run. It is a
request to an untrusted host, never a premise of the enclave side.
"""
from __future__ import annotations

import struct
from typing import NamedTuple

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
_HEAD, _TAIL = 0, 4  # header offsets of the two shared indices


class Sqe(NamedTuple):
    opcode: int
    flags: int  # SQE_DRAIN or 0
    fd: int
    addr: int
    len: int
    off: int
    user_data: int

    STRUCT = _SQE  # wire format, decoded as Sqe._make(STRUCT.unpack(raw)); not a field

    def wire(self) -> tuple:
        """The field values cut to their wire widths, in STRUCT order."""
        return (self.opcode & 0xFF, self.flags & 0xFF, self.fd,
                self.addr & (2**64 - 1), self.len & MASK32,
                self.off & (2**64 - 1), self.user_data & (2**64 - 1))

    def pack(self) -> bytes:
        return _SQE.pack(*self.wire())


class Cqe(NamedTuple):
    user_data: int
    result: int
    flags: int

    STRUCT = _CQE

    def wire(self) -> tuple:
        return (self.user_data & (2**64 - 1), self.result, self.flags & MASK32)

    def pack(self) -> bytes:
        return _CQE.pack(*self.wire())


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
        self._make = codec._make
        self._held: int | None = None  # the other side's index, per batch
        self._mark = 0  # the owned index when the batch opened
        if initialize:
            window.pack(_HDR_U32, _HEAD, 0)
            window.pack(_HDR_U32, _TAIL, 0)
            window.pack(_HDR_U32, 8, entries)
            self._head = 0
            self._tail = 0
        else:
            (shared,) = window.unpack(_HDR_U32, 8)
            if shared != entries:
                raise BadSize(f"shared size field {shared} != expected {entries}")
            (self._head,) = window.unpack(_HDR_U32, _HEAD)
            (self._tail,) = window.unpack(_HDR_U32, _TAIL)

    @property
    def entries(self) -> int:
        return self._entries

    # --- producer side ---

    def begin_produce(self) -> None:
        """Open a batch: one head load; the tail is stored at end_produce."""
        self._held = self._win.unpack(_HDR_U32, _HEAD)[0]
        self._mark = self._tail

    def end_produce(self) -> None:
        self._held = None
        if self._tail != self._mark:
            self._win.pack(_HDR_U32, _TAIL, self._tail)

    def producer_occupancy(self) -> int:
        head = self._held
        if head is None:
            head = self._win.unpack(_HDR_U32, _HEAD)[0]
        occ = (self._tail - head) & MASK32
        return occ if occ < self._entries else self._entries

    def produce(self, entry) -> bool:
        """Pack one entry into its slot in place and publish it; False if full."""
        if self.producer_occupancy() == self._entries:
            return False
        off = RING_HEADER + (self._tail & self._mask) * self._slot
        self._win.pack(self._record, off, *entry.wire())
        self._tail = (self._tail + 1) & MASK32
        if self._held is None:
            self._win.pack(_HDR_U32, _TAIL, self._tail)
        return True

    # --- consumer side ---

    def begin_consume(self) -> None:
        """Open a batch: one tail load; the head is stored at end_consume."""
        self._held = self._win.unpack(_HDR_U32, _TAIL)[0]
        self._mark = self._head

    def end_consume(self) -> None:
        self._held = None
        if self._head != self._mark:
            self._win.pack(_HDR_U32, _HEAD, self._head)

    def consumer_occupancy(self) -> int:
        tail = self._held
        if tail is None:
            tail = self._win.unpack(_HDR_U32, _TAIL)[0]
        occ = (tail - self._head) & MASK32
        return occ if occ < self._entries else self._entries

    def peek(self):
        """Snapshot the head entry without advancing. One slot read, ever."""
        if self.consumer_occupancy() == 0:
            return None
        off = RING_HEADER + (self._head & self._mask) * self._slot
        return self._make(self._win.unpack(self._record, off))

    def consume_one(self) -> None:
        if self.consumer_occupancy() == 0:
            raise EmptyConsume("consume on empty ring")
        self._head = (self._head + 1) & MASK32
        if self._held is None:
            self._win.pack(_HDR_U32, _HEAD, self._head)

    def consume_batch(self, max_entries: int) -> list:
        """Snapshot and consume up to max_entries in order: one batch.

        The loop bound is min(clamped occupancy, max_entries): both are
        private quantities once clamped, so a scribbled tail can only make
        the batch smaller or exactly `entries` long, never larger. An empty
        ring costs the one tail load.
        """
        tail = self._win.unpack(_HDR_U32, _TAIL)[0]
        if tail == self._head:
            return []
        n = min((tail - self._head) & MASK32, self._entries, max_entries)
        out = []
        for _ in range(n):
            off = RING_HEADER + (self._head & self._mask) * self._slot
            out.append(self._make(self._win.unpack(self._record, off)))
            self._head = (self._head + 1) & MASK32
        if n:
            self._win.pack(_HDR_U32, _HEAD, self._head)
        return out


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

SQE_DRAIN = 0x1  # Sqe.flags: run after every earlier SQE of this ring ran
AT_FDCWD = -100  # Sqe.fd of a statx naming its file by the path it carries

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
