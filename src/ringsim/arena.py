"""Staging arenas carved from host-granted shared blocks.

An arena is one buffer lent to one operation. All allocator metadata
(capacities, free bins) is private to the enclave side; only payload bytes
live in shared memory, so no host write can corrupt an offset or a free list.
Every block that lands, the launch grant or a refill, becomes a spare tail,
and each op is carved from it on demand at its own size class. Freed arenas
go back to size-class bins and are handed out LIFO before any tail is cut.
The requesters are the staged calls' operation records themselves: when
nothing fits, an op parks in the pool's queue, and the pool requests one new
shared block at a time; the grant that lands hands the parked ops their
arenas in order, and one the trusted side refuses fails them.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .config import INIT_SHM_ENV, PAGE_SIZE, SIZE_CLASSES
from .errors import ArenaFull, DoubleFree, PoolExhausted, UseAfterFree

_MAX_CLASS = SIZE_CLASSES[-1]


def size_class(n: int) -> int:
    """Smallest class >= n, or the page-rounded size for oversized requests."""
    if n <= 0:
        raise ValueError("size must be positive")
    if n <= _MAX_CLASS:
        for c in SIZE_CLASSES:
            if c >= n:
                return c
    return ((n + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


@dataclass
class _FreeChunk:
    block: object  # SharedBlock
    offset: int
    capacity: int


class Arena:
    """One staging buffer inside a shared block, lent to one operation."""

    __slots__ = ("arena_id", "block", "block_offset", "capacity", "live")

    def __init__(self, arena_id: int, block, block_offset: int, capacity: int):
        self.arena_id = arena_id
        self.block = block
        self.block_offset = block_offset
        self.capacity = capacity
        self.live = True

    def _check_live(self) -> None:
        if not self.live:
            raise UseAfterFree(f"arena {self.arena_id} was freed")

    def write(self, off: int, data: bytes) -> None:
        self._check_live()
        if off < 0 or off + len(data) > self.capacity:
            raise ArenaFull("write outside arena")
        self.block.window.write(self.block_offset + off, data)

    def read(self, off: int, n: int) -> bytes:
        self._check_live()
        if off < 0 or off + n > self.capacity:
            raise ArenaFull("read outside arena")
        return self.block.window.read(self.block_offset + off, n)

    def addr_of(self, off: int) -> int:
        """Enclave virtual address of an offset (for submission buffers)."""
        self._check_live()
        return self.block.entry.enclave_base + self.block_offset + off


class ArenaPool:
    """Size-class bins and spare tails over shared blocks, one grant at a
    time."""

    def __init__(self, handle):
        self._handle = handle
        self._bins: dict[int, list[_FreeChunk]] = {}
        self._tails: list[_FreeChunk] = []  # uncarved rest of each block
        self._waiters: deque = deque()  # (class_bytes, op), in parking order
        self._refill_inflight = False
        self._next_arena_id = 1
        # conservation accounting (exact, in bytes)
        self.total_received = 0
        self.total_in_bins = 0
        self.total_live = 0

    # --- public API ---

    def request_arena(self, op, size: int):
        """Give `op` (a staged call's record) an Arena with capacity >= size,
        as op.arena; -> op.

        A binned chunk or a spare tail that fits serves it at once, and the
        op's staging step is queued for the next drain. Otherwise the op
        parks until a grant lands, or fails with PoolExhausted if the grant
        is refused; host silence leaves it parked.
        """
        cls = size_class(size)
        chunk = self._take_chunk(cls)
        if chunk is not None:
            op.arena = self._make_arena(chunk)
            self._handle.pool.defer(op)
        else:
            self._waiters.append((cls, op))
            self._maybe_refill()
        return op

    def withdraw(self, op) -> None:
        """Drop a parked op whose caller gave up."""
        self._waiters = deque(w for w in self._waiters if w[1] is not op)

    def free_arena(self, arena: Arena) -> None:
        if not arena.live:
            raise DoubleFree(f"arena {arena.arena_id} already freed")
        arena.live = False  # poisons outstanding offsets in debug use
        self.total_live -= arena.capacity
        self.total_in_bins += arena.capacity
        self._bins.setdefault(arena.capacity, []).append(
            _FreeChunk(arena.block, arena.block_offset, arena.capacity))

    def prefill(self, env: dict) -> None:
        """Issue the launch-time grant request named in the enclave env as
        the first refill: ops that park before it lands wait for it."""
        total = int(env.get(INIT_SHM_ENV) or 0)
        if total > 0:
            self._refill_inflight = True
            self._handle.enclave_mmap(total, self._on_refill)

    def accounting(self) -> tuple[int, int, int]:
        """(received, in_bins, live) byte totals; received == in_bins + live.
        Uncarved tail bytes count as in_bins."""
        return (self.total_received, self.total_in_bins, self.total_live)

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    # --- internals ---

    def _make_arena(self, chunk: _FreeChunk) -> Arena:
        a = Arena(self._next_arena_id, chunk.block, chunk.offset,
                  chunk.capacity)
        self._next_arena_id += 1
        self.total_in_bins -= chunk.capacity
        self.total_live += chunk.capacity
        return a

    def _take_chunk(self, cls: int) -> _FreeChunk | None:
        """A binned chunk of class `cls` or larger (oversized classes match
        exactly), else `cls` bytes carved from the first tail that fits."""
        classes = SIZE_CLASSES if cls <= _MAX_CLASS else (cls,)
        for c in classes:
            if c >= cls and self._bins.get(c):
                return self._bins[c].pop()
        for i, tail in enumerate(self._tails):
            if tail.capacity >= cls:
                chunk = _FreeChunk(tail.block, tail.offset, cls)
                tail.offset += cls
                tail.capacity -= cls
                if not tail.capacity:
                    del self._tails[i]
                return chunk
        return None

    def _maybe_refill(self) -> None:
        if self._refill_inflight or not self._waiters:
            return
        self._refill_inflight = True
        self._handle.enclave_mmap(sum(cls for cls, _ in self._waiters),
                                  self._on_refill)

    def _on_refill(self, block, refusal) -> None:
        """Land a grant, the launch grant or a refill, as a spare tail and
        serve the parked ops from it in order; a refusal fails them."""
        self._refill_inflight = False
        if refusal is not None:
            while self._waiters:
                self._waiters.popleft()[1].refuse(
                    PoolExhausted(f"refill refused: {refusal}"))
            return
        size = block.entry.size
        self.total_received += size
        self.total_in_bins += size
        self._tails.append(_FreeChunk(block, 0, size))
        while self._waiters:
            chunk = self._take_chunk(self._waiters[0][0])
            if chunk is None:
                break
            op = self._waiters.popleft()[1]
            op.arena = self._make_arena(chunk)
            self._handle.pool.resume(op)
        self._maybe_refill()
