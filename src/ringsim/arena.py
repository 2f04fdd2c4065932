"""Staging arenas carved from host-granted shared blocks.

An arena is one buffer lent to one operation. All allocator metadata
(capacities, free bins) is private to the enclave side; only payload bytes
live in shared memory, so no host write can corrupt an offset or a free list.
Freed arenas go back to size-class bins and are handed out LIFO. The
requesters are the staged calls' operation records themselves: when nothing
fits, an op parks in the pool's queue, and the pool requests one new shared
block at a time; the grant that lands hands the parked ops their arenas in
order, and one the trusted side refuses fails them.
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


def _greedy_classes(length: int) -> list[int]:
    # split a multiple of the smallest class into class-sized chunks, largest
    # first; never leaves a remainder because every class divides PAGE_SIZE*k
    out = []
    while length >= SIZE_CLASSES[0]:
        for c in reversed(SIZE_CLASSES):
            if c <= length:
                out.append(c)
                length -= c
                break
    return out


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
    """Size-class bins over shared blocks, refilled one grant at a time."""

    def __init__(self, handle):
        self._handle = handle
        self._bins: dict[int, list[_FreeChunk]] = {}
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

        A binned chunk that fits serves it at once, and the op's staging step
        is queued for the next drain. Otherwise the op parks until a refill
        grant lands, or fails with PoolExhausted if the grant is refused;
        host silence leaves it parked.
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
        """Issue the launch-time grant request named in the enclave env and
        split the block into the static class census when it lands."""
        raw = env.get(INIT_SHM_ENV)
        if not raw:
            return
        total = int(raw)
        if total <= 0:
            return
        self._handle.enclave_mmap(total, self._split_prefill)

    def accounting(self) -> tuple[int, int, int]:
        """(received, in_bins, live) byte totals; received == in_bins + live."""
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
        if cls > _MAX_CLASS:  # dedicated blocks match exactly
            stack = self._bins.get(cls)
            return stack.pop() if stack else None
        for c in SIZE_CLASSES:
            if c < cls:
                continue
            stack = self._bins.get(c)
            if stack:
                return stack.pop()
        return None

    def _maybe_refill(self) -> None:
        if self._refill_inflight or not self._waiters:
            return
        self._refill_inflight = True
        self._handle.enclave_mmap(sum(cls for cls, _ in self._waiters),
                                  self._on_refill)

    def _on_refill(self, block, refusal) -> None:
        self._refill_inflight = False
        if refusal is not None:
            while self._waiters:
                self._waiters.popleft()[1].refuse(
                    PoolExhausted(f"refill refused: {refusal}"))
            return
        size = block.entry.size
        self.total_received += size
        offset = 0
        while self._waiters:
            cls, op = self._waiters[0]
            if offset + cls > size:
                break
            self._waiters.popleft()
            self.total_in_bins += cls  # flows straight to live via _make_arena
            op.arena = self._make_arena(_FreeChunk(block, offset, cls))
            offset += cls
            self._handle.pool.resume(op)
        self._bin_chunks(block, offset, _greedy_classes(size - offset))
        self._maybe_refill()

    def _split_prefill(self, block, refusal) -> None:
        if refusal is not None:  # parked ops wait on their own refill
            return
        size = block.entry.size
        self.total_received += size
        n16 = (3 * size // 4) // 16384
        n4 = (size - n16 * 16384) // 4096
        tail = size - n16 * 16384 - n4 * 4096
        self._bin_chunks(block, 0,
                         [16384] * n16 + [4096] * n4 + _greedy_classes(tail))
        # a parked op may now be servable
        while self._waiters:
            chunk = self._take_chunk(self._waiters[0][0])
            if chunk is None:
                break
            op = self._waiters.popleft()[1]
            op.arena = self._make_arena(chunk)
            self._handle.pool.resume(op)

    def _bin_chunks(self, block, offset: int, classes: list[int]) -> None:
        """Bin consecutive chunks of `block` from `offset`, one per class."""
        for cls in classes:
            self._bins.setdefault(cls, []).append(_FreeChunk(block, offset, cls))
            self.total_in_bins += cls
            offset += cls

    def bin_census(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self._bins.items()) if v}
