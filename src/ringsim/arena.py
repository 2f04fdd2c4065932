"""Staging arenas carved from host-granted shared blocks.

An arena is one buffer lent to one operation. All allocator metadata
(capacities, free bins) is private to the enclave side; only payload bytes
live in shared memory, so no host write can corrupt an offset or a free list.
Freed arenas go back to size-class bins and are handed out LIFO; when nothing
fits, the pool requests one new shared block at a time and parks requesters
on promises until the grant lands.
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
        self._waiters: deque = deque()  # (class_bytes, promise)
        self._refill_inflight = False
        self._next_arena_id = 1
        # conservation accounting (exact, in bytes)
        self.total_received = 0
        self.total_in_bins = 0
        self.total_live = 0

    # --- public API ---

    def request_arena(self, size: int):
        """Promise of an Arena with capacity >= size.

        Fulfilled immediately when a binned chunk fits; otherwise parked until
        a refill grant lands. Fails with PoolExhausted only when a refill is
        explicitly refused or finds no promise slots for itself; host silence
        leaves it pending.
        """
        cls = size_class(size)
        chunk = self._take_chunk(cls)
        if chunk is not None:
            return self._handle.pool.fulfilled(self._make_arena(chunk))
        p = self._handle.pool.create()
        self._waiters.append((cls, p))
        self._maybe_refill()
        return p

    def cancel_request(self, p) -> None:
        """Drop a request whose caller gave up, if it still waits."""
        self._waiters = deque(w for w in self._waiters if w[1] is not p)
        self._handle.pool.abandon(p)

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
        p = self._handle.enclave_mmap(total)
        self._handle.pool.then(p, self._split_prefill)

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
        pool = self._handle.pool
        if pool.max_outstanding - pool.outstanding < 3:  # grant, attach, then
            return self._on_refill_failed("no promise slots")
        need = sum(cls for cls, _ in self._waiters)
        rsize = ((need + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        self._refill_inflight = True
        p = self._handle.enclave_mmap(rsize)
        pool.then(p, self._on_refill, on_fail=self._on_refill_failed)

    def _on_refill(self, block) -> None:
        self._refill_inflight = False
        size = block.entry.size
        self.total_received += size
        offset = 0
        while self._waiters:
            cls, p = self._waiters[0]
            if offset + cls > size:
                break
            self._waiters.popleft()
            chunk = _FreeChunk(block, offset, cls)
            offset += cls
            self.total_in_bins += cls  # flows straight to live via _make_arena
            self._handle.pool.fulfill(p, self._make_arena(chunk))
        self._bin_chunks(block, offset, _greedy_classes(size - offset))
        self._maybe_refill()

    def _on_refill_failed(self, error) -> None:
        self._refill_inflight = False
        while self._waiters:
            _, p = self._waiters.popleft()
            self._handle.pool.fail(p, PoolExhausted(f"refill refused: {error}"))

    def _split_prefill(self, block) -> None:
        size = block.entry.size
        self.total_received += size
        n16 = (3 * size // 4) // 16384
        n4 = (size - n16 * 16384) // 4096
        tail = size - n16 * 16384 - n4 * 4096
        self._bin_chunks(block, 0,
                         [16384] * n16 + [4096] * n4 + _greedy_classes(tail))
        # a parked demand request may now be satisfiable
        while self._waiters:
            chunk = self._take_chunk(self._waiters[0][0])
            if chunk is None:
                break
            _, p = self._waiters.popleft()
            self._handle.pool.fulfill(p, self._make_arena(chunk))

    def _bin_chunks(self, block, offset: int, classes: list[int]) -> None:
        """Bin consecutive chunks of `block` from `offset`, one per class."""
        for cls in classes:
            self._bins.setdefault(cls, []).append(_FreeChunk(block, offset, cls))
            self.total_in_bins += cls
            offset += cls

    def bin_census(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self._bins.items()) if v}
