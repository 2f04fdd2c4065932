"""Hardened enclave-side interface to the shared rings.

Callers never touch ring memory directly: a submission is translated,
produced and recorded in one call (or parked while the ring or the table is
full), completion correlation state lives in a private table keyed by a
strictly monotonic internal id, and every address that enters a submission
is translated through a private, sorted translation table. All operations
run a statically bounded number of steps regardless of anything the host
writes into shared memory.
"""
from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import ring as ringmod
from .config import PAGE_SIZE, SimConfig
from .errors import EmptyConsume, Untranslatable
from .records import DeliveryLog
from .ring import Ring, Sqe
from .shm import AddressSpace, MemoryWindow


@dataclass(frozen=True)
class TranslationEntry:
    """One mapped shared block: enclave range -> proxy range, same size."""
    enclave_base: int
    proxy_base: int
    size: int


@dataclass
class SqeArgs:
    fd: int = 0
    addr: int = 0
    len: int = 0
    off: int = 0
    flags: int = 0
    translate: bool = True


class Completion(NamedTuple):
    tag: int
    result: int
    flags: int
    internal_id: int
    opcode: int


class _UserRecord(NamedTuple):
    tag: int
    opcode: int


@dataclass
class SharedBlock:
    """A host-granted, trusted-validated shared mapping usable for IO buffers."""
    entry: TranslationEntry
    window: MemoryWindow


class RingHandle:
    """Per-enclave hardened view of one SQ/CQ ring pair."""

    def __init__(self, sq: Ring, cq: Ring, space: AddressSpace, kernel,
                 pool, cfg: SimConfig, region_base: int = 1 << 20):
        self._sq = sq
        self._cq = cq
        self._space = space
        self._kernel = kernel
        self.pool = pool
        self._drop_budget = cfg.drop_budget
        # every in-flight record belongs to a pending promise, so the promise
        # pool's cap also bounds the table
        self._table_cap = cfg.max_outstanding_promises
        self._table: dict[int, _UserRecord] = {}  # in-flight records only
        self._next_internal = 1  # strictly monotonic, never reused
        self._front: Completion | None = None
        self._entries_list: list[TranslationEntry] = []
        self._bases: list[int] = []
        self._region_counter = region_base
        self._parked: deque = deque()
        self.delivered_log = DeliveryLog()  # (internal_id, result)

    # --- submission ---

    def prep_and_submit(self, opcode: int, args: SqeArgs,
                        caller_tag: int) -> int | None:
        """Translate, publish and record one submission, then ring the
        doorbell.

        The caller tag goes into the private table, never into shared memory;
        the published user_data is a fresh internal id, returned as an opaque
        receipt (usable with retire()). While the table or the ring is full
        the submission is parked for pump_parked() instead, and the result is
        None. An untranslatable buffer raises and changes nothing.
        """
        if self._has_room():
            internal = self._push(opcode, args, caller_tag)
            if internal is not None:
                self._kernel.ring_enter(self._space.owner)
                return internal
        self._parked.append((opcode, args, caller_tag))
        return None

    def _has_room(self) -> bool:
        return len(self._table) < self._table_cap and \
            self._sq.producer_occupancy() < self._sq.entries

    def _push(self, opcode: int, args: SqeArgs, caller_tag: int) -> int | None:
        """prep_and_submit after its room check, without the doorbell. None,
        with nothing recorded, when the produce finds the ring full after
        all (the shared head is the host's to move)."""
        addr = args.addr
        if args.translate and addr:
            addr = self.translate_addr(addr)
            if args.len > 1:
                end = self.translate_addr(args.addr + args.len - 1)
                if end - addr != args.len - 1:
                    raise Untranslatable("buffer straddles translation entries")
        internal = self._next_internal
        if not self._sq.produce(Sqe(opcode, args.flags, args.fd, addr,
                                    args.len, args.off, internal)):
            return None
        self._next_internal += 1
        self._table[internal] = _UserRecord(caller_tag, opcode)
        return internal

    # --- completion side ---

    def peek_cqe(self) -> Completion | None:
        """Deliver the next completion owed to an in-flight internal id.

        The entry is snapshotted in one read and validated against the
        private table; delivery removes the record, so unknown, retired and
        duplicate ids are all dropped (their ring slot consumed) up to the
        per-call drop budget. A previously peeked, unconsumed completion is
        returned again without touching shared memory.
        """
        if self._front is not None:
            return self._front
        drops = 0
        while True:
            raw = self._cq.peek()
            if raw is None:
                return None
            rec = self._table.pop(raw.user_data, None)
            if rec is not None:
                comp = Completion(rec.tag, raw.result, raw.flags,
                                  raw.user_data, rec.opcode)
                self.delivered_log.record(raw.user_data, raw.result)
                self._front = comp
                return comp
            if drops >= self._drop_budget:
                return None
            self._cq.consume_one()
            drops += 1

    def consume_cqe(self) -> None:
        if self._front is None:
            raise EmptyConsume("consume without a delivered peek")
        self._cq.consume_one()
        self._front = None

    def cq_backlog(self) -> int:
        """Clamped occupancy hint (untrusted; only safe as a loop *continue*
        condition, never as a loop bound)."""
        return self._cq.consumer_occupancy()

    def retire(self, receipt: int) -> None:
        """Forget an internal id: a later completion for it is dropped as
        unknown. Only the fuzzer drives it; a call that gives up retires
        by tag instead (retire_tag)."""
        self._table.pop(receipt, None)

    def retire_tag(self, tag: int) -> None:
        for internal in [i for i, rec in self._table.items() if rec.tag == tag]:
            del self._table[internal]
        if self._parked:
            self._parked = deque(p for p in self._parked if p[2] != tag)

    # --- address translation ---

    def insert_translation(self, entry: TranslationEntry) -> None:
        i = bisect.bisect_left(self._bases, entry.enclave_base)
        if i < len(self._entries_list):
            nxt = self._entries_list[i]
            if entry.enclave_base + entry.size > nxt.enclave_base:
                raise Untranslatable("translation entries must stay disjoint")
        if i > 0:
            prev = self._entries_list[i - 1]
            if prev.enclave_base + prev.size > entry.enclave_base:
                raise Untranslatable("translation entries must stay disjoint")
        self._bases.insert(i, entry.enclave_base)
        self._entries_list.insert(i, entry)

    def translate_addr(self, enclave_addr: int) -> int:
        i = bisect.bisect_right(self._bases, enclave_addr) - 1
        if i >= 0:
            e = self._entries_list[i]
            if enclave_addr < e.enclave_base + e.size:
                return e.proxy_base + (enclave_addr - e.enclave_base)
        raise Untranslatable(f"{enclave_addr:#x} not in any shared block")

    # --- mapped-block acquisition (drives the host grant flow) ---

    def enclave_mmap(self, size: int):
        """Request a new shared block from the host; promise of SharedBlock.

        Submits the grant request; when the completion carries the proxy base,
        the trusted side attaches the validated registration into the enclave
        space and a translation entry is recorded. Host silence leaves the
        promise pending forever; a trusted-side refusal fails it with
        RegistrationRejected.
        """
        if size <= 0:
            raise ValueError("mmap size must be positive")
        rsize = ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        self._region_counter += 1
        region_id = self._region_counter
        raw = self.pool.create()
        args = SqeArgs(fd=0, addr=0, len=rsize, off=region_id, translate=False)
        self.prep_and_submit(ringmod.OP_ENCLAVE_MMAP, args, raw.tag)
        return self.pool.then(raw, lambda proxy_base: self._attach_block(
            rsize, region_id, proxy_base))

    def _attach_block(self, rsize: int, region_id: int, proxy_base: int):
        if proxy_base < 0:
            raise Untranslatable(f"host refused grant: errno {-proxy_base}")
        enclave_base = self._kernel.attach_shared(self._space, region_id,
                                                  rsize)
        entry = TranslationEntry(enclave_base, proxy_base, rsize)
        self.insert_translation(entry)
        window = self._space.access(enclave_base, rsize, "w")
        return SharedBlock(entry, window)

    # --- parked submissions (ring or correlation table temporarily full) ---

    def pump_parked(self) -> None:
        """Push parked submissions in order while there is room, then ring
        one doorbell if any went out. Each entry leaves the queue before its
        push, so an untranslatable one raises once and blocks nothing."""
        pushed = False
        try:
            while self._parked and self._has_room():
                entry = self._parked.popleft()
                if self._push(*entry) is None:
                    self._parked.appendleft(entry)
                    break
                pushed = True
        finally:
            if pushed:
                self._kernel.ring_enter(self._space.owner)

    @property
    def parked_count(self) -> int:
        return len(self._parked)
