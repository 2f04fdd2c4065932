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
from .errors import EmptyConsume, RegistrationRejected, Untranslatable
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
    tag: object  # the caller tag given to prep_and_submit
    result: int  # the host's value, untrusted
    internal_id: int  # the user_data it was published under


_MISSING = object()  # no record: tags may be anything, 0 and None included


@dataclass
class SharedBlock:
    """A host-granted, trusted-validated shared mapping usable for IO buffers."""
    entry: TranslationEntry
    window: MemoryWindow


class _Grant:
    """The caller tag of one grant request's correlation record, and no
    promise: its completion is one ready-queue step that attaches the block
    and hands it to landed(block, None), or a trusted-side refusal to
    landed(None, refusal)."""

    __slots__ = ("handle", "rsize", "region_id", "landed", "result")

    def __init__(self, handle, rsize: int, region_id: int, landed):
        self.handle, self.rsize, self.region_id = handle, rsize, region_id
        self.landed = landed

    def _resume(self, _pool) -> None:
        try:
            block = self.handle._attach_block(self.rsize, self.region_id,
                                              self.result)
        except (RegistrationRejected, Untranslatable) as refusal:
            return self.landed(None, refusal)
        self.landed(block, None)


class RingHandle:
    """Per-enclave hardened view of one SQ/CQ ring pair."""

    def __init__(self, sq: Ring, cq: Ring, space: AddressSpace, kernel,
                 pool, cfg: SimConfig, region_base: int = 1 << 20,
                 keep_records: bool = True):
        self._sq = sq
        self._cq = cq
        self._space = space
        self._kernel = kernel
        self.pool = pool
        self._drop_budget = cfg.drop_budget
        # the correlation table maps each in-flight internal id to its bare
        # caller tag, as io_uring's user_data names a request. The promise
        # pool's cap also caps it. A record belongs to a pending call, to an
        # abandoned staged call until its completion lands, or to the arena
        # pool's one grant in flight (the launch grant is its first refill),
        # which holds no promise
        self._table_cap = cfg.max_outstanding_promises
        self._table: dict[int, object] = {}
        self._next_internal = 1  # strictly monotonic, never reused
        self._front: Completion | None = None
        self._entries_list: list[TranslationEntry] = []
        self._bases: list[int] = []
        self._region_counter = region_base
        self._parked: deque = deque()
        self.backlog = False  # left by the last reap (see there)
        # set by EnclaveRuntime.pump when it pushed and delivered nothing: no
        # parked entry can go out before the host runs or a retire (which
        # clears it) frees a record
        self.stuck = False
        self.delivered_log = DeliveryLog(keep_records)  # (internal_id, result)

    # --- submission ---

    def prep_and_submit(self, opcode: int, args: SqeArgs,
                        caller_tag) -> int | None:
        """Translate, publish and record one submission, then ring the
        doorbell.

        The caller tag (any private token: a promise, a staged call's op or
        a grant record) goes into the private table, never into shared
        memory; the published user_data is a fresh internal id, returned as
        an opaque receipt (usable with retire()). While the table or the
        ring is full, or anything is parked (the host consumes in submission
        order), the submission is parked for pump_parked() instead, and the
        result is None. An untranslatable buffer raises and changes nothing.
        """
        self._sq.begin_produce()
        try:
            internal = None if self._parked or not self._has_room() else \
                self._push(opcode, args, caller_tag)
        finally:
            self._sq.end_produce()
        if internal is None:
            self._parked.append((opcode, args, caller_tag))
        else:
            self._kernel.ring_enter(self._space.owner)
        return internal

    def _has_room(self) -> bool:
        return len(self._table) < self._table_cap and \
            self._sq.producer_occupancy() < self._sq.entries

    def _push(self, opcode: int, args: SqeArgs, caller_tag) -> int:
        """prep_and_submit after its room check (in the same SQ batch, so
        the produce cannot find the ring full), without the doorbell."""
        addr = args.addr
        if args.translate and addr:
            addr = self.translate_addr(addr)
            if args.len > 1:
                end = self.translate_addr(args.addr + args.len - 1)
                if end - addr != args.len - 1:
                    raise Untranslatable("buffer straddles translation entries")
        internal = self._next_internal
        self._sq.produce(Sqe(opcode, args.flags, args.fd, addr, args.len,
                             args.off, internal))
        self._next_internal += 1
        self._table[internal] = caller_tag
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
            tag = self._table.pop(raw.user_data, _MISSING)
            if tag is not _MISSING:
                comp = Completion(tag, raw.result, raw.user_data)
                self.delivered_log.record(raw.user_data, raw.result)
                self._front = comp
                return comp
            if drops >= self._drop_budget:
                return None
            self._cq.consume_one()
            drops += 1

    def reap(self, budget: int, deliver) -> int:
        """pump's drain: up to `budget` events in one CQ batch, handing each
        completion to deliver(); -> events used. A round of junk (a full drop
        budget) is an event too, so a flooded ring drains across calls. The
        drain stops once the batch's clamped occupancy reaches 0, so an
        empty CQ with no held front costs the one tail load. `backlog`: did
        a drain that used its budget leave a completion or a held front."""
        cq = self._cq
        cq.begin_consume()
        n = 0
        try:
            while n < budget and (self._front is not None or
                                  cq.consumer_occupancy()):
                comp = self.peek_cqe()
                if comp is not None:
                    self.consume_cqe()
                    deliver(comp)
                elif cq.consumer_occupancy() == 0:
                    break
                n += 1  # a drop-budget round of junk is still an event
            self.backlog = n >= budget and bool(self._front or cq.consumer_occupancy())
        finally:
            cq.end_consume()
        return n

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
        self.stuck = False

    def retire_tag(self, tag, published: bool = True) -> bool:
        """Forget a tag whose caller gave up: drop its parked submissions
        and, if `published`, its published records, so that a late
        completion is dropped as unknown. -> whether one was parked."""
        if published:
            self._table = {i: t for i, t in self._table.items() if t != tag}
            self.stuck = False
        parked = len(self._parked)
        self._parked = deque(p for p in self._parked if p[2] != tag)
        return len(self._parked) < parked

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

    def enclave_mmap(self, size: int, landed) -> None:
        """Request a new shared block of `size` bytes, page-rounded, from the
        host; one grant record is the caller tag, and no promise.

        When the completion carries the proxy base, the trusted side attaches
        the validated registration into the enclave space, records a
        translation entry and calls landed(block, None). A trusted-side
        refusal (RegistrationRejected, or Untranslatable for a negative
        result) calls landed(None, refusal) instead; host silence never
        calls it.
        """
        if size <= 0:
            raise ValueError("mmap size must be positive")
        rsize = ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
        self._region_counter += 1
        grant = _Grant(self, rsize, self._region_counter, landed)
        args = SqeArgs(fd=0, addr=0, len=rsize, off=grant.region_id,
                       translate=False)
        self.prep_and_submit(ringmod.OP_ENCLAVE_MMAP, args, grant)

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

    def pump_parked(self) -> bool:
        """Push parked submissions in order in one SQ batch while there is
        room, then ring one doorbell if any went out; -> whether any did.
        Each entry leaves the queue before its push, so an untranslatable
        one raises once."""
        if not self._parked:
            return False
        self._sq.begin_produce()
        pushed = False
        try:
            while self._parked and self._has_room():
                self._push(*self._parked.popleft())
                pushed = True
        finally:
            self._sq.end_produce()
            if pushed:
                self._kernel.ring_enter(self._space.owner)
        return pushed

    @property
    def parked_count(self) -> int:
        return len(self._parked)
