"""Bounded promise pool and the async IO composition helpers.

Promises here are deliberately austere: a state that moves from pending to
exactly one of fulfilled/failed, and nothing hangs on them. What waits is an
operation record, the caller tag of one correlation record: a staged call,
which is also the promise its caller sees, or an arena grant, which is no
promise at all. Each step of a record (staging once its arena arrives,
finishing once its completion lands) is one continuation on the pool's ready
queue. The pool caps outstanding promises and bounds the continuations run
per settle call; the rest waits for the next event-loop pump. Host silence
never fails a promise; it just stays pending while the event loop keeps
meeting its period.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from .enclave import SqeArgs
from .errors import PoolExhausted
from . import ring as ringmod

PENDING = "pending"
FULFILLED = "fulfilled"
FAILED = "failed"


class Promise:
    __slots__ = ("state", "value", "error")

    def __init__(self):
        self.state = PENDING
        self.value = None
        self.error = None


def poll(p: Promise) -> str:
    """Non-blocking state query."""
    return p.state


class PromisePool:
    """Fixed-capacity allocator, settling, and the ready queue of operation
    record steps."""

    def __init__(self, max_outstanding: int = 256, continuation_budget: int = 32):
        self.max_outstanding = max_outstanding
        self.continuation_budget = continuation_budget
        self.outstanding = 0
        self.stray_completions = 0
        self._ready: deque = deque()  # operation records, each run by _resume

    # --- allocation ---

    def create(self, kind: type = Promise) -> Promise:
        if self.outstanding >= self.max_outstanding:
            raise PoolExhausted(f"{self.outstanding} promises outstanding")
        self.outstanding += 1
        return kind()

    def fulfilled(self, value) -> Promise:
        p = self.create()
        self.fulfill(p, value)
        return p

    # --- settling ---

    def _settle(self, p: Promise, state: str, value, error) -> None:
        if p.state != PENDING:
            raise AssertionError("promise settled twice")
        p.state = state
        p.value = value
        p.error = error
        self.outstanding -= 1

    def fulfill(self, p: Promise, value) -> None:
        self._settle(p, FULFILLED, value, None)

    def fail(self, p: Promise, error) -> None:
        self._settle(p, FAILED, None, error)

    def abandon(self, p: Promise) -> None:
        """Forget a pending promise (timeout path). The slot is released at
        once, and a late completion is a stray."""
        if p.state == PENDING:
            self._settle(p, FAILED, None, "abandoned")

    def settle_from_cqe(self, completion) -> bool:
        """Settle `completion.tag`, the bare caller tag its correlation
        record held. A plain promise settles now, a negative result as a
        failure with the errno value; an operation record (or a grant)
        takes the result and resumes from the ready queue."""
        p = completion.tag
        if type(p) is not Promise:
            p.result = completion.result
            self.resume(p)
            return True
        if p.state != PENDING:
            self.stray_completions += 1
            return False
        if completion.result < 0:
            self.fail(p, -completion.result)
        else:
            self.fulfill(p, completion.result)
        return True

    # --- operation record steps ---

    def defer(self, op) -> None:
        """Queue op's next step for the next drain."""
        self._ready.append(op)

    def resume(self, op) -> None:
        """Run op's next step now, behind the steps already queued, within
        one settle call's budget."""
        self._ready.append(op)
        self._drain(self.continuation_budget)

    def run_deferred(self, budget: int | None = None) -> int:
        return self._drain(budget if budget is not None else self.continuation_budget)

    def _drain(self, budget: int) -> int:
        ran = 0
        ready = self._ready
        while ready and ran < budget:
            ran += 1
            ready.popleft()._resume(self)
        return ran

    @property
    def deferred_count(self) -> int:
        return len(self._ready)


# --- async IO composition over a runtime (handle + pools) ---

class _StagedOp(Promise):
    """One staged call's operation record and the promise its caller sees,
    carried by its correlation record as caller tag. Staging (its arena
    arrived) and finishing (its completion landed) are one ready-queue step
    each; finishing frees the arena. `landed`, when set, sees the op once it
    settled, after any arena went back (the shim's write-behind)."""

    __slots__ = ("rt", "opcode", "args", "payload", "finish", "arena",
                 "result", "landed")

    def _resume(self, pool: PromisePool) -> None:
        if self.result is None:  # the arena arrived
            if self.state != PENDING:  # the caller gave up meanwhile
                return self.rt.arena_pool.free_arena(self.arena)
            arena = self.arena
            if self.payload is not None:
                arena.write(0, self.payload)
            self.args.addr = arena.addr_of(0)
            self.rt.submit_async(self.opcode, self.args, self)
            return
        pending = self.state == PENDING  # else the caller gave up
        if pending and self.result < 0:
            pool.fail(self, -self.result)
        elif pending:
            pool.fulfill(self, self.finish(self.arena, self.result))
        self.rt.arena_pool.free_arena(self.arena)
        if pending and self.landed is not None:
            self.landed(self)

    def refuse(self, error) -> None:
        """Fail the op while it waits for an arena: its grant was refused."""
        self.rt.pool.fail(self, error)
        if self.landed is not None:
            self.landed(self)


def _staged_op(rt, opcode: int, size: int, fd: int = 0, off: int = 0,
               payload: bytes | None = None,
               finish: Callable = lambda _arena, result: result) -> Promise:
    """Promise of one call staged through an arena, which holds `size` bytes
    at offset 0, the submitted address; `payload`, when given, is copied in
    before submitting. finish(arena, result) gives the promise value."""
    op = rt.pool.create(_StagedOp)
    op.rt, op.opcode, op.payload, op.finish = rt, opcode, payload, finish
    op.args = SqeArgs(fd=fd, len=size, off=off)
    op.arena = op.result = op.landed = None
    return rt.arena_pool.request_arena(op, max(size, 1))


def abandon(rt, p: Promise) -> None:
    """Give up on a pending call (timeout path): release its promise slot and
    retire its tag. A staged call's arena is freed at once if the call never
    reached the ring, else by its late completion (the host owns it); one
    still parked for an arena leaves the arena pool's queue."""
    staged = isinstance(p, _StagedOp)
    parked = rt.handle.retire_tag(p, published=not staged)
    rt.pool.abandon(p)
    if staged and p.arena is None:
        rt.arena_pool.withdraw(p)
    elif staged and parked:
        rt.arena_pool.free_arena(p.arena)


def async_write(rt, fd: int, data: bytes, off: int = 0) -> Promise:
    """Promise of the write's completion result.

    A zero-byte write never touches the rings: immediately fulfilled with 0.
    """
    if len(data) == 0:
        return rt.pool.fulfilled(0)
    return _staged_op(rt, ringmod.OP_WRITE, len(data), fd=fd, off=off,
                      payload=data)


def async_read(rt, fd: int, n: int, off: int = 0) -> Promise:
    """Promise of the bytes read (snapshot copied out of shared memory).

    A hostile result value larger than the request is clamped to the arena
    window, so the copy-out can never overrun private buffers.
    """
    if n < 0:
        raise ValueError("read size must not be negative")
    if n == 0:
        return rt.pool.fulfilled(b"")
    return _staged_op(rt, ringmod.OP_READ, n, fd=fd, off=off,
                      finish=lambda arena, result: arena.read(0, min(result, n)))


def async_path_op(rt, opcode: int, path: bytes, off: int = 0) -> Promise:
    """open/unlink/mkdir: path bytes staged through an arena."""
    return _staged_op(rt, opcode, len(path), off=off, payload=path)


def async_open(rt, path: bytes, open_flags: int = 0) -> Promise:
    return async_path_op(rt, ringmod.OP_OPEN, path, off=open_flags)


def async_statx(rt, file: int | bytes) -> Promise:
    """Promise of (size, block_size, pseudo_flag) of an fd, or of a path,
    sent as AT_FDCWD and NUL-padded to hold the record the host writes."""
    path = None if isinstance(file, int) else \
        file.ljust(ringmod.STATX_BYTES, b"\0")
    return _staged_op(rt, ringmod.OP_STATX,
                      ringmod.STATX_BYTES if path is None else len(path),
                      fd=file if path is None else ringmod.AT_FDCWD,
                      payload=path,
                      finish=lambda arena, _result: ringmod.STATX_FMT
                      .unpack(arena.read(0, ringmod.STATX_BYTES)))
