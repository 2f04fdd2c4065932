"""Bounded promise pool and the async IO composition helpers.

Promises here are deliberately austere: a state that moves from pending to
exactly one of fulfilled/failed, and the continuations queued for when it
does: `then` children with a one-argument callback, and staged calls, each an
operation record that is its caller's promise. The pool caps outstanding
promises and bounds continuation work per settle call; the rest waits for the
next event-loop pump. Host silence never fails a promise; it just stays
pending while the event loop keeps meeting its period.
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
    __slots__ = ("state", "value", "error", "_succ")

    def __init__(self):
        self.state = PENDING
        self.value = None
        self.error = None
        self._succ: list = []  # continuations queued when it settles


class _Then(Promise):
    """A promise settled by callback(parent.value) once parent settles."""

    __slots__ = ("parent", "callback", "on_fail")

    def _resume(self, pool: "PromisePool") -> None:
        parent = self.parent
        if self.state != PENDING:
            return
        if parent.state == FAILED:
            if self.on_fail is not None:
                self.on_fail(parent.error)
            return pool._settle(self, FAILED, None, parent.error)
        try:
            result = self.callback(parent.value)
        except Exception as exc:  # callback faults become failures
            return pool._settle(self, FAILED, None, exc)
        pool._settle(self, FULFILLED, result, None)


def poll(p: Promise) -> str:
    """Non-blocking state query."""
    return p.state


class PromisePool:
    """Fixed-capacity allocator plus the settle/cascade engine."""

    def __init__(self, max_outstanding: int = 256, continuation_budget: int = 32):
        self.max_outstanding = max_outstanding
        self.continuation_budget = continuation_budget
        self.outstanding = 0
        self.stray_completions = 0
        self._ready: deque = deque()  # continuations, each run by _resume

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

    def then(self, parent: Promise, callback: Callable,
             on_fail: Callable | None = None) -> Promise:
        """Successor of parent, settled with callback(parent.value); a parent
        failure propagates, seen first by on_fail(error) when given."""
        child = self.create(_Then)
        child.parent, child.callback, child.on_fail = parent, callback, on_fail
        self._after(parent, child)
        return child

    def _after(self, p: Promise, continuation) -> None:
        (p._succ if p.state == PENDING else self._ready).append(continuation)

    # --- settling ---

    def _settle(self, p: Promise, state: str, value, error) -> None:
        if p.state != PENDING:
            raise AssertionError("promise settled twice")
        p.state = state
        p.value = value
        p.error = error
        self.outstanding -= 1
        self._ready.extend(p._succ)
        p._succ = []

    def fulfill(self, p: Promise, value) -> None:
        self._settle(p, FULFILLED, value, None)
        self._drain(self.continuation_budget)

    def fail(self, p: Promise, error) -> None:
        self._settle(p, FAILED, None, error)
        self._drain(self.continuation_budget)

    def abandon(self, p: Promise) -> None:
        """Forget a pending promise (timeout path). The slot is released,
        its continuations never run, and a late completion is a stray."""
        if p.state == PENDING:
            self.outstanding -= 1
            p.state = FAILED
            p.error = "abandoned"
            p._succ = []

    def settle_from_cqe(self, completion) -> bool:
        """Settle the promise a delivered completion was submitted with (its
        caller tag). A staged call finishes as a continuation; any other
        settles now, a negative result as a failure with the errno value."""
        p = completion.tag
        if isinstance(p, _StagedOp):
            p.result = completion.result
            self._ready.append(p)
            self._drain(self.continuation_budget)
            return True
        if p.state != PENDING:
            self.stray_completions += 1
            return False
        if completion.result < 0:
            self.fail(p, -completion.result)
        else:
            self.fulfill(p, completion.result)
        return True

    # --- continuation execution ---

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
    carried by its correlation record as caller tag. Staging (the arena
    request settled) and finishing (the completion landed) are one
    continuation each; finishing frees the arena."""

    __slots__ = ("rt", "opcode", "args", "payload", "finish", "request",
                 "arena", "result")

    def _resume(self, pool: PromisePool) -> None:
        if self.arena is None:  # the arena request settled
            req = self.request
            if req.state == FAILED:
                if self.state == PENDING:
                    pool._settle(self, FAILED, None, req.error)
            elif self.state != PENDING:  # the caller gave up meanwhile
                self.rt.arena_pool.free_arena(req.value)
            else:
                self.arena = arena = req.value
                if self.payload is not None:
                    arena.write(0, self.payload)
                self.args.addr = arena.addr_of(0)
                self.rt.submit_async(self.opcode, self.args, self)
            return
        if self.state == PENDING:  # else the caller gave up: deliver nothing
            if self.result < 0:
                pool._settle(self, FAILED, None, -self.result)
            else:
                pool._settle(self, FULFILLED,
                             self.finish(self.arena, self.result), None)
        self.rt.arena_pool.free_arena(self.arena)


def _staged_op(rt, opcode: int, size: int, fd: int = 0, off: int = 0,
               payload: bytes | None = None,
               finish: Callable = lambda _arena, result: result) -> Promise:
    """Promise of one call staged through an arena, which holds `size` bytes
    at offset 0, the submitted address; `payload`, when given, is copied in
    before submitting. finish(arena, result) gives the promise value."""
    op = rt.pool.create(_StagedOp)  # first, so a refill counts its slot
    try:
        request = rt.arena_pool.request_arena(max(size, 1))
    except PoolExhausted:
        rt.pool.abandon(op)
        raise
    op.rt, op.opcode, op.payload, op.finish = rt, opcode, payload, finish
    op.args = SqeArgs(fd=fd, len=size, off=off)
    op.request, op.arena = request, None
    rt.pool._after(request, op)
    return op


def abandon(rt, p: Promise) -> None:
    """Give up on a pending call (timeout path): release its promise slot and
    retire its tag. A staged call's arena is freed at once if the call never
    reached the ring, else by its late completion (the host owns it)."""
    staged = isinstance(p, _StagedOp)
    parked = rt.handle.retire_tag(p, published=not staged)
    rt.pool.abandon(p)
    if staged and p.arena is None:
        rt.arena_pool.cancel_request(p.request)
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


def async_statx(rt, fd: int) -> Promise:
    """Promise of (size, block_size, pseudo_flag)."""
    return _staged_op(rt, ringmod.OP_STATX, ringmod.STATX_BYTES, fd=fd,
                      finish=lambda arena, _result: ringmod.STATX_FMT
                      .unpack(arena.read(0, ringmod.STATX_BYTES)))
