"""Bounded promise pool and the async IO composition helpers.

Promises here are deliberately austere: a one-argument callback, successor
links, and a state that moves from pending to exactly one of
fulfilled/failed. The pool caps outstanding promises and bounds continuation
work per settle call; anything past the budget waits for the next event-loop
pump. Host silence never fails a promise; it just stays pending while the
event loop keeps meeting its period.
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
    __slots__ = ("tag", "state", "value", "error", "callback", "_succ",
                 "_adopters", "_parent", "_on_fail")

    def __init__(self, tag: int):
        self.tag = tag
        self.state = PENDING
        self.value = None
        self.error = None
        self.callback: Callable | None = None
        self._succ: list["Promise"] = []
        self._adopters: list["Promise"] = []
        self._parent: "Promise | None" = None
        self._on_fail: Callable | None = None


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
        self._next_tag = 1
        self._by_tag: dict[int, Promise] = {}
        self._ready: deque = deque()

    # --- allocation ---

    def create(self) -> Promise:
        if self.outstanding >= self.max_outstanding:
            raise PoolExhausted(f"{self.outstanding} promises outstanding")
        p = Promise(self._next_tag)
        self._next_tag += 1
        self.outstanding += 1
        self._by_tag[p.tag] = p
        return p

    def fulfilled(self, value) -> Promise:
        p = self.create()
        self.fulfill(p, value)
        return p

    def then(self, parent: Promise, callback: Callable,
             on_fail: Callable | None = None) -> Promise:
        """Chain a continuation after parent; returns the successor promise.

        On parent fulfillment: callback(parent.value); a returned promise is
        adopted (the successor settles when it does). On parent failure the
        failure propagates without running callback (on_fail(error), if
        given, observes the error first, for cleanup).
        """
        child = self.create()
        child.callback = callback
        child._parent = parent
        if on_fail is not None:
            child._on_fail = on_fail
        if parent.state == PENDING:
            parent._succ.append(child)
        else:
            self._ready.append(child)
        return child

    # --- settling ---

    def _settle(self, p: Promise, state: str, value, error) -> None:
        if p.state != PENDING:
            raise AssertionError(f"promise {p.tag} settled twice")
        p.state = state
        p.value = value
        p.error = error
        self.outstanding -= 1
        self._by_tag.pop(p.tag, None)
        for child in p._succ:
            self._ready.append(child)
        for adopter in p._adopters:
            self._ready.append(("adopt", adopter, p))
        p._succ = []
        p._adopters = []

    def fulfill(self, p: Promise, value) -> None:
        self._settle(p, FULFILLED, value, None)
        self._drain(self.continuation_budget)

    def fail(self, p: Promise, error) -> None:
        self._settle(p, FAILED, None, error)
        self._drain(self.continuation_budget)

    def abandon(self, p: Promise) -> None:
        """Forget a pending promise (timeout path). The slot is released and
        any late completion for its tag is dropped as stray."""
        if p.state == PENDING and p.tag in self._by_tag:
            del self._by_tag[p.tag]
            self.outstanding -= 1
            p.state = FAILED
            p.error = "abandoned"

    def settle_from_cqe(self, completion) -> bool:
        """Route a delivered completion to its promise by caller tag.

        Negative results settle the promise as failed with the errno value.
        """
        p = self._by_tag.get(completion.tag)
        if p is None or p.state != PENDING:
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
        while self._ready and ran < budget:
            item = self._ready.popleft()
            if isinstance(item, tuple):
                _, adopter, inner = item
                self._settle_like(adopter, inner)
                continue  # adoption is bookkeeping, not a continuation
            ran += 1
            self._run_child(item)
        return ran

    @property
    def deferred_count(self) -> int:
        return len(self._ready)

    def _settle_like(self, target: Promise, source: Promise) -> None:
        if target.state != PENDING:
            return
        if source.state == FULFILLED:
            self._settle(target, FULFILLED, source.value, None)
        else:
            self._settle(target, FAILED, None, source.error)

    def _run_child(self, child: Promise) -> None:
        parent = child._parent
        child._parent = None
        if child.state != PENDING:
            return
        if parent.state == FAILED:
            if child._on_fail is not None:
                child._on_fail(parent.error)
            self._settle(child, FAILED, None, parent.error)
            return
        try:
            result = child.callback(parent.value)
        except Exception as exc:  # callback faults become failures
            self._settle(child, FAILED, None, exc)
            return
        if isinstance(result, Promise):
            if result.state == PENDING:
                result._adopters.append(child)
            else:
                self._settle_like(child, result)
        else:
            self._settle(child, FULFILLED, result, None)


# --- async IO composition over a runtime (handle + pools) ---

def _staged_op(rt, opcode: int, size: int, fd: int = 0, off: int = 0,
               payload: bytes | None = None, finish: Callable | None = None
               ) -> Promise:
    """Shared staging arena -> submission -> completion result.

    The arena holds `size` bytes at offset 0, the submitted address;
    `payload`, when given, is copied in before submitting. On completion
    finish(arena, result) gives the promise value (default: the result), and
    the arena is freed when the completion (or failure) lands.
    """
    pool = rt.pool

    def _stage(arena):
        if payload is not None:
            arena.write(0, payload)
        p_res = rt.submit_async(opcode, SqeArgs(
            fd=fd, addr=arena.addr_of(0), len=size, off=off))

        def _done(result):
            value = result if finish is None else finish(arena, result)
            rt.arena_pool.free_arena(arena)
            return value

        return pool.then(p_res, _done,
                         on_fail=lambda _e: rt.arena_pool.free_arena(arena))

    return pool.then(rt.arena_pool.request_arena(max(size, 1)), _stage)


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
