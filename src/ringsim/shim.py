"""Synchronous call layer and a buffered POSIX-flavored facade.

Task bodies are generators, so every blocking call here is also a generator
and is entered with `yield from`. A synchronous wait is charged a fixed
poll tick at a time, but resumes only when there can be news: while a pump
could not change anything, `EnclaveRuntime.poll_wait` hands the scheduler a
wait that burns ticks without resuming the body until the deadline or alarm
tick or the next deschedule, and it falls back to one busy-poll tick
otherwise. Results, timings and traces equal those of a loop that pumps
every tick. Every timeout, a `PosixShim` staging drain's included, counts
simulated time from the call's start, not the ticks the task burned, so a
call gives up within its timeout plus one period whatever its budget. The
layer converts the three ways a wait can end into errno conventions:
negative errno for host refusals, -ETIMEDOUT when the caller's deadline
passes, -EINTR when an alarm fires first, -EAGAIN for a zero-timeout
probe that would block. A call that gives up releases its promise at once
(promise.abandon): a direct submission's straggler (getpid) is dropped, and
a staged call's arena is freed, at once if the call never reached the ring,
else by its late completion; one that never comes holds a record, within
the correlation table's cap, and that arena.

The file facade stages writes privately and submits block-multiple chunks at
tracked offsets with one write in flight per file. That write is its staged
op, whose `landed` hook submits the next chunk as the op settles; write
errors surface on a later write/flush/close (deferred-error poisoning), which
is what buffered POSIX io does. Pseudo files (size reported as device
geometry at open) skip staging entirely.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ring as ringmod
from .config import EAGAIN, EBADF, EFAULT, EINTR, EIO, ENOMEM, ETIMEDOUT
from .enclave import SqeArgs
from .errors import PoolExhausted, RegistrationRejected, Untranslatable
from .promise import (FAILED, FULFILLED, PENDING, abandon, async_open,
                      async_path_op, async_read, async_statx, async_write)


def _errno_of(error) -> int | None:
    # host refusals arrive as errno ints; trusted-side refusals as typed
    # errors with a sensible errno image; None for anything else
    if isinstance(error, int):
        return error
    if isinstance(error, (PoolExhausted, RegistrationRejected)):
        return ENOMEM
    if isinstance(error, Untranslatable):
        return EFAULT
    return None


def _fail_value(error):
    errno = _errno_of(error)
    if errno is not None:
        return -errno
    # an unmapped failure is a caller bug
    if isinstance(error, Exception):
        raise error
    raise RuntimeError(f"promise failed: {error}")


def sync_call(rt, promise, timeout_ns: int | None = None,
              alarm_at: int | None = None):
    """Wait for a promise inside a task body: `r = yield from sync_call(...)`.

    Returns the fulfilled value, or a negative errno. timeout_ns=0 probes
    once and returns -EAGAIN when still pending, leaving the call running.
    """
    rt.pump()
    if timeout_ns == 0 and promise.state == PENDING:
        return -EAGAIN
    deadline = None if timeout_ns is None else rt.now() + timeout_ns
    until = deadline
    if alarm_at is not None and (until is None or alarm_at < until):
        until = alarm_at
    while promise.state == PENDING:
        yield from rt.poll_wait(until)
        rt.pump()
        now = rt.now()
        if promise.state != PENDING:
            break
        if alarm_at is not None and now >= alarm_at:
            abandon(rt, promise)
            return -EINTR
        if deadline is not None and now >= deadline:
            abandon(rt, promise)
            return -ETIMEDOUT
    if promise.state == FULFILLED:
        return promise.value
    return _fail_value(promise.error)


def getpid(rt, timeout_ns: int | None = None):
    """Host-claimed pid; advisory only, never an authority for decisions."""
    p = rt.submit_async(ringmod.OP_GETPID, SqeArgs(translate=False))
    return (yield from sync_call(rt, p, timeout_ns))


@dataclass
class _ShimFile:
    fd: int
    block_size: int
    pseudo: bool
    read_pos: int = 0
    file_off: int = 0            # offset of the next unsubmitted staged byte
    staged: bytearray = field(default_factory=bytearray)
    inflight: object = None      # at most one write op per file
    error: int = 0               # deferred errno; poisons later calls


class PosixShim:
    """open/read/write/flush/close over the async engine, for task bodies;
    an fd the shim does not hold gets -EBADF without touching the ring."""

    def __init__(self, rt, timeout_ns: int | None = None):
        self.rt = rt
        self.timeout_ns = timeout_ns
        self._files: dict[int, _ShimFile] = {}

    # --- opening / metadata ---

    def open(self, path: str, create: bool = False, trunc: bool = False):
        flags = (ringmod.OPENF_CREATE if create else 0) | \
                (ringmod.OPENF_TRUNC if trunc else 0)
        fd = yield from sync_call(self.rt, async_open(self.rt, path.encode(),
                                                      flags), self.timeout_ns)
        if fd < 0:
            return fd
        geo = yield from sync_call(self.rt, async_statx(self.rt, fd),
                                   self.timeout_ns)
        if isinstance(geo, int):
            return geo  # statx refused; surface its errno
        _size, block, pseudo = geo
        self._files[fd] = _ShimFile(fd, max(block, 1), bool(pseudo))
        return fd

    # --- reads (unbuffered) ---

    def read(self, fd: int, n: int, off: int | None = None):
        f = self._files.get(fd)
        if f is None:
            return -EBADF
        at = f.read_pos if off is None else off
        data = yield from sync_call(self.rt, async_read(self.rt, fd, n, at),
                                    self.timeout_ns)
        if isinstance(data, int):
            return data
        if off is None:
            f.read_pos = at + len(data)
        return data

    # --- buffered writes ---

    def write(self, fd: int, data: bytes):
        """Stage data; submit whole blocks as they fill. Returns len(data)
        right away unless the file is poisoned or staging hits its cap and
        the drain times out. Staging drains, its partial tail included,
        until data fits under the cap or nothing is staged, so one write
        larger than the cap is staged whole and may exceed it."""
        f = self._files.get(fd)
        if f is None:
            return -EBADF
        self.rt.pump()  # keeps the staged-chunk chain moving between waits
        if f.error:
            return -f.error
        if f.pseudo:
            r = yield from sync_call(
                self.rt, async_write(self.rt, fd, data, f.file_off),
                self.timeout_ns)
            if r < 0:
                f.error = -r
                return r
            f.file_off += r
            return r
        cap = self.rt.cfg.write_staging_cap
        deadline = self._deadline()
        while f.staged and len(f.staged) + len(data) > cap:
            self._maybe_submit(f, tail=len(f.staged) < f.block_size)
            yield from self.rt.poll_wait(deadline)
            self.rt.pump()
            if f.error:
                return -f.error
            if deadline is not None and self.rt.now() >= deadline:
                return -ETIMEDOUT
        f.staged += data
        self._maybe_submit(f)
        return len(data)

    def _maybe_submit(self, f: _ShimFile, tail: bool = False) -> None:
        if f.inflight is not None or f.error or not f.staged:
            return
        block = f.block_size
        n = (len(f.staged) // block) * block
        if n == 0:
            if not tail:
                return
            n = len(f.staged)
        chunk = bytes(f.staged[:n])
        del f.staged[:n]
        at = f.file_off
        f.file_off += n
        f.inflight = async_write(self.rt, f.fd, chunk, at)
        f.inflight.landed = lambda op: self._landed(f, op, tail)

    def _landed(self, f: _ShimFile, op, tail: bool) -> None:
        # the in-flight write settled: a failure or a short write poisons
        # the file, else the next chunk goes out
        f.inflight = None
        if op.state == FAILED:
            errno = _errno_of(op.error)
            f.error = EIO if errno is None else errno
        elif op.value < op.args.len:
            f.error = EIO
        else:
            self._maybe_submit(f, tail)

    def _deadline(self) -> int | None:
        # a drain times out in simulated time, as sync_call does
        t = self.timeout_ns
        return None if t is None else self.rt.now() + t

    def flush(self, fd: int):
        """Drain staging (tail included) and the in-flight write."""
        f = self._files.get(fd)
        if f is None:
            return -EBADF
        deadline = self._deadline()
        while (f.staged or f.inflight is not None) and not f.error:
            self._maybe_submit(f, tail=True)
            yield from self.rt.poll_wait(deadline)
            self.rt.pump()
            if deadline is not None and self.rt.now() >= deadline:
                return -ETIMEDOUT
        return -f.error if f.error else 0

    def close(self, fd: int):
        if fd not in self._files:
            return -EBADF
        r = yield from self.flush(fd)
        p = self.rt.submit_async(ringmod.OP_CLOSE,
                                 SqeArgs(fd=fd, translate=False))
        rc = yield from sync_call(self.rt, p, self.timeout_ns)
        self._files.pop(fd, None)
        return r if r < 0 else rc

    # --- path ops ---

    def unlink(self, path: str):
        return (yield from sync_call(
            self.rt, async_path_op(self.rt, ringmod.OP_UNLINK, path.encode()),
            self.timeout_ns))

    def mkdir(self, path: str):
        return (yield from sync_call(
            self.rt, async_path_op(self.rt, ringmod.OP_MKDIR, path.encode()),
            self.timeout_ns))
