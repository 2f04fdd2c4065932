"""Untrusted host model: SQ poller, worker pool, virtual fs, adversary hooks.

The host consumes submission entries, services them against an in-memory
filesystem with seeded deterministic latency, and produces completions. Every
behavior the availability/integrity games need from a hostile kernel is a
policy transform applied between consuming a submission and delivering its
completion: deny, delay, corrupt, duplicate, flood, plus the global
kill_proxy / ring scribbling / refuse-to-wake actions.

`HostOs.events` records what the host did, as packed records of ten kinds
(the field layouts live in `records.py`); each reads back as a tuple that
starts with its kind:

    ("poller_wake", now)             poller woken by a doorbell
    ("poller_sleep", now)            poller idle past its timeout
    ("kill_proxy", now)              proxy killed, descriptors torn down
    ("cqe", eid, user_data, result)  completion produced
    ("cqe_dropped", eid, user_data)  completion lost to a full CQ
    ("sqe", now, eid, op, user_data) submission consumed
    ("deny", now, op, user_data)     submission denied, never completed
    ("read_payload", now, eid, user_data, path, clean, off, n, result)
                                     read completion produced; clean is
                                     False when the corrupt transform
                                     touched the payload
    ("reg_atomic", region_id, atomic)
                                     hostile registration refused, authority
                                     state unchanged iff atomic
    ("registration_rejected", region_id, error)
                                     grant registration refused (exception
                                     name)

An SQE flagged SQE_DRAIN is due its latency after the last pending worker
of its ring (a denied SQE has none). A statx whose fd is AT_FDCWD reads its
path from its buffer, as statx(2) does, and writes the record over it. Only
the payload of a read or write pays the per-byte service cost.

A CQ batch that leaves a full pump (min(max_events, cq_entries) entries) on
its CQ raises completion_irq naming its enclave, for the kernel to wake it;
an enclave with a shallower CQ reaps at its deadline or at the next release
of any task on the platform (the host's own, at the latest).

Nothing here is trusted: the enclave-side modules never read host state
except through the shared rings and granted windows.
"""
from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field

from . import ring as ringmod
from .config import (EBADF, EEXIST, EFAULT, EFBIG, EINVAL, EIO, ENOENT,
                     ENOMEM, MAX_FILE_BYTES, PAGE_SIZE, SimConfig)
from .errors import BusFault, OutOfMemory, QuotaExceeded, RegistrationError
from .records import HostEvents
from .ring import WAKE_FMT, Cqe, Sqe
from .shm import NORMAL, AddressSpace, MemoryAuthority


# --- virtual filesystem ---

@dataclass
class VFile:
    data: bytearray
    block_size: int = 4096
    pseudo: bool = False


def _fill_bytes(path: str, size: int) -> bytearray:
    """Deterministic content for manifest-seeded files."""
    if size == 0:
        return bytearray()
    block = hashlib.sha256(path.encode()).digest()
    reps = (size + len(block) - 1) // len(block)
    return bytearray((block * reps)[:size])


class VirtualFs:
    """Path-keyed in-memory tree with per-file block size and pseudo flag."""

    def __init__(self) -> None:
        self.files: dict[str, VFile] = {}
        self.dirs: set[str] = {"/"}

    @classmethod
    def from_manifest(cls, text: str) -> "VirtualFs":
        """Build from a directory-manifest: one entry per line,
        `path size block_size pseudo`; a trailing slash declares a directory.
        Blank lines and #-comments are skipped."""
        fs = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            path = parts[0]
            if path.endswith("/"):
                fs.mkdir(path.rstrip("/") or "/")
                continue
            if len(parts) != 4:
                raise ValueError(f"manifest line {lineno}: want `path size block pseudo`")
            try:
                size, block, pseudo = (int(p) for p in parts[1:])
            except ValueError:
                raise ValueError(f"manifest line {lineno}: size, block and "
                                 "pseudo must be integers") from None
            if size < 0 or not 0 < block < 1 << 32 or pseudo not in (0, 1):
                raise ValueError(f"manifest line {lineno}: want size >= 0, "
                                 "block in 1..2**32-1 and pseudo 0 or 1")
            fs._ensure_parents(path)
            fs.files[path] = VFile(_fill_bytes(path, size), block, bool(pseudo))
        return fs

    def _ensure_parents(self, path: str) -> None:
        parts = path.split("/")[1:-1]
        cur = ""
        for p in parts:
            cur += "/" + p
            self.dirs.add(cur)

    def mkdir(self, path: str) -> int:
        if path in self.dirs:
            return -EEXIST
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in self.dirs:
            return -ENOENT
        self.dirs.add(path)
        return 0

    def open(self, path: str, create: bool, trunc: bool) -> int:
        f = self.files.get(path)
        if f is None:
            if not create:
                return -ENOENT
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in self.dirs:
                return -ENOENT
            pseudo = path.startswith("/dev/") or path.startswith("/proc/")
            self.files[path] = VFile(bytearray(), 4096, pseudo)
        elif trunc and not f.pseudo:
            f.data = bytearray()
        return 0

    def read(self, path: str, off: int, n: int) -> bytes | memoryview:
        """Up to n bytes from off; a regular file gives a read-only view of
        its bytes, to be released before the file is next written."""
        f = self.files[path]
        if f.pseudo:
            # pseudo devices hand back a rolling deterministic pattern
            block = hashlib.sha256(f"{path}:{off}".encode()).digest()
            reps = (n + len(block) - 1) // len(block)
            return (block * reps)[:n]
        return memoryview(f.data)[off:off + n].toreadonly()

    def write(self, path: str, off: int, data: bytes) -> int:
        f = self.files[path]
        if f.pseudo:
            return len(data)  # swallowed, like a bit bucket
        if off + len(data) > MAX_FILE_BYTES:
            return -EFBIG
        if off > len(f.data):
            f.data.extend(b"\x00" * (off - len(f.data)))
        f.data[off:off + len(data)] = data
        return len(data)

    def unlink(self, path: str) -> int:
        if path not in self.files:
            return -ENOENT
        del self.files[path]
        return 0

    def stat(self, path: str) -> tuple[int, int, int]:
        f = self.files[path]
        return (len(f.data), f.block_size, 1 if f.pseudo else 0)


# --- adversary policy ---

HONEST = ("honest",)
# the corrupt transform's byte map: every payload byte XOR 0xA5
_XOR_A5 = bytes(b ^ 0xA5 for b in range(256))


@dataclass
class AdversaryPolicy:
    """Per-op completion transforms plus global hostile actions.

    The transform chosen for an operation is a pure function of the op name,
    so identical scenarios replay identically.
    """

    per_op: dict[str, tuple] = field(default_factory=dict)
    default: tuple = HONEST
    never_wake: bool = False
    kill_proxy_at: int = -1
    scribble_rate: float = 0.0
    bad_register: str = ""  # "", "dup", "overlap", "size"

    def transform_for(self, op_name: str) -> tuple:
        return self.per_op.get(op_name, self.default)

    @staticmethod
    def parse_transform(text: str) -> tuple:
        """`honest|deny|corrupt|duplicate|delay:NS|flood:N`, NS and N >= 0"""
        if ":" in text:
            kind, arg = text.split(":", 1)
            if kind in ("delay", "flood"):
                if (n := int(arg)) < 0:
                    raise ValueError(f"transform {text}: {kind} wants >= 0")
                return (kind, n)
            raise ValueError(f"unknown transform {text}")
        if text not in ("honest", "deny", "corrupt", "duplicate"):
            raise ValueError(f"unknown transform {text}")
        return (text,)


# --- the host itself ---

class HostOs:
    def __init__(self, authority: MemoryAuthority, proxy_space: AddressSpace,
                 vfs: VirtualFs, policy: AdversaryPolicy, cfg: SimConfig,
                 seed: int, name: str = "host0", keep_records: bool = True):
        self.authority = authority
        self.proxy_space = proxy_space
        self.vfs = vfs
        self.policy = policy
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.name = name
        self.pid = 1000
        self.rings: dict[str, tuple] = {}  # enclave -> (sq consumer, cq producer)
        self.fds: dict[int, str] = {}      # fd -> path
        # heap of (ready, seq, eid, consumed Sqe or flood's junk Cqe, corrupt)
        self.workers: list = []
        self._wseq = 0
        self._last_ready: dict[str, int] = {}  # enclave -> its latest ready
        # a host that never forwards wakes leaves its poller parked from boot
        self.poller_awake = not policy.never_wake
        self.idle_deadline = cfg.poller_idle_timeout
        self.pending_wake = False
        self.proxy_alive = True
        self.serviced = 0
        self.events = HostEvents(keep_records)
        self.wake_window = None            # reader view of the wake region
        self._wake_seen = 0
        self.scribble_targets: list = []   # proxy-side windows of shared regions
        self._open_cqs: dict = {}          # enclave -> CQ with a batch open

    # --- wiring ---

    def attach_enclave(self, enclave_id: str, sq_consumer, cq_producer) -> None:
        self.rings[enclave_id] = (sq_consumer, cq_producer)

    def notify_enter(self) -> None:
        """Wake interrupt from the trusted side; stays masked until the host
        is next scheduled (handled at the top of its slice)."""
        self.pending_wake = True

    def completion_irq(self, eid: str) -> None:
        """Interrupt: eid's CQ holds a full pump. TrustedKernel wires it."""

    # --- descriptor table ---

    def _alloc_fd(self, path: str) -> int:
        fd = 3
        while fd in self.fds:
            fd += 1
        self.fds[fd] = path
        return fd

    # --- slice body ---

    def on_slice(self, now: int) -> int:
        """One host scheduling step: interrupts, due completions (one look at
        the worker heap's top when none is due), SQ poll (one tail load per
        empty SQ)."""
        if self.policy.kill_proxy_at >= 0 and now >= self.policy.kill_proxy_at \
                and self.proxy_alive:
            self._kill_proxy(now)
        if self.pending_wake:
            self.pending_wake = False
            if not self.policy.never_wake and self.proxy_alive:
                self._drain_wake_region()
                if not self.poller_awake:
                    self.events.poller_wake(now)
                self.poller_awake = True
                self.idle_deadline = now + self.cfg.poller_idle_timeout
        served = self._deliver_due(now)
        if self.poller_awake and self.proxy_alive:
            served += self._poll_rings(now)
        if self.policy.scribble_rate > 0:
            self._scribble(now)
        return served

    def quiet_until(self) -> int | None:
        """After a slice that left workers pending: the first instant at
        which another slice could act (a worker due, the poller's idle
        deadline, the proxy kill), or None when any slice may act (each
        scribbling slice draws from the rng). A doorbell that comes first
        wakes the host task itself (TrustedKernel.ring_enter)."""
        if self.policy.scribble_rate > 0:
            return None
        until = self.workers[0][0]
        if self.poller_awake:
            until = min(until, self.idle_deadline)
        if self.policy.kill_proxy_at >= 0 and self.proxy_alive:
            until = min(until, self.policy.kill_proxy_at)
        return until

    def _drain_wake_region(self) -> None:
        if self.wake_window is not None:
            self._wake_seen = self.wake_window.unpack(WAKE_FMT, 0)[0]

    def _deliver_due(self, now: int) -> int:
        """Run the workers due by now; their CQEs go out in one batch per CQ."""
        n = 0
        try:
            while self.workers and self.workers[0][0] <= now:
                _, _, eid, item, corrupt = heapq.heappop(self.workers)
                if self.proxy_alive:
                    self._complete(now, eid, item, corrupt)
                    n += 1
        finally:
            if self._open_cqs:
                self._end_cq_batches()
        return n

    def _end_cq_batches(self) -> None:
        for eid, cq in self._open_cqs.items():
            occupancy = cq.producer_occupancy()
            cq.end_produce()
            if occupancy >= min(self.cfg.max_events, cq.entries):
                self.completion_irq(eid)
        self._open_cqs.clear()

    def _poll_rings(self, now: int) -> int:
        total = 0
        for eid, (sq, _cq) in self.rings.items():
            batch = sq.consume_batch(self.cfg.host_batch)
            for sqe in batch:
                self._service(eid, sqe, now)
            total += len(batch)
        if total:
            self.idle_deadline = now + self.cfg.poller_idle_timeout
        elif now >= self.idle_deadline and self.poller_awake:
            self.poller_awake = False
            self.events.poller_sleep(now)
        return total

    def _scribble(self, now: int) -> None:
        rate = self.policy.scribble_rate
        for win in self.scribble_targets:
            if self.rng.random() < rate:
                off = self.rng.randrange(win.length)
                n = min(self.rng.randrange(1, 9), win.length - off)
                win.write(off, bytes(self.rng.getrandbits(8) for _ in range(n)))

    def _kill_proxy(self, now: int) -> None:
        # descriptor table torn down; granted pages stay mapped
        self.proxy_alive = self.poller_awake = False
        self.fds.clear()
        self.workers.clear()
        self.events.kill_proxy(now)

    # --- servicing ---

    def _latency(self, sqe: Sqe) -> int:
        jitter = self.rng.randrange(self.cfg.service_jitter) \
            if self.cfg.service_jitter else 0
        payload = sqe.opcode in (ringmod.OP_READ, ringmod.OP_WRITE)
        return self.cfg.service_base + jitter + \
            self.cfg.service_per_byte * (sqe.len if payload else 0)

    def _schedule(self, ready: int, eid: str, item, corrupt: bool) -> None:
        heapq.heappush(self.workers, (ready, self._wseq, eid, item, corrupt))
        self._wseq += 1
        self._last_ready[eid] = max(ready, self._last_ready.get(eid, ready))

    def _produce_cqe(self, eid: str, cqe: Cqe) -> bool:
        """Put cqe on eid's CQ, in its batch; a full CQ drops it, recorded as
        cqe_dropped. The caller records a produced completion."""
        cq = self._open_cqs.get(eid)
        if cq is None:
            cq = self._open_cqs[eid] = self.rings[eid][1]
            cq.begin_produce()
        if cq.produce(cqe):
            return True
        self.events.cqe_dropped(eid, cqe.user_data)
        return False

    def _read_proxy(self, addr: int, n: int) -> bytes | None:
        try:
            return self.proxy_space.access(addr, n, "r").read(0, n)
        except BusFault:
            return None

    def _write_proxy(self, addr: int, data: bytes) -> bool:
        # a payload may land on a ring header: publish, and reload after
        self._end_cq_batches()
        try:
            self.proxy_space.access(addr, len(data), "w").write(0, data)
            return True
        except BusFault:
            return False

    def _service(self, eid: str, sqe: Sqe, now: int) -> None:
        """Consume one SQE: apply its transform and queue its worker(s)."""
        self.serviced += 1
        name = ringmod.OP_NAMES.get(sqe.opcode, "invalid")
        tf = self.policy.transform_for(name)
        kind, arg = tf[0], tf[-1]  # arg: a delay or flood's number
        self.events.sqe(now, eid, name, sqe.user_data)
        if kind == "deny":
            self.events.deny(now, name, sqe.user_data)
            return
        start = max(now, self._last_ready.get(eid, now)) \
            if sqe.flags & ringmod.SQE_DRAIN else now
        ready = start + self._latency(sqe) + (arg if kind == "delay" else 0)
        corrupt = kind == "corrupt"
        self._schedule(ready, eid, sqe, corrupt)
        if kind == "duplicate":
            self._schedule(ready + 1, eid, sqe, corrupt)
        for i in range(arg if kind == "flood" else 0):
            junk = Cqe((1 << 63) | self.rng.getrandbits(62),
                       self.rng.randrange(-100, 100), 0)
            self._schedule(ready + i, eid, junk, False)

    def _complete(self, now: int, eid: str, sqe, corrupt: bool) -> None:
        """One due worker: a flood's junk Cqe goes out as it is; an Sqe's
        operation runs now, and its payload (XORed when corrupt, which
        fails a payloadless result instead) lands in the proxy buffer
        before its CQE goes out."""
        if type(sqe) is Cqe:
            if self._produce_cqe(eid, sqe):
                self.events.cqe(eid, sqe.user_data, sqe.result)
            return
        result, payload = self._execute(sqe)
        data = payload
        try:
            if corrupt and data is not None:
                data = bytes(data).translate(_XOR_A5)
            elif corrupt and result >= 0:
                result = -EIO
            if data is not None and not self._write_proxy(sqe.addr, data):
                result, data = -EFAULT, None
            if not self._produce_cqe(eid, Cqe(sqe.user_data, result, 0)):
                return
            if sqe.opcode == ringmod.OP_READ and data is not None:
                self.events.read_payload(now, eid, sqe.user_data,
                                         self.fds.get(sqe.fd), not corrupt,
                                         sqe.off, len(data), result)
            else:
                self.events.cqe(eid, sqe.user_data, result)
        finally:
            if isinstance(payload, memoryview):
                payload.release()  # a file with a view exported cannot grow

    def _execute(self, sqe: Sqe):
        """-> (result, payload for the buffer at sqe.addr | None)"""
        op = sqe.opcode
        if op in (ringmod.OP_OPEN, ringmod.OP_UNLINK, ringmod.OP_MKDIR):
            text = self._path_arg(sqe)
            if isinstance(text, int):
                return (text, None)
            if op == ringmod.OP_UNLINK:
                return (self.vfs.unlink(text), None)
            if op == ringmod.OP_MKDIR:
                return (self.vfs.mkdir(text), None)
            r = self.vfs.open(text, bool(sqe.off & ringmod.OPENF_CREATE),
                              bool(sqe.off & ringmod.OPENF_TRUNC))
            return (r if r < 0 else self._alloc_fd(text), None)
        if op in (ringmod.OP_READ, ringmod.OP_WRITE, ringmod.OP_STATX):
            by_path = op == ringmod.OP_STATX and sqe.fd == ringmod.AT_FDCWD
            path = self._path_arg(sqe) if by_path else self.fds.get(sqe.fd)
            if isinstance(path, int):
                return (path, None)
            if path not in self.vfs.files:  # not open, or since unlinked
                return (-ENOENT if by_path else -EBADF, None)
            if op == ringmod.OP_READ:
                data = self.vfs.read(path, sqe.off, sqe.len)
                return (len(data), data)
            if op == ringmod.OP_STATX:
                return (0, ringmod.STATX_FMT.pack(*self.vfs.stat(path)))
            data = self._read_proxy(sqe.addr, sqe.len)
            if data is None:
                return (-EFAULT, None)
            return (self.vfs.write(path, sqe.off, data), None)
        if op == ringmod.OP_CLOSE:
            if sqe.fd not in self.fds:
                return (-EBADF, None)
            del self.fds[sqe.fd]
            return (0, None)
        if op == ringmod.OP_GETPID:
            # routed to the host on purpose; the value is untrusted data
            return (self.pid, None)
        if op == ringmod.OP_ENCLAVE_MMAP:
            return (self._service_mmap(sqe), None)
        return (-EINVAL, None)

    def _path_arg(self, sqe: Sqe) -> str | int:
        """The path an SQE names, up to its first NUL, or -EFAULT
        (unreadable) / -EINVAL (not UTF-8)."""
        path = self._read_proxy(sqe.addr, sqe.len)
        if path is None:
            return -EFAULT
        try:
            return path.partition(b"\0")[0].decode()
        except UnicodeDecodeError:
            return -EINVAL

    def _service_mmap(self, sqe: Sqe) -> int:
        """-> the proxy base of the registered grant, or -errno."""
        size, region_id = sqe.len, sqe.off
        npages = max(1, (size + PAGE_SIZE - 1) // PAGE_SIZE)
        try:
            pages = self.authority.alloc_pages(npages, "proxy", NORMAL, "shm")
        except (QuotaExceeded, OutOfMemory):
            return -ENOMEM
        reg_pages, reg_size = list(pages), size
        attack = self.policy.bad_register
        if attack == "dup" and len(reg_pages) >= 1:
            reg_pages = [reg_pages[0]] + reg_pages[:-1]
        elif attack == "overlap":
            trusted = [pid for pid, info in self.authority.table.entries.items()
                       if info.world != NORMAL]
            if trusted:
                reg_pages[0] = trusted[0]
        elif attack == "size":
            reg_size = size + PAGE_SIZE
        before = self.authority.state_digest() if attack else None
        try:
            self.authority.register_shared(reg_pages, region_id, reg_size)
        except RegistrationError as exc:
            if attack:
                self.events.reg_atomic(
                    region_id, self.authority.state_digest() == before)
            self.events.registration_rejected(region_id, type(exc).__name__)
            if not attack:
                self.authority.free_pages(pages, "proxy")
                return -EINVAL
            # hostile host lies about success; trusted attach will refuse
            return self.proxy_space.fresh_base(size)
        mapping = self.authority.map_region(self.proxy_space, region_id)
        win = self.proxy_space.access(mapping.base, mapping.size, "w")
        self.scribble_targets.append(win)
        if mapping.base > 0x7FFFFFFF:
            raise AssertionError("proxy bases must fit the result field")
        return mapping.base
