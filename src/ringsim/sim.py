"""Whole-platform assembly: trusted kernel glue, enclave runtimes, scheduler.

A Simulation owns one memory authority, one untrusted host task, one trusted
serial device, and any number of enclave tasks. Spawning an enclave walks the
full launch flow: private image pages, ring-region grant validation, ring
construction on both sides, pool prefill from the launch environment, and
scheduler admission.
"""
from __future__ import annotations

from typing import Callable

from .arena import ArenaPool
from .config import PAGE_SIZE, SimConfig
from .device import SecureSerialDevice
from .enclave import RingHandle
from .errors import RegistrationRejected
from .host import AdversaryPolicy, HostOs, VirtualFs
from .promise import PromisePool
from .ring import WAKE_FMT, Cqe, Ring, Sqe, ring_region_bytes
from .sched import ENCLAVE, FP, HOST, BudgetScheduler
from .shm import MemoryAuthority, NORMAL, TRUSTED

# page quota of each enclave: its image, private pages and shared grants
ENCLAVE_QUOTA_PAGES = 512


class TrustedKernel:
    """Trusted-world mediator between enclaves, the authority, and the host.

    It validates every grant an enclave wants to attach, maps ring regions,
    forwards enter notifications to the host (a masked wake interrupt, a
    wake queue record and a wake of the host task) and turns the host's
    completion interrupt into a wake of the enclave it names.
    """

    def __init__(self, authority: MemoryAuthority, sched: BudgetScheduler):
        self.authority = authority
        self._sched = sched
        self.host: HostOs | None = None
        self.max_regions_per_owner = 128
        self._regions_by_owner: dict[str, int] = {}
        self._wake_window = None
        self._wake_count = 0
        self._caller_ordinals: dict[str, int] = {}

    def wire_host(self, host: HostOs) -> None:
        self.host = host
        pages = self.authority.alloc_pages(1, "kernel", NORMAL, "wakequeue")
        kspace = self.authority.create_space("kernel", TRUSTED, base_hint=0x8000)
        m = self.authority.map_private(kspace, pages)
        self._wake_window = kspace.access(m.base, PAGE_SIZE, "w")
        hm = self.authority.map_private(host.proxy_space, pages, perms="r")
        host.wake_window = host.proxy_space.access(hm.base, PAGE_SIZE, "r")
        host.completion_irq = self.completion_irq

    def ring_enter(self, caller: str) -> None:
        """Trusted syscall surface for "work is queued", rung by
        RingHandle.prep_and_submit and pump_parked after they publish: append
        to the wake queue, raise the (masked) host interrupt and end the
        host task's block (the doorbell)."""
        ordinal = self._caller_ordinals.setdefault(caller,
                                                   len(self._caller_ordinals))
        self._wake_count = (self._wake_count + 1) & 0xFFFFFFFF
        self._wake_window.pack(WAKE_FMT, 0, self._wake_count, ordinal)
        self.host.notify_enter()
        self._sched.wake(self.host.name)

    def completion_irq(self, eid: str) -> None:
        """The host's hint that eid's CQ holds a full pump: wake eid if this
        kernel attached its rings (an enclave's), else nothing."""
        if eid in self._regions_by_owner:
            self._sched.wake(eid)

    def attach_shared(self, space, region_id: int, rsize: int) -> int:
        """Map a host-registered grant into an enclave space.

        The registration must exist, be in a mappable state, and match the
        size the enclave asked for; otherwise the attach is refused and
        nothing changes. The proxy base the host claims for the grant plays
        no part here: a host lying about its own mapping only corrupts its
        own view.
        """
        reg = self.authority.registrations.get(region_id)
        if reg is None:
            raise RegistrationRejected(f"region {region_id} was never validated")
        if reg.expected_size != rsize:
            raise RegistrationRejected(
                f"region {region_id} is {reg.expected_size} bytes, wanted {rsize}")
        owner = space.owner
        if self._regions_by_owner.get(owner, 0) >= self.max_regions_per_owner:
            raise RegistrationRejected(f"{owner} at region cap")
        mapping = self.authority.map_region(space, region_id)
        self._regions_by_owner[owner] = self._regions_by_owner.get(owner, 0) + 1
        return mapping.base


class EnclaveRuntime:
    """Event-loop facade handed to enclave task bodies.

    Owns the hardened ring handle (and so its promise pool) and the arena
    pool of one enclave. pump() is the only place completions are drained,
    so a task controls exactly when untrusted data enters.
    """

    def __init__(self, name: str, handle: RingHandle, sched: BudgetScheduler,
                 cfg: SimConfig, device: SecureSerialDevice):
        self.name = name
        self.handle = handle
        self.pool = handle.pool
        self.arena_pool = ArenaPool(handle)
        self.cfg = cfg
        self.device = device
        self._sched = sched
        self.detections = 0  # app-level integrity check failures
        self._pumped_in = -1  # scheduler resume in which the last reap ran

    def now(self) -> int:
        return self._sched.now

    def submit_async(self, opcode: int, args, op=None):
        """Queue one submission; promise of its result (a staged call's op)."""
        p = self.pool.create() if op is None else op
        self.handle.prep_and_submit(opcode, args, p)
        return p

    def pump(self, max_events: int | None = None) -> int:
        """Drain up to max_events events (RingHandle.reap), run deferred work.
        An idle pump (nothing parked or deferred, no held front, CQ tail equal
        to the private head) returns after its one tail load. A pump that
        pushes and delivers nothing leaves the handle `stuck`."""
        h = self.handle
        pushed = h.pump_parked()
        budget = self.cfg.max_events if max_events is None else max_events
        n = h.reap(budget, self.pool.settle_from_cqe)
        h.stuck = not (pushed or n)
        self._pumped_in = self._sched.resumes
        self.pool.run_deferred()
        return n

    def poll_wait(self, until: int | None):
        """Wait until there may be news: `yield from` it.

        While another pump() could change something (a deferred
        continuation, a parked entry that could go out, a completion
        backlog), this is one busy-poll tick. Otherwise the task blocks,
        spending no budget, until `until`, its next release or a wake, while
        lower-priority tasks (the host) run. The backlog, and whether parked
        entries are stuck, are what a pump in this same resume of the body
        left: with no yield since, the host has not run, so only a retire
        can make room.
        """
        h = self.handle
        fresh = self._pumped_in == self._sched.resumes
        if self.pool.deferred_count or \
                (h.parked_count and not (fresh and h.stuck)) or \
                (h.backlog if fresh else h.cq_backlog()):
            yield ("compute", self.cfg.poll_tick)
        else:
            yield ("block", until)

    def device_tx(self, payload: bytes) -> None:
        self.device.tx(self._sched.now, self.name, payload)


class Simulation:
    """One platform: authority + kernel + host + device + scheduler. Its
    record logs are bounded (see `records.py`) unless `keep_records`.
    `close()` frees its pages once the run is over; its records stay."""

    def __init__(self, cfg: SimConfig | None = None, seed: int = 0,
                 manifest: str = "", policy: AdversaryPolicy | None = None,
                 sched_policy: str = FP, keep_records: bool = False):
        self.cfg = cfg or SimConfig()
        self.seed = seed
        self.authority = MemoryAuthority()
        self.authority.table.set_quota("proxy", 8192)
        self.authority.table.set_quota("kernel", 16)
        self.sched = BudgetScheduler(sched_policy, keep_records)
        self.kernel = TrustedKernel(self.authority, self.sched)
        self.device = SecureSerialDevice(tx_capacity=1 << 20)
        self.keep_records = keep_records
        self.vfs = VirtualFs.from_manifest(manifest) if manifest else VirtualFs()
        self.policy = policy or AdversaryPolicy()
        proxy_space = self.authority.create_space("proxy", NORMAL,
                                                  base_hint=0x10000)
        self.host = HostOs(self.authority, proxy_space, self.vfs, self.policy,
                           self.cfg, seed, keep_records=keep_records)
        self.kernel.wire_host(self.host)
        self.runtimes: dict[str, EnclaveRuntime] = {}
        self._next_rid = 1

    # --- host task ---

    def add_host_task(self, period: int = 100_000, budget: int = 50_000,
                      priority: int = 0) -> None:
        self.sched.admit(self.host.name, HOST, period, budget,
                         self._host_body(), priority)

    def _host_body(self):
        """One slice per step. After a slice that served a whole batch (an
        SQ may hold more) the next step follows; otherwise the host blocks
        until its next release or, with workers pending, until the next
        slice could act (not while any slice may). A doorbell ends it, and
        a completion interrupt lets an outranking enclave preempt it."""
        host, cfg = self.host, self.cfg
        while True:
            yield ("compute", cfg.host_step_cost)
            if host.on_slice(self.sched.now) >= cfg.host_batch:
                continue
            if not host.workers:
                yield ("block", None)
            elif (until := host.quiet_until()) is not None:
                yield ("block", until)

    # --- enclave launch flow ---

    def _ring(self, space, entries: int, codec) -> tuple:
        """One ring region: proxy-owned normal pages, validated before any
        map. The trusted side attaches it and zeroes the header, so a
        pre-scribbled header can never poison the initial index snapshots
        on either side; then the host maps it and attaches. -> (enclave
        ring, host ring, host window)"""
        nbytes = ring_region_bytes(entries, codec.STRUCT.size)
        pages = self.authority.alloc_pages(nbytes // PAGE_SIZE, "proxy",
                                           NORMAL, "ring")
        rid, self._next_rid = self._next_rid, self._next_rid + 1
        self.authority.register_shared(pages, rid, nbytes)
        base = self.kernel.attach_shared(space, rid, nbytes)
        ring = Ring(space.access(base, nbytes, "w"), entries, codec,
                    initialize=True)
        proxy = self.host.proxy_space
        win = proxy.access(self.authority.map_region(proxy, rid).base,
                           nbytes, "w")
        return ring, Ring(win, entries, codec, initialize=False), win

    def spawn_enclave(self, name: str, period: int, budget: int,
                      body_factory: Callable, env: dict | None = None,
                      priority: int = 0) -> EnclaveRuntime:
        """Full launch: image pages, ring grants, pools, admission.

        body_factory(runtime) must return the task body generator. Grant
        validation failures surface as RegistrationRejected and leave the
        authority untouched.
        """
        cfg = self.cfg
        self.authority.table.set_quota(name, ENCLAVE_QUOTA_PAGES)
        space = self.authority.create_space(name, TRUSTED, base_hint=0x100000)
        image = self.authority.alloc_pages(4, name, TRUSTED, "image")
        self.authority.map_private(space, image)

        sq, host_sq, sq_win = self._ring(space, cfg.sq_entries, Sqe)
        cq, host_cq, cq_win = self._ring(space, cfg.cq_entries, Cqe)
        self.host.attach_enclave(name, host_sq, host_cq)
        self.host.scribble_targets.extend([sq_win, cq_win])

        pool = PromisePool(cfg.max_outstanding_promises,
                           cfg.continuation_budget)
        # per-enclave grant id space keeps host registrations collision-free
        handle = RingHandle(sq, cq, space, self.kernel, pool, cfg,
                            region_base=(len(self.runtimes) + 1) << 20,
                            keep_records=self.keep_records)
        rt = EnclaveRuntime(name, handle, self.sched, cfg, self.device)
        body = body_factory(rt)
        self.sched.admit(name, ENCLAVE, period, budget, body, priority)
        rt.arena_pool.prefill(env or {})
        self.runtimes[name] = rt
        return rt

    # --- driving ---

    def run_until(self, t: int) -> None:
        self.sched.run_until(t)

    def run_for(self, dt: int) -> None:
        self.sched.advance(dt)

    def close(self) -> None:
        """Free every live allocation, owner by owner, close each task body,
        drop the pending correlation records and unwire completion_irq, so
        that reference counting frees the platform. Idempotent; emits no
        record and keeps every log and account. Windows over freed pages fault."""
        a = self.authority
        for owner in dict.fromkeys(i.owner for i in a.table.entries.values()):
            a.free_pages([p for p, i in a.table.entries.items()
                          if i.owner == owner], owner)
        for t in self.sched.tasks.values():  # a body's frame holds its rt,
            t.gen.close()
        for rt in self.runtimes.values():  # and so does a pending record
            rt.handle._table.clear()
        vars(self.host).pop("completion_irq", None)  # it holds the kernel
