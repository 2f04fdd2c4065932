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
from .ring import (CQE_SIZE, SQE_SIZE, WAKE_FMT, cq_ring_attach,
                   cq_ring_init, ring_region_bytes, sq_ring_attach,
                   sq_ring_init)
from .sched import ENCLAVE, FP, HOST, BudgetScheduler
from .shm import MemoryAuthority, NORMAL, TRUSTED

# page quota of each enclave: its image, private pages and shared grants
ENCLAVE_QUOTA_PAGES = 512


class TrustedKernel:
    """Trusted-world mediator between enclaves, the authority, and the host.

    It validates every grant an enclave wants to attach, maps ring regions,
    and forwards enter notifications to the host as a masked wake interrupt
    plus a record in the shared wake queue page.
    """

    def __init__(self, authority: MemoryAuthority):
        self.authority = authority
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

    def ring_enter(self, caller: str) -> None:
        """Trusted syscall surface for "work is queued", rung by
        RingHandle.prep_and_submit and pump_parked after they publish: append
        to the wake queue and raise the (masked) host interrupt."""
        ordinal = self._caller_ordinals.setdefault(caller,
                                                   len(self._caller_ordinals))
        self._wake_count = (self._wake_count + 1) & 0xFFFFFFFF
        self._wake_window.pack(WAKE_FMT, 0, self._wake_count, ordinal)
        self.host.notify_enter()

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

    def now(self) -> int:
        return self._sched.now

    def submit_async(self, opcode: int, args):
        """Queue one submission; promise of its completion result."""
        p = self.pool.create()
        self.handle.prep_and_submit(opcode, args, p.tag)
        return p

    def pump(self, max_events: int | None = None) -> int:
        """Drain up to max_events delivered completions plus deferred work.

        A peek that comes back empty only ends the loop when the ring itself
        reports empty; a junk-flooded ring burns event slots (each covering a
        full drop budget) instead, so one pump call stays bounded while a
        backlog of garbage still drains across calls.
        """
        self.handle.pump_parked()
        budget = self.cfg.max_events if max_events is None else max_events
        n = 0
        while n < budget:
            comp = self.handle.peek_cqe()
            if comp is None:
                if self.handle.cq_backlog() == 0:
                    break
                n += 1  # a drop-budget round of junk is still an event
                continue
            self.handle.consume_cqe()
            n += 1
            self.pool.settle_from_cqe(comp)
        self.pool.run_deferred()
        return n

    def poll_wait(self, until: int | None):
        """Burn poll ticks until there may be news: `yield from` it.

        While another pump() could not change anything (no deferred
        continuation, nothing parked, no completion backlog),
        nothing can: no other task runs while this one holds the core. Then
        the scheduler burns ticks without resuming the body, up to the first
        tick end at or after `until` or the next deschedule. Otherwise this
        is one plain tick, as in a busy-poll loop. Returns the ticks burned.
        """
        tick = self.cfg.poll_tick
        h = self.handle
        if self.pool.deferred_count or h.parked_count or h.cq_backlog():
            yield ("compute", tick)
            return 1
        return (yield ("wait", tick, until))

    def device_tx(self, payload: bytes) -> None:
        self.device.tx(self._sched.now, self.name, payload)


class Simulation:
    """One platform: authority + kernel + host + device + scheduler."""

    def __init__(self, cfg: SimConfig | None = None, seed: int = 0,
                 manifest: str = "", policy: AdversaryPolicy | None = None,
                 sched_policy: str = FP):
        self.cfg = cfg or SimConfig()
        self.seed = seed
        self.authority = MemoryAuthority()
        self.authority.table.set_quota("proxy", 8192)
        self.authority.table.set_quota("kernel", 16)
        self.kernel = TrustedKernel(self.authority)
        self.device = SecureSerialDevice(tx_capacity=1 << 20)
        self.sched = BudgetScheduler(sched_policy)
        self.vfs = VirtualFs.from_manifest(manifest) if manifest else VirtualFs()
        self.policy = policy or AdversaryPolicy()
        proxy_space = self.authority.create_space("proxy", NORMAL,
                                                  base_hint=0x10000)
        self.host = HostOs(self.authority, proxy_space, self.vfs, self.policy,
                           self.cfg, seed)
        self.kernel.wire_host(self.host)
        self.runtimes: dict[str, EnclaveRuntime] = {}
        self._next_rid = 1

    # --- host task ---

    def add_host_task(self, period: int = 100_000, budget: int = 50_000,
                      priority: int = 0) -> None:
        self.sched.admit("host0", HOST, period, budget, self._host_body(),
                         priority)

    def _host_body(self):
        host, step = self.host, self.cfg.host_step_cost
        until = None
        while True:
            if until is None:
                yield ("compute", step)
            else:
                yield ("wait", step, until)
            served = host.on_slice(self.sched.now)
            until = None
            if served == 0:
                if host.workers:
                    until = host.quiet_until()
                else:
                    yield ("yield",)

    # --- enclave launch flow ---

    def _fresh_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

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

        # ring regions: proxy-owned normal pages, validated before any map
        sq_bytes = ring_region_bytes(cfg.sq_entries, SQE_SIZE)
        cq_bytes = ring_region_bytes(cfg.cq_entries, CQE_SIZE)
        sq_pages = self.authority.alloc_pages(sq_bytes // PAGE_SIZE, "proxy",
                                              NORMAL, "ring")
        cq_pages = self.authority.alloc_pages(cq_bytes // PAGE_SIZE, "proxy",
                                              NORMAL, "ring")
        sq_rid, cq_rid = self._fresh_rid(), self._fresh_rid()
        self.authority.register_shared(sq_pages, sq_rid, sq_bytes)
        self.authority.register_shared(cq_pages, cq_rid, cq_bytes)

        sq_base = self.kernel.attach_shared(space, sq_rid, sq_bytes)
        cq_base = self.kernel.attach_shared(space, cq_rid, cq_bytes)
        sq_win = space.access(sq_base, sq_bytes, "w")
        cq_win = space.access(cq_base, cq_bytes, "w")
        # trusted side zeroes both headers; a pre-scribbled header can then
        # never poison the initial index snapshots on either side
        sq = sq_ring_init(sq_win, cfg.sq_entries)
        cq = cq_ring_init(cq_win, cfg.cq_entries)

        psq = self.authority.map_region(self.host.proxy_space, sq_rid)
        pcq = self.authority.map_region(self.host.proxy_space, cq_rid)
        sq_host_win = self.host.proxy_space.access(psq.base, sq_bytes, "w")
        cq_host_win = self.host.proxy_space.access(pcq.base, cq_bytes, "w")
        host_sq = sq_ring_attach(sq_host_win, cfg.sq_entries)
        host_cq = cq_ring_attach(cq_host_win, cfg.cq_entries)
        self.host.attach_enclave(name, host_sq, host_cq)
        self.host.scribble_targets.extend([sq_host_win, cq_host_win])

        pool = PromisePool(cfg.max_outstanding_promises,
                           cfg.continuation_budget)
        # per-enclave grant id space keeps host registrations collision-free
        handle = RingHandle(sq, cq, space, self.kernel, pool, cfg,
                            region_base=(len(self.runtimes) + 1) << 20)
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
