"""Shared fixtures: tiny world builders and a brute-force scheduler reference.

Everything here is deliberately dumb. The reference scheduler advances one
nanosecond at a time and re-derives every decision from scratch so that the
event-driven implementation has something slow-but-obviously-right to match.
"""
from __future__ import annotations

from ringsim.config import PAGE_SIZE, SimConfig
from ringsim.enclave import (Completion, RingHandle, SharedBlock,
                             TranslationEntry)
from ringsim.errors import Untranslatable
from ringsim.promise import PromisePool
from ringsim.ring import CQE_SIZE, SQE_SIZE, Cqe, Ring, Sqe, ring_region_bytes
from ringsim.shm import NORMAL, TRUSTED, MemoryAuthority
from ringsim.sim import Simulation


def pages_for(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


def dual_windows(auth: MemoryAuthority, espace, pspace, nbytes: int,
                 owner: str = "proxy"):
    """One set of normal-world pages mapped into both spaces; returns the
    (enclave_window, proxy_window, page_ids) triple."""
    pages = auth.alloc_pages(pages_for(nbytes), owner, NORMAL, "shared")
    me = auth.map_private(espace, pages)
    mp = auth.map_private(pspace, pages)
    return (espace.access(me.base, nbytes, "rw"),
            pspace.access(mp.base, nbytes, "rw"), pages)


class StubKernel:
    """Trusted-kernel stand-in that records each ring enter's caller."""

    def __init__(self):
        self.enters: list[str] = []

    def ring_enter(self, caller: str) -> None:
        self.enters.append(caller)


def ring_world(cfg: SimConfig | None = None):
    """RingHandle wired to host-side ring views, no scheduler, no host model.

    Returns (auth, handle, host_sq, host_cq) where host_sq consumes
    submissions and host_cq produces completions, exactly like the host OS
    would through its own mapping of the same pages. The handle's kernel is
    a StubKernel, so `handle._kernel.enters` lists the doorbells rung.
    """
    cfg = cfg or SimConfig()
    auth = MemoryAuthority()
    espace = auth.create_space("encl", TRUSTED, base_hint=0x100000)
    pspace = auth.create_space("proxy", NORMAL, base_hint=0x10000)
    sq_bytes = ring_region_bytes(cfg.sq_entries, SQE_SIZE)
    cq_bytes = ring_region_bytes(cfg.cq_entries, CQE_SIZE)
    sqw_e, sqw_p, _ = dual_windows(auth, espace, pspace, sq_bytes)
    cqw_e, cqw_p, _ = dual_windows(auth, espace, pspace, cq_bytes)
    sq = Ring(sqw_e, cfg.sq_entries, Sqe, initialize=True)
    cq = Ring(cqw_e, cfg.cq_entries, Cqe, initialize=True)
    host_sq = Ring(sqw_p, cfg.sq_entries, Sqe, initialize=False)
    host_cq = Ring(cqw_p, cfg.cq_entries, Cqe, initialize=False)
    pool = PromisePool(cfg.max_outstanding_promises, cfg.continuation_budget)
    handle = RingHandle(sq, cq, espace, StubKernel(), pool, cfg)
    return auth, handle, host_sq, host_cq


class FakeHandle:
    """Stands in for RingHandle where only mmap grants and the pool matter.

    enclave_mmap() queues the request as (page-rounded size, landed); tests
    settle requests explicitly with grant()/refuse() to script host behavior.
    """

    def __init__(self, pool: PromisePool | None = None):
        self.pool = pool or PromisePool()
        self.requests: list[tuple[int, object]] = []
        self._auth = MemoryAuthority()
        self._espace = self._auth.create_space("encl", TRUSTED, 0x100000)
        self._next_base = 0x40000000

    def enclave_mmap(self, size: int, landed) -> None:
        self.requests.append((pages_for(size) * PAGE_SIZE, landed))

    def make_block(self, size: int) -> SharedBlock:
        pages = self._auth.alloc_pages(pages_for(size), "encl", NORMAL, "grant")
        m = self._auth.map_private(self._espace, pages)
        win = self._espace.access(m.base, size, "rw")
        proxy_base = self._next_base
        self._next_base += size + PAGE_SIZE
        return SharedBlock(TranslationEntry(m.base, proxy_base, size), win)

    def grant(self, index: int = 0) -> SharedBlock:
        size, landed = self.requests.pop(index)
        block = self.make_block(size)
        landed(block, None)
        self.pool.run_deferred()
        return block

    def refuse(self, index: int = 0, errno: int = 12):
        _, landed = self.requests.pop(index)
        landed(None, Untranslatable(f"host refused grant: errno {errno}"))
        self.pool.run_deferred()


class FakeRT:
    """Duck-typed runtime for promise-layer tests: records submissions as
    (opcode, args, promise) and lets the test complete them by hand. It is
    its own handle, whose submissions never park."""

    def __init__(self):
        self.pool = PromisePool()
        self.handle = self
        self.submitted: list[tuple] = []
        self.cfg = SimConfig()
        self._now = 0

    def submit_async(self, opcode, args, op=None):
        p = self.pool.create() if op is None else op
        self.submitted.append((opcode, args, p))
        return p

    def retire_tag(self, tag, published: bool = True) -> bool:
        return False

    def complete(self, index: int, result: int) -> None:
        """Deliver the index-th submission's completion, as pump() would."""
        p = self.submitted[index][2]
        self.pool.settle_from_cqe(Completion(p, result, index))

    def pump(self, max_events=None):
        self.pool.run_deferred()
        return 0

    def now(self):
        return self._now


def app_sim(manifest: str = "", policy=None, cfg: SimConfig | None = None,
            seed: int = 0, sched_policy: str = "fp"):
    """Simulation with the standard host task already admitted; it keeps its
    records, so a test can read its trace, host events and deliveries."""
    sim = Simulation(cfg=cfg or SimConfig(), seed=seed, manifest=manifest,
                     policy=policy, sched_policy=sched_policy,
                     keep_records=True)
    sim.add_host_task()
    return sim


def spawn_app(sim, body_of, env=None, name="app", period=100_000,
              budget=50_000, priority=5):
    """Spawn an enclave whose body is `body_of(rt, out)`; returns (rt, out).

    out is a plain dict the body can fill with observations.
    """
    out: dict = {}

    def factory(rt):
        def body():
            yield from body_of(rt, out)
        return body()

    rt = sim.spawn_enclave(name, period, budget, factory, env=env,
                           priority=priority)
    return rt, out


# --- brute-force scheduler reference ---

class RefTask:
    def __init__(self, tid, name, kind, period, budget, priority, script):
        self.tid = tid
        self.name = name
        self.kind = kind
        self.period = period
        self.budget = budget
        self.priority = priority
        self.script = list(script)
        self.ip = 0
        self.remaining = budget
        self.next_replenish = period
        self.deadline = period
        self.yielded = False
        self.alive = True
        self.cmd_left = None
        self.blocked = False
        self.until = None         # `until` of the block in progress
        self.block_ip = None      # script index of the block to log
        self.executed_total = 0
        self.window_executed = 0


class RefSched:
    """Tick-at-a-time reference. Scripts are finite lists of scheduling
    commands; running off the end exits the task.

    A ("block", until) takes the task off the eligible set until a tick
    starts at or after `until`, a tick at which any live task is released,
    or wake(name); one whose `until` has passed resumes at once. A ("wake",
    name) entry calls wake(name) and takes up the next command. After each
    resume the task is picked again, so a task woken by the running one
    preempts it before its next tick. `starts` records (now, task, script
    index) as each command is taken up, `blocks` (now, task, script index,
    now) as each block ends in a resume.
    """

    def __init__(self, policy: str):
        assert policy in ("fp", "edf")
        self.policy = policy
        self.now = 0
        self.tasks: list[RefTask] = []
        self.trace: list[tuple[int, str, str]] = []
        self.ticks: list[tuple[int, str]] = []
        self.starts: list[tuple[int, str, int]] = []
        self.blocks: list[tuple[int, str, int, int]] = []
        self.woken = 0            # blocks ended by wake()
        self.released = 0         # blocks ended by another task's release
        self._running: RefTask | None = None

    def admit(self, name, kind, period, budget, script, priority=0):
        t = RefTask(len(self.tasks), name, kind, period, budget, priority,
                    script)
        t.next_replenish = t.deadline = self.now + period
        self.tasks.append(t)
        return t

    def wake(self, name):
        for t in self.tasks:
            if t.name == name and t.blocked:
                t.blocked = False
                self.woken += 1

    def _replenish(self):
        any_release = False
        for t in self.tasks:
            if t.alive and t.next_replenish <= self.now:
                any_release = True
                t.remaining = t.budget
                t.yielded = t.blocked = False
                t.window_executed = 0
                t.deadline = t.next_replenish + t.period
                t.next_replenish += t.period
                self.trace.append((self.now, t.name, "replenish"))
            if t.blocked and t.until is not None and t.until <= self.now:
                t.blocked = False
        for t in self.tasks if any_release else ():
            if t.blocked:
                t.blocked = False
                self.released += 1

    def _pick(self):
        best, best_key = None, None
        for t in self.tasks:
            if not (t.alive and not t.yielded and not t.blocked
                    and t.remaining > 0):
                continue
            key = (-t.priority, t.tid) if self.policy == "fp" \
                else (t.deadline, t.tid)
            if best_key is None or key < best_key:
                best, best_key = t, key
        return best

    def _set_running(self, t):
        if self._running is t:
            return
        if self._running is not None:
            self.trace.append((self.now, self._running.name, "preempt"))
        self._running = t
        if t is not None:
            self.trace.append((self.now, t.name, "dispatch"))

    def _ensure_command(self, t) -> bool:
        while t.cmd_left is None or t.cmd_left == 0:
            if t.block_ip is not None:  # the body resumes after a block
                self.blocks.append((self.now, t.name, t.block_ip, self.now))
                t.block_ip = None
            if t.ip >= len(t.script):
                self._running = None
                t.alive = False
                self.trace.append((self.now, t.name, "exit"))
                return False
            cmd = t.script[t.ip]
            self.starts.append((self.now, t.name, t.ip))
            t.ip += 1
            if cmd[0] == "compute":
                t.cmd_left = cmd[1]
            elif cmd[0] == "wake":
                self.wake(cmd[1])
            elif cmd[0] == "block":
                t.block_ip = t.ip - 1
                if cmd[1] is not None and cmd[1] <= self.now:
                    continue
                t.blocked, t.until = True, cmd[1]
                self.trace.append((self.now, t.name, "block"))
                self._running = None
                return False
            else:  # yield
                t.yielded = True
                t.cmd_left = None
                self.trace.append((self.now, t.name, "yield"))
                self._running = None
                return False
        return True

    def run_until(self, t_end: int):
        while self.now < t_end:
            self._replenish()
            task = self._pick()
            if task is None:
                self._set_running(None)
                self.now += 1
                continue
            self._set_running(task)
            if not self._ensure_command(task) or self._pick() is not task:
                continue
            self.ticks.append((self.now, task.name))
            self.now += 1
            task.remaining -= 1
            task.cmd_left -= 1
            task.executed_total += 1
            task.window_executed += 1
            if task.remaining == 0:
                self.trace.append((self.now, task.name, "exhaust"))
                self._running = None


def script_gen(script):
    """Turn a command list into a generator body for the real scheduler."""
    def body():
        for cmd in script:
            yield cmd
    return body()


def recorded_script_gen(sched, name, script, starts, blocks):
    """script_gen that logs like RefSched: (now, name, index) as each command
    is taken up into `starts`, (now, name, index, value sent) as each block
    ends into `blocks`; a ("wake", task) entry calls sched.wake(task)."""
    def body():
        for i, cmd in enumerate(script):
            starts.append((sched.now, name, i))
            if cmd[0] == "wake":
                sched.wake(cmd[1])
                continue
            sent = yield cmd
            if cmd[0] == "block":
                blocks.append((sched.now, name, i, sent))
    return body()


def expand_timeline(timeline):
    """(start, end, name) slices -> set of (tick, name)."""
    out = set()
    for s, e, name in timeline:
        for t in range(s, e):
            out.add((t, name))
    return out
