"""Whole-platform wiring: launch flow, grant attach, liveness under silence."""
import pytest

from ringsim import ring as ringmod
from ringsim.config import SimConfig
from ringsim.enclave import RingHandle, SqeArgs
from ringsim.errors import RegistrationRejected, Untranslatable
from ringsim.host import AdversaryPolicy
from ringsim.promise import (FULFILLED, PENDING, PromisePool,
                             async_open, async_read, poll)
from ringsim.ring import Cqe, Ring
from ringsim.shim import sync_call

from helpers import app_sim, spawn_app

MANIFEST = "/data/\n/data/f 4096 512 0\n"


def _settle(rt, out, promises, rounds=300):
    for _ in range(rounds):
        if all(poll(p) != PENDING for p in promises):
            break
        yield ("compute", 2000)
        rt.pump()
    out["states"] = [poll(p) for p in promises]


def test_spawn_and_getpid_roundtrip():
    sim = app_sim(MANIFEST)

    def body(rt, out):
        p = rt.submit_async(ringmod.OP_GETPID, SqeArgs())
        yield from _settle(rt, out, [p])
        out["pid"] = p.value
        out["t"] = rt.now()
        rt.device_tx(b"done")

    rt, out = spawn_app(sim, body)
    sim.run_until(2_000_000)
    assert out["states"] == [FULFILLED]
    assert out["pid"] == sim.host.pid
    assert sim.device.tx_log == [(out["t"], "app", b"done")]
    assert sim.host._wake_seen > 0         # doorbell page was read


def _mmap(rt, out, sizes, rounds=300):
    """Request one grant per size; out["grants"] gets what each grant
    landed with, (block, None) or (None, refusal), in request order."""
    landed = [None] * len(sizes)
    for i, size in enumerate(sizes):
        rt.handle.enclave_mmap(
            size, lambda block, refusal, i=i: landed.__setitem__(
                i, (block, refusal)))
    for _ in range(rounds):
        if None not in landed:
            break
        yield ("compute", 2000)
        rt.pump()
    out["grants"] = landed


def test_enclave_mmap_attaches_and_translates():
    sim = app_sim(MANIFEST)

    def body(rt, out):
        yield from _mmap(rt, out, [8192])

    rt, out = spawn_app(sim, body)
    sim.run_until(2_000_000)
    [(blk, refusal)] = out["grants"]
    assert refusal is None
    assert rt.pool.outstanding == 0       # a grant holds no promise slot
    assert blk.entry.size == 8192
    blk.window.write(100, b"cross-world")
    proxy_view = sim.host.proxy_space.access(blk.entry.proxy_base + 100, 11, "r")
    assert proxy_view.read(0, 11) == b"cross-world"
    got = rt.handle.translate_addr(blk.entry.enclave_base + 4097)
    assert got == blk.entry.proxy_base + 4097


def test_two_enclaves_grants_do_not_collide():
    sim = app_sim(MANIFEST)

    def body(rt, out):
        yield from _mmap(rt, out, [4096])

    rt1, out1 = spawn_app(sim, body, name="a", budget=20_000)
    rt2, out2 = spawn_app(sim, body, name="b", budget=20_000)
    sim.run_until(3_000_000)
    [(b1, r1)], [(b2, r2)] = out1["grants"], out2["grants"]
    assert r1 is None and r2 is None
    assert b1.entry.proxy_base != b2.entry.proxy_base


def test_kernel_region_cap_refuses_attach():
    sim = app_sim(MANIFEST)
    sim.kernel.max_regions_per_owner = 3   # 2 consumed by the ring pair

    def body(rt, out):
        yield from _mmap(rt, out, [4096, 4096])

    rt, out = spawn_app(sim, body)
    sim.run_until(3_000_000)
    # service jitter may reorder the grants; exactly one lands under the cap
    refusals = [r for _, r in out["grants"]]
    assert sorted(r is None for r in refusals) == [False, True]
    assert any(isinstance(r, RegistrationRejected) for r in refusals)


def test_lying_registration_is_refused_trusted_side():
    sim = app_sim(MANIFEST, policy=AdversaryPolicy(bad_register="dup"))

    def body(rt, out):
        # two pages: the duplicate-page registration attack needs >= 2
        yield from _mmap(rt, out, [8192])

    rt, out = spawn_app(sim, body)
    sim.run_until(3_000_000)
    [(blk, refusal)] = out["grants"]
    assert blk is None and isinstance(refusal, RegistrationRejected)
    # host reported a bogus success yet nothing got validated or mapped
    assert not any(e[0] == "reg_atomic" and not e[2] for e in sim.host.events)
    assert rt.handle._entries_list == []


def test_silent_host_leaves_promise_pending_loop_live():
    sim = app_sim(MANIFEST, policy=AdversaryPolicy(default=("deny",)))

    def body(rt, out):
        p = rt.submit_async(ringmod.OP_GETPID, SqeArgs())
        out["laps"] = 0
        for _ in range(200):
            yield ("compute", 2000)
            rt.pump()
            out["laps"] += 1
        out["state"] = poll(p)

    rt, out = spawn_app(sim, body)
    sim.run_until(50_000_000)
    assert out["laps"] == 200              # task kept running the whole time
    assert out["state"] == PENDING         # and never blocked on the host
    assert sim.sched.now == 50_000_000


def test_spawn_storm_all_complete():
    sim = app_sim(MANIFEST)
    outs = []

    def body(rt, out):
        p = rt.submit_async(ringmod.OP_GETPID, SqeArgs())
        yield from _settle(rt, out, [p])
        out["pid"] = p.value

    for i in range(20):
        _, out = spawn_app(sim, body, name=f"app{i}", period=200_000,
                           budget=2_000)
        outs.append(out)
    sim.run_until(40_000_000)
    assert all(o.get("pid") == sim.host.pid for o in outs)
    alive = [t for t in sim.sched.tasks.values() if t.alive]
    assert [t.name for t in alive] == ["host0"]  # every app exited cleanly


# --- doorbell: every publish wakes an idle poller ---

def _poller_slept(sim) -> bool:
    return any(ev[0] == "poller_sleep" for ev in sim.host.events)


def test_arena_refill_wakes_an_idle_poller():
    # no launch grant: the 3000-byte read needs a refill grant, whose
    # OP_ENCLAVE_MMAP is published after the poller has gone to sleep
    sim = app_sim("/data/\n/data/f 8192 4096 0\n")

    def body(rt, out):
        fd = yield from sync_call(rt, async_open(rt, b"/data/f"), 5_000_000)
        out["first"] = yield from sync_call(rt, async_read(rt, fd, 64),
                                            5_000_000)
        for _ in range(20):  # idle for ~2 ms: the poller sleeps
            yield ("yield",)
        out["slept"] = _poller_slept(sim)
        out["got"] = yield from sync_call(rt, async_read(rt, fd, 3000),
                                          5_000_000)

    rt, out = spawn_app(sim, body)
    sim.run_until(30_000_000)
    assert len(out["first"]) == 64
    assert out["slept"]
    assert not isinstance(out["got"], int), f"read failed: {out['got']}"
    assert len(out["got"]) == 3000


def test_pumped_parked_submissions_wake_an_idle_poller():
    sim = app_sim(cfg=SimConfig(sq_entries=2, cq_entries=2))

    def body(rt, out):
        ps = [rt.submit_async(ringmod.OP_GETPID, SqeArgs()) for _ in range(6)]
        out["parked"] = rt.handle.parked_count
        yield ("compute", 40_000)
        for _ in range(15):  # idle for ~1.5 ms: the poller sleeps
            yield ("yield",)
        out["slept"] = _poller_slept(sim)
        out["pids"] = []
        for p in ps:
            out["pids"].append((yield from sync_call(rt, p, 3_000_000)))

    rt, out = spawn_app(sim, body)
    sim.run_until(30_000_000)
    assert out["parked"] == 4
    assert out["slept"]
    assert out["pids"] == [sim.host.pid] * 6


def test_pump_rings_one_doorbell_for_every_parked_submission_it_publishes():
    sim = app_sim(cfg=SimConfig(sq_entries=2, cq_entries=2))
    enters, per_pump = [], []
    ring_enter = sim.kernel.ring_enter
    sim.kernel.ring_enter = lambda caller: (enters.append(caller),
                                            ring_enter(caller))

    def body(rt, out):
        pump_parked = rt.handle.pump_parked

        def counted_pump():
            before = len(enters)
            pump_parked()
            if len(enters) > before:
                per_pump.append(len(enters) - before)

        rt.handle.pump_parked = counted_pump
        ps = [rt.submit_async(ringmod.OP_GETPID, SqeArgs()) for _ in range(12)]
        out["parked"] = rt.handle.parked_count
        yield from _settle(rt, out, ps)
        out["pids"] = [p.value for p in ps]

    rt, out = spawn_app(sim, body)
    sim.run_until(5_000_000)
    assert out["parked"] == 10
    assert out["pids"] == [sim.host.pid] * 12
    # two ring slots free up between pumps: each publishing pump fills both
    # and rings once
    assert per_pump == [1, 1, 1, 1, 1]


# --- pump: the batch drain runs the per-entry steps ---

def test_pump_delivers_every_completion_through_peek_cqe_and_ring_peek(
        monkeypatch):
    # RingHandle.reap holds one CQ tail snapshot but still takes every entry
    # through peek_cqe and Ring.peek, the steps the drop budget and the
    # per-layer spans sit on; a drain loop of its own would bypass both
    peeked, handed, settled = [], [], []

    def spy(cls, name, log):
        real = getattr(cls, name)

        def wrapper(self, *args):
            got = real(self, *args)
            log.append(got if name != "settle_from_cqe" else args[0])
            return got
        monkeypatch.setattr(cls, name, wrapper)

    spy(Ring, "peek", peeked)
    spy(RingHandle, "peek_cqe", handed)
    spy(PromisePool, "settle_from_cqe", settled)
    # three junk completions ride along with every real one
    sim = app_sim(policy=AdversaryPolicy(per_op={"getpid": ("flood", 3)}))

    def body(rt, out):
        ps = [rt.submit_async(ringmod.OP_GETPID, SqeArgs()) for _ in range(12)]
        yield from _settle(rt, out, ps)

    rt, out = spawn_app(sim, body)
    sim.run_until(5_000_000)
    assert out["states"] == [FULFILLED] * 12
    handed = [c for c in handed if c is not None]
    assert len(settled) == len(handed) == 12
    assert all(s is h for s, h in zip(settled, handed))
    entries = [e.user_data for e in peeked if e is not None]
    assert [c.internal_id for c in settled] == \
        [ud for ud in entries if ud < 1 << 63]
    assert len(entries) > 12  # the junk went through Ring.peek too


@pytest.mark.parametrize("k", [1, 5, 12])
def test_idle_pump_costs_one_tail_load_and_a_drain_peeks_once_per_entry(
        k, monkeypatch):
    # an idle pump stops after its CQ tail load; a pump that drains k honest
    # completions stops at the batch's clamped occupancy, not on a peek of
    # an empty ring
    peeks, peek_cqes = [0], [0]

    def count(cls, name, n):
        real = getattr(cls, name)

        def wrapper(self, *args):
            n[0] += 1
            return real(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    count(Ring, "peek", peeks)
    count(RingHandle, "peek_cqe", peek_cqes)
    sim = app_sim()
    monitor = sim.authority.monitor

    def body(rt, out):
        yield ("compute", 2000)
        monitor.arm()
        mark, before = monitor.mark(), (peeks[0], peek_cqes[0])
        out["idle"] = (rt.pump(), monitor.delta(mark),
                       peeks[0] - before[0], peek_cqes[0] - before[1])
        monitor.disarm()
        ps = [rt.submit_async(ringmod.OP_GETPID, SqeArgs()) for _ in range(k)]
        while rt.handle.cq_backlog() < k:
            yield ("compute", 2000)
        before = peeks[0]
        out["drain"] = (rt.pump(), peeks[0] - before)
        out["states"] = [poll(p) for p in ps]

    rt, out = spawn_app(sim, body)
    sim.run_until(5_000_000)
    assert out["idle"] == (0, 1, 0, 0)
    assert out["drain"] == (k, k)
    assert out["states"] == [FULFILLED] * k


def test_poll_wait_loads_the_backlog_again_after_a_yield():
    # poll_wait reuses the backlog of a pump in the same body resume only:
    # here the last pump ran from outside, at the very instant the body
    # resumes, and a completion came in after it
    sim = app_sim()

    def body(rt, out):
        out["p"] = rt.submit_async(ringmod.OP_GETPID, SqeArgs())
        yield ("compute", 50_000)  # the whole budget: resumes at 100 us
        out["ticks"] = yield from rt.poll_wait(None)

    rt, out = spawn_app(sim, body, period=100_000, budget=50_000)
    sim.run_until(100_000)
    rt.pump()
    assert out["p"].state == FULFILLED and rt.handle.cq_backlog() == 0
    sim.host.rings["app"][1].produce(Cqe(1 << 63, 0, 0))
    sim.run_until(200_000)
    assert out["ticks"] == 1  # one busy-poll tick: there is news to drain
