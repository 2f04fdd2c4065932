"""Staged calls: one operation record each, which is the promise its caller
sees. When a caller gives up nothing leaks, and the host keeps a published
call's arena until that call's completion lands (the io_uring buffer rule)."""
from ringsim.config import ETIMEDOUT, INIT_SHM_ENV, SimConfig
from ringsim.host import AdversaryPolicy
from ringsim.promise import abandon, async_open, async_read, async_write
from ringsim.enclave import SqeArgs
from ringsim.ring import OP_GETPID, OP_READ
from ringsim.shim import sync_call
from ringsim.sim import EnclaveRuntime

from helpers import app_sim, spawn_app

MANIFEST = "/data/\n/data/f 65536 1024 0\n"


def _open(rt):
    return (yield from sync_call(rt, async_open(rt, b"/data/f")))


def _pump_until(rt, t):
    while rt.now() < t:
        yield ("compute", 10_000)
        rt.pump()


def test_staged_read_creates_one_promise():
    # the op is the one promise the caller sees; its arena request, binned
    # here, makes none
    def body(rt, out):
        fd = yield from _open(rt)
        create = rt.pool.create
        made = []

        def counted(*args):
            made.append(args)
            return create(*args)

        rt.pool.create = counted
        out["data"] = yield from sync_call(rt, async_read(rt, fd, 64))
        out["creates"] = len(made)
        out["done"] = True

    sim = app_sim(MANIFEST)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(5_000_000)
    assert out.get("done") and len(out["data"]) == 64
    assert out["creates"] == 1


def test_staging_is_a_deferred_continuation():
    # a staged call publishes from the continuation queue at the next drain
    # (here the pump), never at once: a later call's binned arena request
    # drains nothing
    def body(rt, out):
        fd = yield from _open(rt)
        submit = rt.handle.prep_and_submit
        published = []

        def spy(*args):
            published.append(args[0])
            return submit(*args)

        rt.handle.prep_and_submit = spy
        seen = []
        for i in range(2):
            async_read(rt, fd, 64, i * 64)
            seen.append((len(published), rt.pool.deferred_count))
        rt.pump()
        seen.append((len(published), rt.pool.deferred_count))
        out["seen"] = seen
        out["done"] = True

    sim = app_sim(MANIFEST)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(5_000_000)
    assert out.get("done") and out["seen"] == [(0, 1), (0, 2), (2, 0)]


def test_abandon_before_staging_frees_the_arena_and_submits_nothing():
    def body(rt, out):
        fd = yield from _open(rt)
        p = async_read(rt, fd, 64)  # arena binned: staging waits in the queue
        abandon(rt, p)
        rt.pump()
        out["after"] = (rt.arena_pool.accounting()[2], len(rt.handle._table),
                        rt.handle.parked_count, rt.pool.outstanding)
        out["done"] = True

    sim = app_sim(MANIFEST)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(5_000_000)
    assert out.get("done") and out["after"] == (0, 0, 0, 0)


def test_abandon_while_the_arena_waits_on_a_refill_frees_it_on_grant():
    # no launch grant and slow grants: the read times out while its arena
    # request waits for a refill; once the grant lands nothing stays live
    policy = AdversaryPolicy(per_op={"enclave_mmap": ("delay", 2_000_000)})

    def body(rt, out):
        fd = yield from _open(rt)
        out["r"] = yield from sync_call(rt, async_read(rt, fd, 8192), 300_000)
        out["waiting"] = rt.arena_pool.waiting
        yield from _pump_until(rt, 20_000_000)
        out["done"] = True

    sim = app_sim(MANIFEST, policy=policy)
    rt, out = spawn_app(sim, body, env={})
    sim.run_until(40_000_000)
    assert out.get("done") and out["r"] == -ETIMEDOUT
    received, in_bins, live = rt.arena_pool.accounting()
    assert received == 12288  # the open's grant and the read's refill
    assert (in_bins, live) == (received, 0)
    assert out["waiting"] == 0  # the request dropped out at once
    assert rt.pool.outstanding == 0 and not rt.handle._table


def test_denied_reads_time_out_for_good_without_a_leak():
    # the host never completes a read: every read times out. Published ones
    # keep their records (capped by the table) and arenas; later ones park,
    # time out and are unparked with their arenas freed
    cap = SimConfig().max_outstanding_promises
    policy = AdversaryPolicy(per_op={"read": ("deny",)})

    def body(rt, out):
        fd = yield from _open(rt)
        table = rt.handle._table
        out["worst"] = 0
        for _ in range(2_000):
            r = yield from sync_call(rt, async_read(rt, fd, 64), 300_000)
            assert r == -ETIMEDOUT
            # a read's record is its caller tag, its op (a promise)
            held = sum(tag.arena.capacity for tag in table.values()
                       if getattr(tag, "opcode", None) == OP_READ)
            assert rt.arena_pool.accounting()[2] == held
            assert len(table) <= cap and rt.handle.parked_count == 0
            out["worst"] = max(out["worst"], rt.pool.outstanding)
        out["table"] = len(table)
        out["done"] = True

    sim = app_sim(MANIFEST, policy=policy)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(2_000_000_000)
    assert out.get("done")
    assert out["table"] == cap
    assert out["worst"] <= 2


def test_late_reads_free_their_arenas_and_never_reach_a_later_write():
    # reads time out long before the host serves them; a write staged after
    # them is still in flight when their late payloads land
    policy = AdversaryPolicy(per_op={"read": ("delay", 2_000_000),
                                     "write": ("delay", 3_000_000)})
    payload = b"\x5a" * 4096

    def body(rt, out):
        fd = yield from _open(rt)
        for i in range(4):
            r = yield from sync_call(rt, async_read(rt, fd, 4096, i * 4096),
                                     300_000)
            assert r == -ETIMEDOUT
        out["held"] = rt.arena_pool.accounting()[2]
        out["w"] = yield from sync_call(rt, async_write(rt, fd, payload))
        yield from _pump_until(rt, 10_000_000)
        out["done"] = True

    sim = app_sim(MANIFEST, policy=policy)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(20_000_000)
    assert out.get("done") and out["w"] == 4096
    assert out["held"] == 4 * 4096  # the host owned them after the abandon
    assert bytes(sim.vfs.files["/data/f"].data[:4096]) == payload
    received, in_bins, live = rt.arena_pool.accounting()
    assert (in_bins, live) == (received, 0)
    assert rt.pool.outstanding == 0 and not rt.handle._table


def test_parked_reads_behind_a_full_table_wait_without_busy_polling(monkeypatch):
    # once abandoned published reads fill the table, every later read parks
    # and cannot go out before it times out: its wait must not pump once
    # per poll tick, and it still times out on time
    cap = 32
    pumps = [0]
    pump = EnclaveRuntime.pump

    def counting_pump(rt, *args):
        pumps[0] += 1
        return pump(rt, *args)

    monkeypatch.setattr(EnclaveRuntime, "pump", counting_pump)

    def body(rt, out):
        fd = yield from _open(rt)
        for i in range(cap + 40):
            if i == cap:
                assert len(rt.handle._table) == cap
                mark = pumps[0]
            t0 = rt.now()
            r = yield from sync_call(rt, async_read(rt, fd, 64), 300_000)
            assert r == -ETIMEDOUT and t0 + 300_000 <= rt.now() <= t0 + 400_000
        out["pumps"] = (pumps[0] - mark) / 40
        out["done"] = True

    sim = app_sim(MANIFEST, policy=AdversaryPolicy(per_op={"read": ("deny",)}),
                  cfg=SimConfig(max_outstanding_promises=cap))
    _, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(2_000_000_000)
    assert out.get("done")
    assert out["pumps"] <= 6, out["pumps"]


def _blocks(sim) -> int:
    return sum(ev == "block" for _, _, ev in sim.sched.trace)


def test_a_retired_record_lets_a_parked_call_go_out_at_once():
    # the table is full and a call is parked, so the last pump was stuck;
    # a timed-out getpid then retires its record, and the next wait must
    # be one busy tick, after which the parked call goes out
    cap = 8
    policy = AdversaryPolicy(per_op={"read": ("deny",), "getpid": ("deny",)})

    def body(rt, out):
        fd = yield from _open(rt)
        table = rt.handle._table
        while len(table) < cap - 1:  # abandoned reads keep their records
            r = yield from sync_call(rt, async_read(rt, fd, 64), 100_000)
            assert r == -ETIMEDOUT
        first = rt.submit_async(OP_GETPID, SqeArgs(translate=False))
        rt.submit_async(OP_GETPID, SqeArgs(translate=False))
        assert len(table) == cap and rt.handle.parked_count == 1
        assert (yield from sync_call(rt, first, 100_000)) == -ETIMEDOUT
        t0, blocks = rt.now(), _blocks(sim)
        yield from rt.poll_wait(t0 + 1_000_000)  # a busy tick, not a block
        out["tick"] = (rt.now() - t0, _blocks(sim) - blocks)
        rt.pump()
        out["parked"] = rt.handle.parked_count
        out["done"] = True

    sim = app_sim(MANIFEST, policy=policy,
                  cfg=SimConfig(max_outstanding_promises=cap))
    _, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(100_000_000)
    assert out.get("done")
    assert out["tick"] == (sim.cfg.poll_tick, 0) and out["parked"] == 0


def test_the_first_open_fits_every_promise_cap():
    # grants hold no promise slot, so the open's operation record is the only
    # slot the first open after a 64 KiB launch grant takes: from a cap of 1
    # up it gets fd 3, and no exception escapes the run
    def body(rt, out):
        out["fd"] = yield from sync_call(rt, async_open(rt, b"/data/f"),
                                         1_000_000)

    for cap in range(1, 10):
        sim = app_sim(MANIFEST, cfg=SimConfig(max_outstanding_promises=cap))
        rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
        sim.run_until(3_000_000)
        assert out["fd"] == 3, cap
        assert rt.pool.outstanding == 0, cap


def test_denied_grants_hold_no_promise_slot():
    # the host never answers a grant: the open parks for its arena and
    # times out, and neither grant (launch or refill) holds a slot
    policy = AdversaryPolicy(per_op={"enclave_mmap": ("deny",)})

    def body(rt, out):
        out["fd"] = yield from sync_call(rt, async_open(rt, b"/data/f"),
                                         1_000_000)
        out["after"] = (rt.pool.outstanding, rt.arena_pool.waiting,
                        rt.arena_pool.accounting(), len(rt.handle._table))

    sim = app_sim(MANIFEST, policy=policy)
    rt, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(3_000_000)
    assert out["fd"] == -ETIMEDOUT
    assert out["after"] == (0, 0, (0, 0, 0), 2)  # the two grants' records
