"""Sync-call layer and the buffered POSIX facade, driven inside full sims."""
import hashlib
import random

import pytest

from ringsim.config import (EAGAIN, EBADF, EINTR, ENOENT, ETIMEDOUT,
                            INIT_SHM_ENV, SimConfig)
from ringsim.enclave import SqeArgs
from ringsim.host import AdversaryPolicy, HostOs
from ringsim import ring as ringmod
from ringsim.promise import async_open, async_read, async_write
from ringsim.shim import PosixShim, getpid, sync_call
from ringsim.sim import EnclaveRuntime

from helpers import app_sim, spawn_app

MANIFEST = """
/data/
/data/f 4096 1024 0
/dev/zero 0 4096 1
"""
ENV = {INIT_SHM_ENV: "65536"}


def run_body(body, policy=None, horizon=30_000_000, env=ENV, **kw):
    sim = app_sim(MANIFEST, policy=policy)
    rt, out = spawn_app(sim, body, env=env, **kw)
    sim.run_until(horizon)
    assert out.get("done"), f"body did not finish: {out}"
    return sim, rt, out


def _pattern(path: bytes, n: int, skip: int = 0) -> bytes:
    block = hashlib.sha256(path).digest()
    reps = (n + skip + 31) // 32
    return (block * reps)[skip:skip + n]


def test_getpid_sync():
    def body(rt, out):
        out["pid"] = yield from getpid(rt)
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["pid"] == sim.host.pid


def test_open_read_write_flush_close():
    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f")
        out["fd"] = fd
        out["geo"] = (sh._files[fd].block_size, sh._files[fd].pseudo)
        out["r1"] = yield from sh.read(fd, 100)
        out["r2"] = yield from sh.read(fd, 28)   # sequential read_pos
        out["w1"] = yield from sh.write(fd, b"a" * 600)
        out["w2"] = yield from sh.write(fd, b"b" * 600)
        out["fl"] = yield from sh.flush(fd)
        out["rc"] = yield from sh.close(fd)
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["fd"] >= 3
    assert out["geo"] == (1024, False)
    assert out["r1"] == _pattern(b"/data/f", 100)
    assert out["r2"] == _pattern(b"/data/f", 28, skip=100)
    assert out["w1"] == 600 and out["w2"] == 600
    assert out["fl"] == 0 and out["rc"] == 0
    final = bytes(sim.vfs.files["/data/f"].data[:1200])
    assert final == b"a" * 600 + b"b" * 600
    assert out["fd"] not in sim.host.fds


def test_unheld_descriptor_gets_ebadf_without_a_ring_access():
    # a closed fd, a never-opened fd and a second close: POSIX says EBADF,
    # and nothing reaches the ring (the armed monitor sees no access)
    sim = app_sim(MANIFEST)
    monitor = sim.authority.monitor

    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f")
        out["rc"] = yield from sh.close(fd)
        monitor.arm()
        mark = monitor.mark()
        out["read"] = yield from sh.read(fd, 8, 0)
        out["write"] = yield from sh.write(99, b"x")
        out["flush"] = yield from sh.flush(99)
        out["close"] = yield from sh.close(fd)
        out["accesses"] = monitor.delta(mark)
        monitor.disarm()
        out["done"] = True

    _, out = spawn_app(sim, body, env=ENV)
    sim.run_until(30_000_000)
    assert out.get("done") and out["rc"] == 0
    assert [out[k] for k in ("read", "write", "flush", "close")] == \
        [-EBADF] * 4
    assert out["accesses"] == 0


def test_writes_coalesce_into_block_sqes():
    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f")
        yield from sh.write(fd, b"x" * 512)
        yield from sh.write(fd, b"y" * 512)      # fills exactly one block
        yield from sh.flush(fd)
        out["done"] = True

    sim, rt, out = run_body(body)
    writes = [e for e in sim.host.events if e[0] == "sqe" and e[3] == "write"]
    assert len(writes) == 1                      # one 1024B SQE, no tail
    assert bytes(sim.vfs.files["/data/f"].data[:1024]) == \
        b"x" * 512 + b"y" * 512


def test_pseudo_files_skip_staging():
    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/dev/zero")
        out["pseudo"] = sh._files[fd].pseudo
        out["w1"] = yield from sh.write(fd, b"q" * 10)
        out["w2"] = yield from sh.write(fd, b"q" * 20)
        out["staged"] = len(sh._files[fd].staged)
        out["r"] = yield from sh.read(fd, 16, off=5)
        out["r_again"] = yield from sh.read(fd, 16, off=5)
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["pseudo"] is True
    assert (out["w1"], out["w2"]) == (10, 20)    # direct, host-acknowledged
    assert out["staged"] == 0
    writes = [e for e in sim.host.events if e[0] == "sqe" and e[3] == "write"]
    assert len(writes) == 2                      # one SQE per write, no blocks
    assert out["r"] == out["r_again"] and len(out["r"]) == 16


def test_deferred_error_poisons_later_calls():
    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f")
        out["w1"] = yield from sh.write(fd, b"z" * 1024)  # submits a block
        out["fl"] = yield from sh.flush(fd)
        out["w2"] = yield from sh.write(fd, b"more")
        out["rc"] = yield from sh.close(fd)
        out["done"] = True

    sim, rt, out = run_body(
        body, policy=AdversaryPolicy(per_op={"write": ("corrupt",)}))
    assert out["w1"] == 1024                     # staging accepted it
    assert out["fl"] == -5                       # corrupted CQE -> EIO later
    assert out["w2"] == -5                       # file stays poisoned
    assert out["rc"] == -5


def test_zero_timeout_probe_and_alarm():
    def body(rt, out):
        p = rt.submit_async(ringmod.OP_GETPID, SqeArgs(translate=False))
        out["probe"] = yield from sync_call(rt, p, timeout_ns=0)
        t0 = rt.now()
        q = rt.submit_async(ringmod.OP_GETPID, SqeArgs(translate=False))
        out["intr"] = yield from sync_call(rt, q, timeout_ns=5_000_000,
                                           alarm_at=t0 + 100_000)
        out["t_intr"] = rt.now() - t0
        out["done"] = True

    sim, rt, out = run_body(body, policy=AdversaryPolicy(default=("deny",)))
    assert out["probe"] == -EAGAIN
    assert out["intr"] == -EINTR
    assert 100_000 <= out["t_intr"] <= 100_000 + 200_000


def test_timeout_under_denial_then_straggler_inert():
    def body(rt, out):
        t0 = rt.now()
        out["r"] = yield from getpid(rt, timeout_ns=50_000)
        out["elapsed"] = rt.now() - t0
        for _ in range(200):                     # outlive the delayed CQE
            yield ("compute", 2_000)
            rt.pump()
        out["done"] = True

    sim, rt, out = run_body(
        body, policy=AdversaryPolicy(per_op={"getpid": ("delay", 300_000)}),
        env={})                                  # no prefill: getpid is alone
    assert out["r"] == -ETIMEDOUT
    assert out["elapsed"] <= 50_000 + 100_000 + 2_000  # timeout + one period
    assert rt.handle.delivered_log == []         # straggler dropped, not routed
    assert rt.pool.stray_completions == 0


def test_unlink_mkdir_path_ops():
    def body(rt, out):
        sh = PosixShim(rt)
        out["mk"] = yield from sh.mkdir("/scratch")
        fd = yield from sh.open("/scratch/t", create=True)
        out["rc"] = yield from sh.close(fd)
        out["rm"] = yield from sh.unlink("/scratch/t")
        out["rm2"] = yield from sh.unlink("/scratch/t")
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["mk"] == 0 and out["rc"] == 0
    assert out["rm"] == 0 and out["rm2"] == -ENOENT
    assert "/scratch/t" not in sim.vfs.files


def test_single_write_outstanding_per_file():
    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f")
        for _ in range(3):
            yield from sh.write(fd, b"k" * 1024)
        yield from sh.flush(fd)
        out["done"] = True

    sim, rt, out = run_body(
        body, policy=AdversaryPolicy(per_op={"write": ("delay", 30_000)}))
    times = [e[1] for e in sim.host.events
             if e[0] == "sqe" and e[3] == "write"]
    # blocks staged behind the in-flight write coalesce into one chunk, so
    # three writes become two submissions chained on completion
    assert len(times) == 2
    assert all(b - a >= 30_000 for a, b in zip(times, times[1:]))
    assert bytes(sim.vfs.files["/data/f"].data[:3072]) == b"k" * 3072


def test_sequential_write_stream_matches_model():
    rng = random.Random(99)
    chunks = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 600)))
              for _ in range(30)]

    def body(rt, out):
        sh = PosixShim(rt)
        fd = yield from sh.open("/data/f", trunc=True)
        for c in chunks:
            r = yield from sh.write(fd, c)
            assert r == len(c)
        out["fl"] = yield from sh.flush(fd)
        got = bytearray()
        while len(got) < sum(map(len, chunks)):
            part = yield from sh.read(fd, 1024, off=len(got))
            assert not isinstance(part, int) and part
            got += part
        out["got"] = bytes(got)
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["fl"] == 0
    assert out["got"] == b"".join(chunks)
    assert bytes(sim.vfs.files["/data/f"].data) == b"".join(chunks)


def test_delayed_reads_outlive_a_full_table_of_later_calls():
    # hundreds of calls complete while 8 slow reads are in flight; the
    # oldest read must still be matched to its completion
    policy = AdversaryPolicy(per_op={"read": ("delay", 80_000_000)})

    def body(rt, out):
        fd = yield from PosixShim(rt).open("/data/f")
        reads = [async_read(rt, fd, 512, 512 * i) for i in range(8)]
        for _ in range(400):
            yield from getpid(rt)
        out["first"] = yield from sync_call(rt, reads[0], 500_000_000)
        out["at"] = rt.now()
        out["done"] = True

    _, _, out = run_body(body, policy=policy, horizon=600_000_000)
    assert out["first"] == _pattern(b"/data/f", 512)
    assert out["at"] < 90_000_000


# --- blocking waits against one more poll at every block ---

WAIT_HOSTS = {
    "honest": AdversaryPolicy(),
    "delay": AdversaryPolicy(per_op={"read": ("delay", 900_000),
                                     "write": ("delay", 400_000)}),
    "deny": AdversaryPolicy(per_op={"read": ("deny",)}),
    "flood": AdversaryPolicy(default=("flood", 30)),
    "never_wake": AdversaryPolicy(never_wake=True),
    "scribble": AdversaryPolicy(scribble_rate=0.3),
    "kill": AdversaryPolicy(kill_proxy_at=3_000_000),
}


def _wait_body(rt, out, timeout):
    sh = PosixShim(rt, timeout_ns=timeout)
    fd = yield from sh.open("/data/f")
    out.append(("open", rt.now(), fd))
    for i in range(12 if fd >= 0 else 0):
        alarm = rt.now() + 300_000 if i % 4 == 3 else None
        got = yield from sync_call(rt, async_read(rt, fd, 64, 64 * i),
                                   timeout, alarm_at=alarm)
        n = yield from sh.write(fd, bytes([i]) * 700)
        out.append((i, rt.now(), got if isinstance(got, int) else bytes(got),
                    n))
        if i % 5 == 4:
            out.append(("flush", rt.now(), (yield from sh.flush(fd))))
    rt.device_tx(b"%s done at %d" % (rt.name.encode(), rt.now()))
    while True:
        yield ("yield",)


def _counted(body, counter):
    value = None
    while True:
        counter[0] += 1
        try:
            cmd = body.send(value)
        except StopIteration:
            return
        value = yield cmd


def _run_wait_world(policy):
    # two events per pump leave junk floods a backlog between pumps
    sim = app_sim(MANIFEST, policy=policy, seed=3,
                  cfg=SimConfig(write_staging_cap=2048, max_events=2))
    outs, resumes = {}, [0]
    for name, period, budget, prio, timeout in (
            ("fast", 100_000, 20_000, 7, 400_000),
            ("slow", 300_000, 60_000, 4, None)):
        outs[name] = out = []
        sim.spawn_enclave(
            name, period, budget,
            lambda rt, out=out, t=timeout: _counted(_wait_body(rt, out, t),
                                                    resumes),
            env=ENV, priority=prio)
    for t in (4_000_000, 9_000_000, 20_000_000):
        sim.run_until(t)
    logs = {n: rt.handle.delivered_log for n, rt in sim.runtimes.items()}
    return (sim.sched.trace, sim.host.events, sim.device.tx_log, outs,
            logs), resumes[0]


def _poll_every_tick(rt, until):
    yield ("compute", rt.cfg.poll_tick)


def _pump_at_every_block(checked):
    """A poll_wait that pumps once more wherever the real one blocks; that
    pump must deliver, push and run nothing."""
    poll_wait = EnclaveRuntime.poll_wait

    def wait(rt, until):
        cmd = next(poll_wait(rt, until))
        if cmd[0] == "block":
            parked, deferred = rt.handle.parked_count, rt.pool.deferred_count
            assert (rt.pump(), rt.handle.parked_count, deferred) == \
                (0, parked, 0), f"{rt.name} blocks with news at {rt.now()}"
            checked.append(rt.now())
        yield cmd
    return wait


@pytest.mark.parametrize("host", sorted(WAIT_HOSTS))
def test_waits_match_polling_every_tick(host, monkeypatch):
    """A wait blocks only where polling could not change anything: the same
    bodies with one more pump at every block must find nothing there and
    leave the same trace, host events, device output, deliveries and return
    values. Blocking resumes the bodies far less often than a loop that
    pumps each poll tick next to a host that runs every step."""
    blocked, block_resumes = _run_wait_world(WAIT_HOSTS[host])
    checked = []
    monkeypatch.setattr(EnclaveRuntime, "poll_wait",
                        _pump_at_every_block(checked))
    pumped, _ = _run_wait_world(WAIT_HOSTS[host])
    assert pumped == blocked and len(checked) > 20
    monkeypatch.setattr(EnclaveRuntime, "poll_wait", _poll_every_tick)
    monkeypatch.setattr(HostOs, "quiet_until", lambda self: None)
    _, poll_resumes = _run_wait_world(WAIT_HOSTS[host])
    assert block_resumes * 3 < poll_resumes


def _full_table_world():
    # reads and getpid calls outlive their timeout, so abandoned records
    # fill a 4-entry table and later calls park; late completions and
    # retired getpid records make room again
    policy = AdversaryPolicy(per_op={"read": ("delay", 5_000_000),
                                     "getpid": ("delay", 600_000)})
    sim = app_sim(MANIFEST, policy=policy, seed=3,
                  cfg=SimConfig(max_outstanding_promises=8))
    out = []

    def body(rt):
        fd = yield from sync_call(rt, async_open(rt, b"/data/f"))
        for i in range(40):
            if i % 3 == 2:
                r = yield from getpid(rt, timeout_ns=150_000)
            else:
                r = yield from sync_call(rt, async_read(rt, fd, 64, 64 * i),
                                         150_000 + 50_000 * (i % 4))
            out.append((i, rt.now(), r if isinstance(r, int) else bytes(r),
                        rt.handle.parked_count))
        while True:
            yield ("yield",)

    rt = sim.spawn_enclave("app", 100_000, 30_000, body, env=ENV, priority=5)
    sim.run_until(20_000_000)
    return (sim.sched.trace, sim.host.events, out, rt.handle.delivered_log)


def test_parked_waits_match_polling_every_tick(monkeypatch):
    """Waits on calls parked behind a full table block only while nothing
    can make room: one more pump at every block finds nothing."""
    blocked = _full_table_world()
    checked = []
    monkeypatch.setattr(EnclaveRuntime, "poll_wait",
                        _pump_at_every_block(checked))
    assert blocked == _full_table_world() and len(checked) > 20


def test_never_wake_open_resumes_once_or_twice_per_period():
    # the default timeout is unbounded, so the open never returns; but the
    # body is resumed about once per period, not once per poll tick
    resumes = [0]
    sim = app_sim(MANIFEST, policy=AdversaryPolicy(never_wake=True))

    def body(rt):
        return _counted(PosixShim(rt).open("/data/f"), resumes)

    sim.spawn_enclave("app", 100_000, 50_000, body, env=ENV, priority=5)
    sim.run_until(2_000_000_000)
    periods = 2_000_000_000 // 100_000
    assert resumes[0] <= 2 * periods


# --- write staging under a small cap ---

@pytest.mark.parametrize("size", [700, 3000])
def test_capped_staging_drains_partial_and_oversize_writes(size):
    """With staging capped at 2 KiB on a 4 KiB-block file, the drain must
    submit a tail shorter than one block (700-byte writes) and stage a
    write larger than the cap whole (3000-byte writes), not time out."""
    sim = app_sim(MANIFEST, cfg=SimConfig(write_staging_cap=2048))

    def body(rt, out):
        sh = PosixShim(rt, timeout_ns=1_500_000)
        fd = yield from sh.open("/data/new", create=True)
        out["w"] = []
        for i in range(4):
            out["w"].append((yield from sh.write(fd, bytes([i + 1]) * size)))
        out["rc"] = yield from sh.close(fd)
        out["done"] = True

    _, out = spawn_app(sim, body, env=ENV)
    sim.run_until(30_000_000)
    assert out.get("done"), out
    assert out["w"] == [size] * 4 and out["rc"] == 0
    assert bytes(sim.vfs.files["/data/new"].data) == \
        b"".join(bytes([i + 1]) * size for i in range(4))


@pytest.mark.parametrize("cap", [1024, 2048, 4096])
def test_small_cap_buffered_equals_direct(cap):
    """Random write/flush sequences, some writes larger than the cap, on
    1 KiB- and 4 KiB-block files: buffered and direct per-op writes leave
    the same bytes, and no call times out on an honest host."""
    rng = random.Random(cap)
    seqs = []
    for _ in range(40):
        seqs.append([None if rng.random() < 0.2 else
                     rng.randbytes(rng.randrange(1, 3 * cap))
                     for _ in range(rng.randrange(2, 8))])
    files = "".join(f"/{d}/f{i} 0 {1024 if i % 2 else 4096} 0\n"
                    for i in range(len(seqs)) for d in "ab")
    sim = app_sim("/a/\n/b/\n" + files, cfg=SimConfig(write_staging_cap=cap))
    timeout = 50_000_000

    def buffered(rt, out):
        sh = PosixShim(rt, timeout_ns=timeout)
        for i, ops in enumerate(seqs):
            fd = yield from sh.open(f"/a/f{i}")
            out["r"].append(fd)
            for op in ops:
                if op is None:
                    out["r"].append((yield from sh.flush(fd)))
                else:
                    out["r"].append((yield from sh.write(fd, op)))
            out["r"].append((yield from sh.close(fd)))
        out["done"] = True

    def direct(rt, out):
        for i, ops in enumerate(seqs):
            fd = yield from sync_call(
                rt, async_open(rt, f"/b/f{i}".encode(), 0), timeout)
            out["r"].append(fd)
            pos = 0
            for op in [op for op in ops if op is not None]:
                r = yield from sync_call(rt, async_write(rt, fd, op, pos),
                                         timeout)
                out["r"].append(r)
                pos += len(op)
            out["r"].append((yield from sync_call(
                rt, rt.submit_async(ringmod.OP_CLOSE,
                                    SqeArgs(fd=fd, translate=False)),
                timeout)))
        out["done"] = True

    env = {INIT_SHM_ENV: "262144"}
    outs = []
    for name, body in (("buf", buffered), ("raw", direct)):
        _, out = spawn_app(sim, body, env=env, name=name, budget=25_000)
        out["r"] = []
        outs.append(out)
    for _ in range(200):
        if all(out.get("done") for out in outs):
            break
        sim.run_for(50_000_000)
    assert all(out.get("done") for out in outs)
    for out in outs:
        assert all(r >= 0 for r in out["r"]), out["r"]   # no -ETIMEDOUT
    for i, ops in enumerate(seqs):
        want = b"".join(op for op in ops if op is not None)
        assert bytes(sim.vfs.files[f"/a/f{i}"].data) == want, f"buffered {i}"
        assert bytes(sim.vfs.files[f"/b/f{i}"].data) == want, f"direct {i}"


@pytest.mark.parametrize("budget", [10_000, 50_000])
@pytest.mark.parametrize("drain", ["write", "flush"])
def test_drain_timeout_counts_simulated_time(drain, budget):
    """A staging drain that the host never serves times out within
    timeout + one period of simulated time, whatever share of the period
    the enclave may burn (as acceptance 9 bounds sync_call)."""
    period = 100_000
    sim = app_sim(MANIFEST, policy=AdversaryPolicy(per_op={"write": ("deny",)}),
                  cfg=SimConfig(write_staging_cap=512))

    def body(rt, out):
        out["r"] = []
        for tau in (170_000, 1_000_000):
            sh = PosixShim(rt, timeout_ns=tau)
            fd = yield from sh.open("/data/f")
            # the second write submits the first as a tail; its write stays
            # in flight, so the third must drain behind it
            assert (yield from sh.write(fd, b"x" * 600)) == 600
            assert (yield from sh.write(fd, b"x" * 600)) == 600
            t0 = rt.now()
            if drain == "write":
                r = yield from sh.write(fd, b"x" * 600)
            else:
                r = yield from sh.flush(fd)
            out["r"].append((tau, r, rt.now() - t0))
        out["done"] = True

    _, out = spawn_app(sim, body, env=ENV, period=period, budget=budget)
    sim.run_until(40_000_000)
    assert out.get("done"), out
    for tau, r, elapsed in out["r"]:
        assert r == -ETIMEDOUT and tau <= elapsed <= tau + period, (tau, r, elapsed)


# --- open and close in one round trip (SQE_DRAIN) ---

def test_open_and_close_publish_both_sqes_before_waiting():
    # the host consumes each pair in one slice: nothing waited in between
    def body(rt, out):
        sh = PosixShim(rt)
        out["w"], out["rc"] = [], []
        for _ in range(2):  # the first open waits for the launch grant
            fd = yield from sh.open("/data/f")
            out["w"].append((yield from sh.write(fd, b"q" * 100)))
            out["rc"].append((yield from sh.close(fd)))
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["w"] == [100, 100] and out["rc"] == [0, 0]
    pairs = [(e[1], e[3]) for e in sim.host.events
             if e[0] == "sqe" and e[3] != "enclave_mmap"]
    assert [op for _, op in pairs] == ["open", "statx", "write", "close"] * 2
    for i in range(0, 8, 2):
        assert pairs[i][0] == pairs[i + 1][0], pairs
    assert bytes(sim.vfs.files["/data/f"].data[:100]) == b"q" * 100


def _flagged_first(monkeypatch):
    """A host that drops SQE_DRAIN and runs a flagged SQE at once, ahead of
    the SQEs consumed before it."""
    service = HostOs._service

    def service_first(self, eid, sqe, now):
        if sqe.flags & ringmod.SQE_DRAIN:
            return service(self, eid, sqe._replace(flags=0), now - 20_000)
        return service(self, eid, sqe, now)

    monkeypatch.setattr(HostOs, "_service", service_first)


TAU = 2_000_000


def test_close_run_ahead_of_its_tail_write_fails(monkeypatch):
    _flagged_first(monkeypatch)

    def body(rt, out):
        sh = PosixShim(rt, timeout_ns=TAU)
        fd = yield from sh.open("/data/f")
        out["w"] = yield from sh.write(fd, b"z" * 100)   # a staged tail
        t0 = rt.now()
        out["rc"] = yield from sh.close(fd)
        out["took"] = rt.now() - t0
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["w"] == 100
    assert out["rc"] == -EBADF and out["took"] <= TAU   # the write found no fd
    assert b"z" not in b"".join(f.data for f in sim.vfs.files.values())


def test_statx_run_ahead_of_a_creating_open_fails(monkeypatch):
    _flagged_first(monkeypatch)

    def body(rt, out):
        sh = PosixShim(rt, timeout_ns=TAU)
        out["f"] = yield from sh.open("/data/f")      # exists: statx holds
        t0 = rt.now()
        out["new"] = yield from sh.open("/data/new", create=True)
        out["took"] = rt.now() - t0
        out["geo"] = {fd: (f.block_size, f.pseudo)
                      for fd, f in sh._files.items()}
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["new"] == -ENOENT and out["took"] <= TAU
    assert out["geo"] == {out["f"]: (1024, False)}  # no other file's record


def test_a_failed_statx_closes_the_opened_fd(monkeypatch):
    _flagged_first(monkeypatch)

    def body(rt, out):
        sh = PosixShim(rt, timeout_ns=TAU)
        out["new"] = yield from sh.open("/data/new", create=True)
        out["done"] = True

    sim, rt, out = run_body(body)
    assert out["new"] == -ENOENT
    assert "/data/new" in sim.vfs.files and sim.host.fds == {}
    assert rt.pool.outstanding == 0 and not rt.handle._table


def test_denied_write_does_not_hold_back_a_drain_close():
    def body(rt, out):
        sh = PosixShim(rt, timeout_ns=TAU)
        fd = yield from sh.open("/data/f")
        yield from sh.write(fd, b"d" * 100)
        t0 = rt.now()
        out["rc"] = yield from sh.close(fd)
        out["took"] = rt.now() - t0
        out["done"] = True

    sim, rt, out = run_body(
        body, policy=AdversaryPolicy(per_op={"write": ("deny",)}))
    # the write never lands, so close gives up; but the host closed the fd
    assert out["rc"] == -ETIMEDOUT and out["took"] <= TAU + 100_000
    (close,) = [e[4] for e in sim.host.events
                if e[0] == "sqe" and e[3] == "close"]
    assert ("cqe", "app", close, 0) in list(sim.host.events)
    assert sim.host.fds == {}
