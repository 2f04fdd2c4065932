"""Host OS model: virtual fs, op servicing, adversary transforms, poller."""
import hashlib

import pytest

from ringsim import ring as ringmod
from ringsim.config import (EBADF, EEXIST, EFBIG, EINVAL, ENOENT, INIT_SHM_ENV,
                            SimConfig)
from ringsim.host import (AdversaryPolicy, HostOs, VirtualFs, _fill_bytes)
from ringsim.promise import async_path_op, async_read, async_statx, async_write
from ringsim.ring import CQE_SIZE, SQE_SIZE, Cqe, Ring, Sqe, ring_region_bytes
from ringsim.shim import PosixShim, sync_call
from ringsim.shm import NORMAL, TRUSTED, MemoryAuthority

from helpers import app_sim, spawn_app

MANIFEST = """
# data tree
/data/
/data/f 1024 512 0
/dev/null 0 4096 1
"""


# --- virtual filesystem ---

def test_manifest_builds_tree():
    fs = VirtualFs.from_manifest(MANIFEST)
    assert "/data" in fs.dirs
    f = fs.files["/data/f"]
    assert len(f.data) == 1024 and f.block_size == 512 and not f.pseudo
    assert fs.files["/dev/null"].pseudo
    assert "/dev" in fs.dirs               # parents implied by file paths
    with pytest.raises(ValueError):
        VirtualFs.from_manifest("/bad 12\n")


def test_seeded_content_is_deterministic():
    a = VirtualFs.from_manifest(MANIFEST)
    b = VirtualFs.from_manifest(MANIFEST)
    assert a.files["/data/f"].data == b.files["/data/f"].data
    pattern = hashlib.sha256(b"/data/f").digest()
    assert bytes(a.files["/data/f"].data[:32]) == pattern
    assert _fill_bytes("/x", 100) != _fill_bytes("/y", 100)
    assert len(_fill_bytes("/x", 7)) == 7


def test_read_write_extend_and_eof():
    fs = VirtualFs.from_manifest(MANIFEST)
    data = fs.files["/data/f"].data
    assert fs.read("/data/f", 100, 64) == bytes(data[100:164])
    assert fs.read("/data/f", 1000, 64) == bytes(data[1000:])  # short at EOF
    assert fs.write("/data/f", 2000, b"zz") == 2               # gap zero-fills
    assert fs.read("/data/f", 1024, 978) == b"\x00" * 976 + b"zz"


def test_pseudo_files_swallow_and_pattern():
    fs = VirtualFs.from_manifest(MANIFEST)
    assert fs.write("/dev/null", 0, b"gone") == 4
    assert len(fs.files["/dev/null"].data) == 0
    a = fs.read("/dev/null", 16, 32)
    assert a == fs.read("/dev/null", 16, 32)
    assert a != fs.read("/dev/null", 17, 32)  # offset-keyed pattern


def test_open_mkdir_unlink_results():
    fs = VirtualFs.from_manifest(MANIFEST)
    assert fs.open("/nope", create=False, trunc=False) == -ENOENT
    assert fs.open("/ghost/f", create=True, trunc=False) == -ENOENT
    assert fs.open("/data/new", create=True, trunc=False) == 0
    fs.write("/data/new", 0, b"abc")
    assert fs.open("/data/new", create=False, trunc=True) == 0
    assert len(fs.files["/data/new"].data) == 0
    assert fs.mkdir("/data") == -EEXIST
    assert fs.mkdir("/a/b") == -ENOENT
    assert fs.mkdir("/a") == 0 and fs.mkdir("/a/b") == 0
    assert fs.unlink("/data/new") == 0
    assert fs.unlink("/data/new") == -ENOENT
    assert fs.stat("/data/f") == (1024, 512, 0)


def test_parse_transform():
    P = AdversaryPolicy.parse_transform
    assert P("honest") == ("honest",)
    assert P("deny") == ("deny",)
    assert P("corrupt") == ("corrupt",)
    assert P("duplicate") == ("duplicate",)
    assert P("delay:123") == ("delay", 123)
    assert P("flood:4") == ("flood", 4)
    for bad in ("wibble", "delay", "flood:x", "deny:1"):
        with pytest.raises(ValueError):
            P(bad)


# --- raw ring harness around one HostOs ---

class World:
    def __init__(self, policy=None, manifest=MANIFEST, seed=7):
        self.cfg = SimConfig(service_jitter=0)  # exact latency arithmetic
        auth = MemoryAuthority()
        self.espace = auth.create_space("encl", TRUSTED, 0x100000)
        pspace = auth.create_space("proxy", NORMAL, 0x10000)
        sqb = ring_region_bytes(self.cfg.sq_entries, SQE_SIZE)
        cqb = ring_region_bytes(self.cfg.cq_entries, CQE_SIZE)
        sqn, cqn = self.cfg.sq_entries, self.cfg.cq_entries
        self.sq = Ring(self._dual(auth, pspace, sqb)[0], sqn, Sqe,
                       initialize=True)
        hsq = Ring(self._last_proxy, sqn, Sqe, initialize=False)
        self.cq = Ring(self._dual(auth, pspace, cqb)[0], cqn, Cqe,
                       initialize=True)
        hcq = Ring(self._last_proxy, cqn, Cqe, initialize=False)
        vfs = VirtualFs.from_manifest(manifest)
        self.host = HostOs(auth, pspace, vfs, policy or AdversaryPolicy(),
                           self.cfg, seed)
        self.host.attach_enclave("e", hsq, hcq)
        # one shared page usable as a path/payload buffer
        pages = auth.alloc_pages(1, "proxy", NORMAL, "buf")
        self.buf = self.espace.access(auth.map_private(self.espace, pages).base,
                                      4096, "rw")
        self.buf_addr = auth.map_private(pspace, pages).base
        self._ud = 0

    def _dual(self, auth, pspace, nbytes):
        pages = auth.alloc_pages(nbytes // 4096, "proxy", NORMAL, "ring")
        ewin = self.espace.access(auth.map_private(self.espace, pages).base,
                                  nbytes, "rw")
        self._last_proxy = pspace.access(auth.map_private(pspace, pages).base,
                                         nbytes, "rw")
        return ewin, pages

    def submit(self, opcode, fd=0, addr=0, ln=0, off=0, flags=0):
        self._ud += 1
        assert self.sq.produce(Sqe(opcode, flags, fd, addr, ln, off, self._ud))
        self.host.notify_enter()
        return self._ud

    def pump(self, t0, t1, step=1000):
        for t in range(t0, t1, step):
            self.host.on_slice(t)
        return [self.cq.consume() for _ in range(len(self._peek_all()))]

    def _peek_all(self):
        return self.cq.consume_batch(0) or []

    def drain(self):
        return self.cq.consume_batch(self.cfg.cq_entries)

    def run_op(self, t0, opcode, **kw):
        ud = self.submit(opcode, **kw)
        self.pump(t0, t0 + 20_000)
        got = [c for c in self.drain() if c.user_data == ud]
        assert len(got) == 1, got
        return got[0], t0 + 20_000


def _open(w, t0, path=b"/data/f", off=0):
    w.buf.write(0, path)
    cqe, t1 = w.run_op(t0, ringmod.OP_OPEN, addr=w.buf_addr, ln=len(path),
                       off=off)
    assert cqe.result >= 3
    return cqe.result, t1


def test_open_read_write_statx_close():
    w = World()
    fd, t = _open(w, 0)
    pattern = hashlib.sha256(b"/data/f").digest()

    cqe, t = w.run_op(t, ringmod.OP_READ, fd=fd, addr=w.buf_addr + 256,
                      ln=64, off=32)
    assert cqe.result == 64
    want = (pattern * 3)[32:96]
    assert w.buf.read(256, 64) == want     # payload landed in shared buffer

    w.buf.write(512, b"fresh bytes")
    cqe, t = w.run_op(t, ringmod.OP_WRITE, fd=fd, addr=w.buf_addr + 512,
                      ln=11, off=0)
    assert cqe.result == 11
    assert bytes(w.host.vfs.files["/data/f"].data[:11]) == b"fresh bytes"

    cqe, t = w.run_op(t, ringmod.OP_STATX, fd=fd, addr=w.buf_addr + 1024)
    assert cqe.result == 0
    size, block, pseudo = ringmod.STATX_FMT.unpack(w.buf.read(1024, 16))
    assert (size, block, pseudo) == (1024, 512, 0)

    cqe, t = w.run_op(t, ringmod.OP_CLOSE, fd=fd)
    assert cqe.result == 0
    cqe, t = w.run_op(t, ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=8)
    assert cqe.result == -EBADF
    cqe, t = w.run_op(t, 200)              # unknown opcode
    assert cqe.result == -EINVAL
    cqe, t = w.run_op(t, 8, fd=3)          # retired opcode number
    assert cqe.result == -EINVAL


def test_read_view_is_gone_before_the_file_grows():
    # a 64 KiB read and a write that extends the same file, delivered in
    # one slice: the read's view of the file must be released by then
    w = World(manifest="/data/\n/data/f 65536 4096 0\n")
    auth, pspace = w.host.authority, w.host.proxy_space
    big = auth.map_private(pspace, auth.alloc_pages(16, "proxy", NORMAL)).base
    fd, t = _open(w, 0)
    w.buf.write(512, b"tail")
    rd = w.submit(ringmod.OP_READ, fd=fd, addr=big, ln=65536)
    wr = w.submit(ringmod.OP_WRITE, fd=fd, addr=w.buf_addr + 512, ln=4,
                  off=65536)
    w.pump(t, t + 20_000)
    assert {c.user_data: c.result for c in w.drain()} == {rd: 65536, wr: 4}
    consumed = [e[1] for e in w.host.events if e[0] == "sqe" and e[4] in (rd, wr)]
    assert len(consumed) == 2 and consumed[0] == consumed[1]  # same ready time
    data = w.host.vfs.files["/data/f"].data
    assert pspace.access(big, 65536).read(0, 65536) == data[:65536]
    assert data[65536:] == b"tail"


@pytest.mark.parametrize("op", [ringmod.OP_OPEN, ringmod.OP_UNLINK,
                                ringmod.OP_MKDIR],
                         ids=["open", "unlink", "mkdir"])
def test_non_utf8_path_is_einval(op):
    sim = app_sim(MANIFEST)

    def body(rt, out):
        out["r"] = yield from sync_call(
            rt, async_path_op(rt, op, b"/d/\xff"), 10_000_000)

    _, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(30_000_000)              # the host must not crash
    assert out["r"] == -EINVAL


_FD_OPS = {"read": lambda rt, fd: async_read(rt, fd, 64),
           "write": lambda rt, fd: async_write(rt, fd, b"x" * 64),
           "statx": async_statx}


@pytest.mark.parametrize("op", sorted(_FD_OPS))
def test_fd_ops_after_unlink_are_errnos(op):
    # an fd whose file is gone is as unknown as a closed one, and the host
    # keeps running
    sim = app_sim("/data/\n/data/f 4096 512 0\n")

    def body(rt, out):
        shim = PosixShim(rt, timeout_ns=10_000_000)
        fd = yield from shim.open("/data/f")
        out["unlink"] = yield from shim.unlink("/data/f")
        out["r"] = yield from sync_call(rt, _FD_OPS[op](rt, fd), 10_000_000)

    _, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(30_000_000)
    assert out == {"unlink": 0, "r": -EBADF}


@pytest.mark.parametrize("off", [1 << 63, 200 << 20])
def test_a_write_past_the_largest_file_is_efbig(off):
    # an offset past the size limit fails like pwrite(2) past s_maxbytes;
    # the host neither grows the file nor dies of it
    sim = app_sim("/data/\n/data/f 4096 512 0\n")
    before = bytes(sim.vfs.files["/data/f"].data)

    def body(rt, out):
        fd = yield from PosixShim(rt, timeout_ns=10_000_000).open("/data/f")
        out["w"] = yield from sync_call(rt, async_write(rt, fd, b"x" * 64, off),
                                        10_000_000)

    _, out = spawn_app(sim, body, env={INIT_SHM_ENV: "65536"})
    sim.run_until(30_000_000)
    assert out == {"w": -EFBIG}
    assert sim.vfs.files["/data/f"].data == before


def test_fd_table_dense_from_three():
    w = World()
    t = 0
    fds = []
    for _ in range(3):
        fd, t = _open(w, t)
        fds.append(fd)
    assert fds == [3, 4, 5]
    cqe, t = w.run_op(t, ringmod.OP_CLOSE, fd=4)
    assert cqe.result == 0
    fd, t = _open(w, t)
    assert fd == 4                         # lowest free slot reused


def test_deny_consumes_without_completion():
    w = World(AdversaryPolicy(per_op={"read": ("deny",)}))
    fd, t = _open(w, 0)                    # open uses the honest default
    ud = w.submit(ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=8)
    w.pump(t, t + 500_000)
    assert w.drain() == []
    assert w.host.serviced == 2            # the SQE itself was consumed
    assert any(e[0] == "deny" and e[3] == ud for e in w.host.events)


def test_delay_shifts_delivery_exactly():
    def first_delivery(policy):
        w = World(policy)
        fd, t = _open(w, 0)
        w.submit(ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=8)
        for tick in range(t, t + 400_000, 100):
            w.host.on_slice(tick)
            got = w.drain()
            if got:
                return tick
        raise AssertionError("never delivered")

    base = first_delivery(AdversaryPolicy())
    late = first_delivery(AdversaryPolicy(per_op={"read": ("delay", 50_000)}))
    assert late - base == 50_000


def test_corrupt_flips_payload_or_result():
    w = World(AdversaryPolicy(per_op={"read": ("corrupt",),
                                      "write": ("corrupt",)}))
    fd, t = _open(w, 0)
    pattern = hashlib.sha256(b"/data/f").digest()
    cqe, t = w.run_op(t, ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=32)
    assert cqe.result == 32
    assert w.buf.read(0, 32) == bytes(b ^ 0xA5 for b in pattern)
    w.buf.write(64, b"epsilon")
    cqe, t = w.run_op(t, ringmod.OP_WRITE, fd=fd, addr=w.buf_addr + 64, ln=7)
    assert cqe.result == -5                # payload-free op: result poisoned


def test_duplicate_delivers_twice():
    w = World(AdversaryPolicy(per_op={"read": ("duplicate",)}))
    fd, t = _open(w, 0)
    ud = w.submit(ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=8)
    w.pump(t, t + 30_000)
    got = [c for c in w.drain() if c.user_data == ud]
    assert len(got) == 2 and got[0] == got[1]


def test_flood_injects_junk_ids():
    w = World(AdversaryPolicy(per_op={"read": ("flood", 5)}))
    fd, t = _open(w, 0)
    ud = w.submit(ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=8)
    w.pump(t, t + 30_000)
    got = w.drain()
    junk = [c for c in got if c.user_data >> 63]
    real = [c for c in got if c.user_data == ud]
    assert len(junk) == 5 and len(real) == 1


def test_poller_sleeps_then_wakes_on_enter():
    w = World()
    w.pump(0, 500_000, step=10_000)        # idle past the timeout
    assert not w.host.poller_awake
    assert any(e[0] == "poller_sleep" for e in w.host.events)
    assert w.sq.produce(Sqe(ringmod.OP_GETPID, 0, 0, 0, 0, 0, 42))
    w.pump(500_000, 520_000)               # no doorbell: nothing consumed
    assert w.host.serviced == 0
    w.host.notify_enter()
    w.pump(520_000, 560_000)
    assert w.host.serviced == 1
    assert any(e[0] == "poller_wake" for e in w.host.events)
    got = w.drain()
    assert got[0].result == w.host.pid


def test_never_wake_ignores_doorbell():
    w = World(AdversaryPolicy(never_wake=True))
    assert not w.host.poller_awake         # parked from boot
    w.submit(ringmod.OP_GETPID)
    w.pump(0, 600_000, step=10_000)
    assert w.host.serviced == 0 and w.drain() == []


def test_kill_proxy_tears_down_service():
    w = World(AdversaryPolicy(kill_proxy_at=5_000))
    fd_ud = w.submit(ringmod.OP_GETPID)    # consumed at t=0, due at 8000
    w.pump(0, 30_000)
    assert not w.host.proxy_alive
    assert w.host.fds == {} and w.host.workers == []
    assert w.drain() == []                 # completion died with the proxy
    assert any(e[0] == "kill_proxy" and e[1] == 5_000 for e in w.host.events)
    w.submit(ringmod.OP_GETPID)
    w.pump(30_000, 60_000)
    assert w.host.serviced == 1            # nothing consumed after the kill


def test_mmap_grants_and_bad_register_lies():
    w = World()
    cqe, t = w.run_op(0, ringmod.OP_ENCLAVE_MMAP, ln=8192, off=77)
    assert cqe.result > 0                  # proxy base of the new grant
    reg = w.host.authority.registrations[77]
    assert reg.expected_size == 8192

    bad = World(AdversaryPolicy(bad_register="dup"))
    cqe, _ = bad.run_op(0, ringmod.OP_ENCLAVE_MMAP, ln=8192, off=77)
    assert cqe.result > 0                  # host lies about success
    assert 77 not in bad.host.authority.registrations
    assert any(e[0] == "registration_rejected" for e in bad.host.events)
    # rejected registration left the authority byte-identical
    assert any(e[0] == "reg_atomic" and e[2] for e in bad.host.events)


def _delivered_at(w, ud, t0):
    """The first slice tick, in steps of 100 ns from t0, that delivers ud."""
    for tick in range(t0, t0 + 2_000_000, 100):
        w.host.on_slice(tick)
        if any(c.user_data == ud for c in w.drain()):
            return tick - t0
    raise AssertionError("never delivered")


@pytest.mark.parametrize("flags,deny,due", [
    (0, False, 8_000), (ringmod.SQE_DRAIN, False, 16_000),
    (ringmod.SQE_DRAIN, True, 8_000)], ids=["plain", "drain", "after_deny"])
def test_drain_flag_waits_for_the_rings_pending_workers(flags, deny, due):
    # a write and a close consumed in one slice: a flagged close is due its
    # latency after the write's worker, unless the write was denied
    w = World(AdversaryPolicy(per_op={"write": ("deny",)}) if deny else None)
    fd, t = _open(w, 0)
    w.buf.write(0, b"tail")
    w.submit(ringmod.OP_WRITE, fd=fd, addr=w.buf_addr, ln=4)
    ud = w.submit(ringmod.OP_CLOSE, fd=fd, flags=flags)
    assert _delivered_at(w, ud, t) == due
    assert bytes(w.host.vfs.files["/data/f"].data[:4]) == \
        (_fill_bytes("/data/f", 4) if deny else b"tail")


def test_grants_pay_no_per_byte_service_cost():
    # service_per_byte prices the payload a read or write copies; a grant's
    # length is its size, not a payload
    w = World()
    w.cfg.service_per_byte = 1
    grant = w.submit(ringmod.OP_ENCLAVE_MMAP, ln=1 << 20, off=77)
    assert _delivered_at(w, grant, 0) <= w.cfg.service_base + \
        w.cfg.service_jitter
    fd, t = _open(w, 100_000)
    rd = w.submit(ringmod.OP_READ, fd=fd, addr=w.buf_addr, ln=1000)
    assert _delivered_at(w, rd, t) == w.cfg.service_base + 1000


def test_statx_by_path_writes_the_record_over_its_buffer():
    w = World()
    path = b"/data/f".ljust(ringmod.STATX_BYTES, b"\0")
    w.buf.write(0, path)
    cqe, t = w.run_op(0, ringmod.OP_STATX, fd=ringmod.AT_FDCWD,
                      addr=w.buf_addr, ln=len(path))
    assert cqe.result == 0
    assert ringmod.STATX_FMT.unpack(w.buf.read(0, 16)) == (1024, 512, 0)
    w.buf.write(0, b"/data/gone".ljust(16, b"\0"))
    cqe, t = w.run_op(t, ringmod.OP_STATX, fd=ringmod.AT_FDCWD,
                      addr=w.buf_addr, ln=16)
    assert cqe.result == -ENOENT
    assert w.host.fds == {}                # nothing was opened
