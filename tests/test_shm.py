"""Memory world tests: page table, grants, windows, and the world filter.

The interesting assertions are oracle-shaped: registration validation is
replayed against a reference checker, allocation is audited with a
reference ownership set, and windows are compared with a flat byte model.
"""
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from ringsim.config import PAGE_SIZE
from ringsim.errors import (BusFault, DuplicatePage, NotOneRun,
                            NotValidated, OverlapWithPrivate, QuotaExceeded,
                            RegionIdBusy, SizeMismatch, VirtualRangeBusy)
from ringsim.shm import NORMAL, TRUSTED, MemoryAuthority, Mapping


def test_alloc_basics():
    auth = MemoryAuthority()
    before = len(auth.table.entries)
    (p0,) = auth.alloc_pages(1, "proxy", NORMAL)
    assert len(auth.table.entries) == before + 1
    assert auth.table.entries[p0].owner == "proxy"
    assert auth.table.entries[p0].world == NORMAL
    space = auth.create_space("proxy", NORMAL)
    m = auth.map_private(space, [p0])
    assert space.access(m.base, PAGE_SIZE).read(0, PAGE_SIZE) == bytes(PAGE_SIZE)


def test_quota_boundary():
    # 4 + 4 against a quota of 6: second call must fail and charge nothing
    auth = MemoryAuthority()
    auth.table.set_quota("enclaveA", 6)
    auth.alloc_pages(4, "enclaveA", TRUSTED)
    with pytest.raises(QuotaExceeded):
        auth.alloc_pages(4, "enclaveA", TRUSTED)
    assert auth.table.used["enclaveA"] == 4


def test_random_alloc_free_ownership_audit():
    # oracle: a reference dict owner -> set(pages); after every step the
    # table must agree and no page may appear under two owners
    rng = random.Random(0xA110C)
    auth = MemoryAuthority(total_pages=512)
    owners = ["a", "b", "c"]
    held = {o: [] for o in owners}
    for _ in range(1000):
        o = rng.choice(owners)
        if held[o] and rng.random() < 0.45:
            k = rng.randrange(1, len(held[o]) + 1)
            batch = [held[o].pop() for _ in range(k)]
            auth.free_pages(batch, o)
        else:
            n = rng.randrange(1, 5)
            try:
                ids = auth.alloc_pages(n, o, rng.choice([NORMAL, TRUSTED]))
            except Exception:
                continue
            held[o].extend(ids)
        seen = {}
        for owner, pages in held.items():
            for pid in pages:
                assert pid not in seen, f"page {pid} owned twice"
                seen[pid] = owner
                assert auth.table.entries[pid].owner == owner
        assert set(auth.table.entries) == set(seen)


# --- shared grant validation ---

def _world_with_private():
    auth = MemoryAuthority()
    normal = auth.alloc_pages(6, "proxy", NORMAL)
    private = auth.alloc_pages(2, "enclaveA", TRUSTED)
    return auth, normal, private


def test_register_well_formed():
    auth, normal, _ = _world_with_private()
    reg = auth.register_shared(normal[:2], 1, 2 * PAGE_SIZE)
    assert reg.state == "validated"
    assert reg.pages == tuple(normal[:2])


def test_register_duplicate_page():
    auth, normal, _ = _world_with_private()
    with pytest.raises(DuplicatePage):
        auth.register_shared([normal[0], normal[0]], 1, 2 * PAGE_SIZE)


def test_register_overlap_with_private():
    auth, normal, private = _world_with_private()
    with pytest.raises(OverlapWithPrivate):
        auth.register_shared([private[0], normal[1]], 1, 2 * PAGE_SIZE)


def test_register_unknown_page():
    auth, normal, _ = _world_with_private()
    with pytest.raises(OverlapWithPrivate):
        auth.register_shared([normal[0], 9999], 1, 2 * PAGE_SIZE)


def test_register_size_mismatch():
    auth, normal, _ = _world_with_private()
    with pytest.raises(SizeMismatch):
        auth.register_shared(normal[:2], 1, 3 * PAGE_SIZE)


def test_register_region_id_busy():
    auth, normal, _ = _world_with_private()
    auth.register_shared(normal[:1], 7, PAGE_SIZE)
    with pytest.raises(RegionIdBusy):
        auth.register_shared(normal[1:2], 7, PAGE_SIZE)


def test_register_not_one_run():
    auth, normal, _ = _world_with_private()
    other = auth.alloc_pages(2, "proxy", NORMAL)
    digest = auth.state_digest()
    for pages in ([normal[1], normal[0]], [normal[0], normal[2]],
                  [normal[5], other[0]], []):
        with pytest.raises(NotOneRun):
            auth.register_shared(pages, 1, len(pages) * PAGE_SIZE)
    assert auth.state_digest() == digest
    assert auth.register_shared(normal[2:5], 1, 3 * PAGE_SIZE).pages == tuple(normal[2:5])


def _register_oracle(auth, used_ids, pages, region_id, expected_size,
                     allocations):
    """Reference checker mirroring the documented validation order."""
    if region_id in used_ids:
        return RegionIdBusy
    if len(set(pages)) != len(pages):
        return DuplicatePage
    for pid in pages:
        info = auth.table.entries.get(pid)
        if info is None or info.world == TRUSTED:
            return OverlapWithPrivate
    if len(pages) * PAGE_SIZE != expected_size:
        return SizeMismatch
    if not any(pages == ids[i:i + len(pages)]
               for ids in allocations for i in range(len(ids))):
        return NotOneRun
    return None


def test_register_random_vs_oracle():
    rng = random.Random(0x5EED)
    auth = MemoryAuthority()
    normal = auth.alloc_pages(10, "proxy", NORMAL)
    trusted = auth.alloc_pages(3, "enclaveA", TRUSTED)
    used_ids: set[int] = set()
    accepts = 0
    rejects: dict[type, int] = {}
    for i in range(600):
        k = rng.randrange(1, 5)
        roll = rng.random()
        if roll < 0.4:
            start = rng.randrange(len(normal) - k + 1)
            pages = normal[start:start + k]  # well-formed candidate: a run
        elif roll < 0.6:
            pages = rng.sample(normal, k)  # scattered, unless a run by chance
        else:
            pool = normal + trusted + [777, 778]  # includes unknown page ids
            pages = [rng.choice(pool) for _ in range(k)]
        region_id = rng.randrange(1, 1000)
        size = rng.choice([k * PAGE_SIZE, (k + 1) * PAGE_SIZE, k * PAGE_SIZE - 1])
        want = _register_oracle(auth, used_ids, pages, region_id, size,
                                (normal, trusted))
        digest = auth.state_digest()
        if want is None:
            reg = auth.register_shared(pages, region_id, size)
            used_ids.add(region_id)
            accepts += 1
            assert reg.state == "validated"
        else:
            with pytest.raises(want) as info:
                auth.register_shared(pages, region_id, size)
            assert type(info.value) is want
            rejects[want] = rejects.get(want, 0) + 1
            # rejection must be atomic: authority metadata bit-identical
            assert auth.state_digest() == digest
    assert accepts > 20 and sum(rejects.values()) > 100
    assert rejects.get(NotOneRun, 0) > 10


def test_register_rejection_writes_nothing():
    auth, normal, private = _world_with_private()
    mon = auth.monitor
    mon.arm()
    start_writes = mon.write_count
    for pages, size, exc in [
        ([normal[0], normal[0]], 2 * PAGE_SIZE, DuplicatePage),
        ([private[0]], PAGE_SIZE, OverlapWithPrivate),
        (normal[:2], PAGE_SIZE, SizeMismatch),
        ([normal[1], normal[0]], 2 * PAGE_SIZE, NotOneRun),
    ]:
        with pytest.raises(exc):
            auth.register_shared(pages, 3, size)
    mon.disarm()
    assert mon.write_count == start_writes


# --- mapping and shared semantics ---

def test_map_region_dual_view():
    auth = MemoryAuthority()
    pages = auth.alloc_pages(2, "proxy", NORMAL)
    auth.register_shared(pages, 1, 2 * PAGE_SIZE)
    encl = auth.create_space("enclaveA", TRUSTED, base_hint=0x11000)
    prox = auth.create_space("proxy", NORMAL, base_hint=0x2000)
    me = auth.map_region(encl, 1, base=0x11000)
    mp = auth.map_region(prox, 1, base=0x2000)
    assert auth.registrations[1].state == "mapped"
    ew = encl.access(0x11000, 2 * PAGE_SIZE, "rw")
    pw = prox.access(0x2000, 2 * PAGE_SIZE, "rw")
    ew.write(0x40, b"ping")
    assert pw.read(0x40, 4) == b"ping"         # both parties observe writes
    pw.write(PAGE_SIZE + 1, b"pong")           # crosses into second page
    assert ew.read(PAGE_SIZE + 1, 4) == b"pong"
    assert me.size == mp.size == 2 * PAGE_SIZE


def test_map_pending_rejected():
    auth = MemoryAuthority()
    pages = auth.alloc_pages(1, "proxy", NORMAL)
    auth.registrations[3] = type(auth.register_shared(pages, 2, PAGE_SIZE))(
        3, tuple(pages), PAGE_SIZE)  # hand-built, still pending
    space = auth.create_space("enclaveA", TRUSTED)
    with pytest.raises(NotValidated):
        auth.map_region(space, 3)


def test_window_is_snapshot():
    auth = MemoryAuthority()
    pages = auth.alloc_pages(1, "proxy", NORMAL)
    space = auth.create_space("proxy", NORMAL)
    m = auth.map_private(space, pages)
    w = space.access(m.base, 64, "rw")
    w.write(0, b"abcd")
    snap = w.read(0, 4)
    w.write(0, b"zzzz")
    assert snap == b"abcd"  # read() returns copies, never live views


def test_window_bounds_and_perms():
    auth = MemoryAuthority()
    pages = auth.alloc_pages(1, "proxy", NORMAL)
    space = auth.create_space("proxy", NORMAL)
    m = auth.map_private(space, pages, perms="r")
    w = space.access(m.base, PAGE_SIZE, "r")
    with pytest.raises(BusFault):
        w.read(PAGE_SIZE - 2, 4)
    with pytest.raises(BusFault):
        space.access(m.base, PAGE_SIZE, "w")  # mapping lacks 'w'
    with pytest.raises(BusFault):
        space.access(m.base - 8, 16)          # straddles unmapped space


def test_mapping_overlap_rejected():
    auth = MemoryAuthority()
    space = auth.create_space("proxy", NORMAL)
    a = auth.alloc_pages(2, "proxy", NORMAL)
    b = auth.alloc_pages(1, "proxy", NORMAL)
    auth.map_private(space, a, base=0x10000)
    with pytest.raises(VirtualRangeBusy):
        auth.map_private(space, b, base=0x10000 + PAGE_SIZE)


def test_space_lookup_vs_linear_oracle():
    rng = random.Random(77)
    auth = MemoryAuthority()
    space = auth.create_space("proxy", NORMAL)
    maps: list[Mapping] = []
    for _ in range(12):
        n = rng.randrange(1, 4)
        pages = auth.alloc_pages(n, "proxy", NORMAL)
        maps.append(auth.map_private(space, pages))

    def linear(vaddr, length):
        for m in maps:
            if m.base <= vaddr and vaddr + length <= m.base + m.size:
                return m
        return None

    for _ in range(4000):
        vaddr = rng.randrange(0, maps[-1].base + 4 * PAGE_SIZE)
        length = rng.randrange(1, 2 * PAGE_SIZE)
        want = linear(vaddr, length)
        if want is None:
            with pytest.raises(BusFault):
                space.access(vaddr, length)
        else:
            w = space.access(vaddr, length)
            assert w.base == vaddr and w.length == length


def test_world_gate_on_access():
    auth = MemoryAuthority()
    tpages = auth.alloc_pages(1, "kernel", TRUSTED)
    nspace = auth.create_space("host", NORMAL)
    # trusted pages can never be mapped into a normal-world space
    with pytest.raises(BusFault):
        auth.map_private(nspace, tpages)


def test_digest_tracks_metadata_not_payload():
    auth = MemoryAuthority()
    pages = auth.alloc_pages(1, "proxy", NORMAL)
    space = auth.create_space("proxy", NORMAL)
    m = auth.map_private(space, pages)
    d0 = auth.state_digest()
    space.access(m.base, 16, "rw").write(0, b"payload bytes!!!")
    assert auth.state_digest() == d0      # payload writes invisible
    auth.alloc_pages(1, "proxy", NORMAL)
    assert auth.state_digest() != d0      # metadata changes visible


def _every_access_faults(w):
    rec = struct.Struct("<I")
    for access in (lambda: w.read(0, 1), lambda: w.write(0, b"x"),
                   lambda: w.unpack(rec, 0), lambda: w.pack(rec, 0, 1)):
        with pytest.raises(BusFault, match="over freed pages"):
            access()


def test_free_drops_the_extent_bytes_while_windows_still_name_it():
    # a shared grant mapped into two spaces, windows held on both sides;
    # freeing one page of the allocation gives back all of its bytes
    auth = MemoryAuthority()
    pages = auth.alloc_pages(3, "proxy", NORMAL, "shm")
    auth.register_shared(pages, 7, 3 * PAGE_SIZE)
    host = auth.create_space("proxy", NORMAL)
    enclave = auth.create_space("enc", TRUSTED, base_hint=0x100000)
    hm, em = auth.map_region(host, 7), auth.map_region(enclave, 7)
    assert hm.extent is em.extent
    windows = [host.access(hm.base, hm.size, "rw"),
               host.access(hm.base + PAGE_SIZE, 16, "rw"),
               enclave.access(em.base + 2 * PAGE_SIZE, PAGE_SIZE, "rw")]
    windows[0].write(0, b"\xa5" * hm.size)
    auth.free_pages([pages[1]], "proxy")
    assert em.extent.broken and em.extent.buf is None
    for w in windows:
        _every_access_faults(w)
    # the other two pages stay allocated until freed, and free cleanly
    assert sorted(auth.table.entries) == [pages[0], pages[2]]
    auth.free_pages([pages[0], pages[2]], "proxy")
    assert not auth.table.entries and auth.table.used["proxy"] == 0


def test_free_of_a_page_listed_twice_changes_nothing():
    # all or none: the repeat is refused like an unowned page, before any
    # page goes
    auth = MemoryAuthority()
    p, q = auth.alloc_pages(2, "proxy", NORMAL, "shm")

    def state():
        return (dict(auth.table.entries), list(auth._free),
                dict(auth.table.used), auth.state_digest())

    before = state()
    with pytest.raises(BusFault, match="twice"):
        auth.free_pages([p, p], "proxy")
    with pytest.raises(BusFault, match="twice"):
        auth.free_pages([q, p, q], "proxy")
    assert state() == before and not auth._extents[p].broken
    auth.free_pages([p, q], "proxy")
    assert not auth.table.entries and auth.table.used["proxy"] == 0


# --- windows against a flat byte model ---

RECORDS = [struct.Struct(f) for f in ("<I", "<II", "<QiI", "<QQ", "<BBiQIQQ30x")]
MAPPED_PAGES = 4


def _span_pages(skew, page_ids, off, n):
    # reference location: walk the access one page span at a time
    pos, left, pids = skew + off, n, []
    while left > 0:
        chunk = min(left, PAGE_SIZE - pos % PAGE_SIZE)
        pids.append(page_ids[pos // PAGE_SIZE])
        pos += chunk
        left -= chunk
    if not pids:  # a zero-length access still names one page
        pids.append(page_ids[min(pos // PAGE_SIZE, len(page_ids) - 1)])
    return tuple(pids)


@st.composite
def _window_op(draw, skew, length):
    kind = draw(st.sampled_from(["read", "write", "unpack", "pack"]))
    if kind in ("unpack", "pack"):
        arg = draw(st.sampled_from(RECORDS))
        n = arg.size
    else:
        arg = n = draw(st.one_of(st.integers(0, 80), st.integers(0, 2 * PAGE_SIZE + 8)))
    # start or end the access at, or a byte either side of, a page
    # edge or a window end; or anywhere, including out of range
    edges = list(range(PAGE_SIZE - skew, length, PAGE_SIZE)) + [0, length]
    edge = draw(st.sampled_from(edges))
    d = draw(st.sampled_from([-1, 0, 1]))
    off = draw(st.one_of(st.just(edge + d), st.just(edge - n + d),
                         st.integers(-16, length + 16)))
    return kind, off, arg


# how the mapped run was allocated: a whole allocation, the middle of a
# larger one, or a whole allocation of page ids reused out of order
LAYOUTS = ("allocated", "inner run", "reused ids")


def _layout_pages(auth, layout, rng):
    if layout == "inner run":
        return auth.alloc_pages(MAPPED_PAGES + 2, "proxy", NORMAL)[1:-1]
    if layout == "reused ids":
        old = auth.alloc_pages(MAPPED_PAGES, "proxy", NORMAL)
        rng.shuffle(old)
        for pid in old:
            auth.free_pages([pid], "proxy")
    return auth.alloc_pages(MAPPED_PAGES, "proxy", NORMAL)


def _assert_refused(auth, space, page_ids, rng):
    # a mapping must be one in-order run of one allocation: shuffled pages
    # and pages of two allocations are refused and change nothing
    shuffled = list(page_ids)
    while shuffled == page_ids:
        rng.shuffle(shuffled)
    two = page_ids[:-1] + auth.alloc_pages(1, "proxy", NORMAL)
    digest = auth.state_digest()
    for pages in (shuffled, two):
        with pytest.raises(NotOneRun):
            auth.map_private(space, pages)
    assert auth.state_digest() == digest and not space.mappings()


@st.composite
def _window_ops(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    # the index of a mapped page freed and allocated again once the window
    # exists, after which every access through the window faults
    freed = draw(st.one_of(st.none(), st.integers(0, MAPPED_PAGES - 1)))
    skew = draw(st.one_of(st.just(0), st.integers(0, PAGE_SIZE - 1)))
    length = draw(st.one_of(
        st.integers(0, MAPPED_PAGES * PAGE_SIZE - skew),
        st.integers(PAGE_SIZE, MAPPED_PAGES * PAGE_SIZE - skew),
        st.builds(lambda k: k * PAGE_SIZE - skew, st.integers(1, MAPPED_PAGES))))
    ops = draw(st.lists(_window_op(skew, length), min_size=8, max_size=16))
    ops += [("read", length, 0), ("write", length, 0)]  # zero-length at the end
    return (layout, freed, skew, length,
            random.Random(draw(st.integers(0, 2**32))), ops)


@settings(max_examples=300, deadline=None)
@given(_window_ops())
def test_window_matches_flat_model(case):
    layout, freed, skew, length, rng, ops = case
    auth = MemoryAuthority()
    page_ids = _layout_pages(auth, layout, rng)
    space = auth.create_space("proxy", NORMAL)
    _assert_refused(auth, space, page_ids, rng)
    m = auth.map_private(space, page_ids)
    assert m.base == 0x10000  # the refusals took no address range
    model = bytearray(rng.randbytes(m.size))
    space.access(m.base, m.size, "w").write(0, model)
    w = space.access(m.base + skew, length, "rw")
    if freed is not None:
        pid = page_ids[freed]
        auth.free_pages([pid], "proxy")
        assert auth.alloc_pages(1, "proxy", NORMAL) == [pid]
        again = auth.map_private(space, [pid])
        space.access(again.base, PAGE_SIZE, "w").write(0, rng.randbytes(PAGE_SIZE))
    wids = page_ids[:(skew + max(length, 1) - 1) // PAGE_SIZE + 1]
    calls = []
    auth.monitor.on_access = lambda sp, vaddr, n, mode, pids: calls.append(
        (vaddr, n, mode, pids))
    auth.monitor.arm()
    for kind, off, arg in ops:
        n = arg if isinstance(arg, int) else arg.size
        data = rng.randbytes(n)
        before = len(calls)
        if freed is not None or off < 0 or off + n > length:
            with pytest.raises(BusFault):
                if kind == "read":
                    w.read(off, n)
                elif kind == "write":
                    w.write(off, data)
                elif kind == "unpack":
                    w.unpack(arg, off)
                else:
                    w.pack(arg, off, *arg.unpack(data))
            assert len(calls) == before
        else:
            lo = skew + off
            if kind == "read":
                assert w.read(off, n) == bytes(model[lo:lo + n])
            elif kind == "unpack":
                assert w.unpack(arg, off) == arg.unpack(model[lo:lo + n])
            elif kind == "write":
                w.write(off, data)
                model[lo:lo + n] = data
            else:
                values = arg.unpack(data)
                w.pack(arg, off, *values)
                model[lo:lo + n] = arg.pack(*values)  # pad bytes are zeroed
            mode = "r" if kind in ("read", "unpack") else "w"
            assert calls[before:] == [(m.base + skew + off, n, mode,
                                       _span_pages(skew, wids, off, n))]
        # the mapped bytes, read from the extent without the monitor; a
        # freed allocation holds none
        if freed is None:
            assert m.extent.buf[m.extent_off:m.extent_off + m.size] == model
        else:
            assert m.extent.buf is None
