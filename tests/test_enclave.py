"""Hardened enclave-side ring API: reservations, id laundering, translation.

Translation is checked against a linear-scan oracle; the completion path is
attacked directly with duplicate, unknown, and flooded user_data values
produced straight onto the shared CQ.
"""
import random
import struct

import pytest

from ringsim.config import PAGE_SIZE, SimConfig, step_bounds
from ringsim.enclave import SqeArgs, SqeId, TranslationEntry
from ringsim.errors import StaleSqeId, Untranslatable
from ringsim.ring import Cqe, Sqe
from ringsim.shm import NORMAL

from helpers import ring_world

CFG = SimConfig(sq_entries=8, cq_entries=8)


def _world():
    return ring_world(CFG)


# --- address translation ---

def test_translation_worked_example():
    _, h, _, _ = _world()
    h.insert_translation(TranslationEntry(0x11000, 0x2000, 0x1000))
    assert h.translate_addr(0x11040) == 0x2040
    assert h.translate_addr(0x11000) == 0x2000
    assert h.translate_addr(0x11FFF) == 0x2FFF
    with pytest.raises(Untranslatable):
        h.translate_addr(0x12000)  # one past the end


def test_translation_empty_table():
    _, h, _, _ = _world()
    with pytest.raises(Untranslatable):
        h.translate_addr(0x1000)


def test_translation_disjointness_enforced():
    _, h, _, _ = _world()
    h.insert_translation(TranslationEntry(0x10000, 0x1000, 0x2000))
    for base in (0x10000, 0x11FFF, 0xF000 + 1):
        with pytest.raises(Untranslatable):
            h.insert_translation(TranslationEntry(base, 0x9000, 0x1001))
    h.insert_translation(TranslationEntry(0x12000, 0x9000, 0x1000))  # adjacent ok


def _random_table(rng, n):
    entries = []
    base = 0x10000
    for _ in range(n):
        base += rng.randrange(0, 0x3000) + PAGE_SIZE
        size = rng.randrange(1, 5) * PAGE_SIZE
        entries.append(TranslationEntry(base, rng.randrange(1, 1 << 30), size))
        base += size
    return entries


def _linear_translate(entries, addr):
    for e in entries:
        if e.enclave_base <= addr < e.enclave_base + e.size:
            return e.proxy_base + (addr - e.enclave_base)
    return None


def test_translation_vs_linear_oracle():
    rng = random.Random(0x7AB1E)
    for _ in range(60):
        _, h, _, _ = _world()
        entries = _random_table(rng, rng.randrange(1, 12))
        for e in rng.sample(entries, len(entries)):  # insertion order shuffled
            h.insert_translation(e)
        lo = entries[0].enclave_base - PAGE_SIZE
        hi = entries[-1].enclave_base + entries[-1].size + PAGE_SIZE
        for _ in range(40):
            addr = rng.randrange(lo, hi)
            want = _linear_translate(entries, addr)
            if want is None:
                with pytest.raises(Untranslatable):
                    h.translate_addr(addr)
            else:
                assert h.translate_addr(addr) == want


# --- deep translation ---

def _block_with_vector(h, auth, records):
    """Map a scratch page into the enclave space and write (addr,len) records."""
    espace = h._space
    pages = auth.alloc_pages(1, "encl", NORMAL, "vec")
    m = auth.map_private(espace, pages)
    win = espace.access(m.base, PAGE_SIZE, "rw")
    for i, (addr, ln) in enumerate(records):
        win.write(i * 16, struct.pack("<QQ", addr, ln))
    return m.base, win


def test_deep_translate_rewrites_all():
    auth, h, _, _ = _world()
    h.insert_translation(TranslationEntry(0x11000, 0x2000, 0x1000))
    recs = [(0x11000, 16), (0x11040, 32), (0x11800, 1)]
    vec, win = _block_with_vector(h, auth, recs)
    h.deep_translate(vec, 3)
    got = [struct.unpack("<QQ", win.read(i * 16, 16)) for i in range(3)]
    assert got == [(0x2000, 16), (0x2040, 32), (0x2800, 1)]


def test_deep_translate_all_or_nothing():
    auth, h, _, _ = _world()
    h.insert_translation(TranslationEntry(0x11000, 0x2000, 0x1000))
    recs = [(0x11000, 16), (0x99999, 8), (0x11040, 4)]  # middle untranslatable
    vec, win = _block_with_vector(h, auth, recs)
    before = win.read(0, 3 * 16)
    with pytest.raises(Untranslatable):
        h.deep_translate(vec, 3)
    assert win.read(0, 3 * 16) == before  # snapshot restored


def test_deep_translate_bounds():
    auth, h, _, _ = _world()
    h.deep_translate(0x11000, 0)  # n=0 validates nothing, touches nothing
    with pytest.raises(Untranslatable):
        h.deep_translate(0x11000, 65)  # private length cap
    with pytest.raises(Untranslatable):
        h.deep_translate(0x11000, -1)


# --- reservations and submission ---

def test_reservation_capacity():
    _, h, _, _ = _world()
    sids = [h.try_get_sqe() for _ in range(8)]
    assert all(s is not None for s in sids)
    assert h.try_get_sqe() is None  # 9th refused before any submit


def test_submit_publishes_and_user_data_monotonic():
    _, h, host_sq, _ = _world()
    receipts = []
    for i in range(6):
        sid = h.try_get_sqe()
        receipts.append(h.prep_and_submit(sid, 2, SqeArgs(fd=3, len=64,
                                                          off=i * 64), i))
    seen = host_sq.consume_batch(8)
    assert [s.user_data for s in seen] == receipts
    assert all(b > a for a, b in zip(receipts, receipts[1:]))


def test_stale_sqe_id():
    _, h, _, _ = _world()
    sid = h.try_get_sqe()
    h.prep_and_submit(sid, 1, SqeArgs(), 0)
    with pytest.raises(StaleSqeId):
        h.prep_and_submit(sid, 1, SqeArgs(), 0)
    with pytest.raises(StaleSqeId):
        h.prep_and_submit(SqeId(999), 1, SqeArgs(), 0)


def test_out_of_order_submission_contiguous_prefix():
    _, h, host_sq, _ = _world()
    s1, s2, s3 = (h.try_get_sqe() for _ in range(3))
    h.prep_and_submit(s2, 2, SqeArgs(), 22)
    assert host_sq.consume_batch(8) == []      # gap at s1 holds the tail
    h.prep_and_submit(s1, 2, SqeArgs(), 11)
    assert len(host_sq.consume_batch(8)) == 2  # prefix s1,s2 published
    h.prep_and_submit(s3, 2, SqeArgs(), 33)
    assert len(host_sq.consume_batch(8)) == 1


def test_prep_translates_buffer_addresses():
    _, h, host_sq, _ = _world()
    h.insert_translation(TranslationEntry(0x11000, 0x2000, 0x1000))
    sid = h.try_get_sqe()
    h.prep_and_submit(sid, 2, SqeArgs(fd=3, addr=0x11040, len=64), 0)
    sqe = host_sq.consume_batch(1)[0]
    assert sqe.addr == 0x2040  # host sees proxy-space address
    sid = h.try_get_sqe()
    with pytest.raises(Untranslatable):
        h.prep_and_submit(sid, 2, SqeArgs(addr=0x11FF0, len=64), 0)  # straddles


def test_untranslatable_prep_gives_its_reservation_up():
    _, h, host_sq, _ = _world()
    sid = h.try_get_sqe()
    with pytest.raises(Untranslatable):
        h.prep_and_submit(sid, 2, SqeArgs(fd=3, addr=0x77000, len=16), 1)
    for tag in range(2, 9):  # fills the 8-entry ring behind the failed one
        h.prep_and_submit(h.try_get_sqe(), 2, SqeArgs(), tag)
    assert len(host_sq.consume_batch(8)) == 7
    assert h.try_get_sqe() is not None
    with pytest.raises(StaleSqeId):
        h.prep_and_submit(sid, 2, SqeArgs(), 9)  # the failed id stays spent


# --- completion hardening ---

def test_completion_roundtrip_and_tag():
    _, h, _, host_cq = _world()
    sid = h.try_get_sqe()
    receipt = h.prep_and_submit(sid, 2, SqeArgs(), caller_tag=42)
    host_cq.produce(Cqe(receipt, 123, 0))
    c = h.peek_cqe()
    assert (c.tag, c.result, c.internal_id) == (42, 123, receipt)
    h.consume_cqe()
    assert h.peek_cqe() is None


def test_duplicate_completion_dropped():
    _, h, _, host_cq = _world()
    sid = h.try_get_sqe()
    receipt = h.prep_and_submit(sid, 2, SqeArgs(), 7)
    host_cq.produce(Cqe(receipt, 1, 0))
    host_cq.produce(Cqe(receipt, 2, 0))  # double completion
    c = h.peek_cqe()
    assert c.result == 1
    h.consume_cqe()
    assert h.peek_cqe() is None          # duplicate silently dropped
    assert len(h.delivered_log) == 1


def test_unknown_flood_bounded_by_drop_budget():
    _, h, _, host_cq = _world()
    for i in range(8):
        host_cq.produce(Cqe((1 << 63) + i, 0, 0))
    assert h.peek_cqe() is None
    assert h.cq_backlog() == 0  # exactly drop_budget junk drained in one call


def test_flood_then_real_completion():
    cfg = SimConfig(sq_entries=8, cq_entries=8, drop_budget=2)
    _, h, _, host_cq = ring_world(cfg)
    sid = h.try_get_sqe()
    receipt = h.prep_and_submit(sid, 2, SqeArgs(), 9)
    for i in range(5):
        host_cq.produce(Cqe((1 << 63) + i, 0, 0))
    host_cq.produce(Cqe(receipt, 55, 0))
    # budget 2 per call: two calls drain 4 junk, third finds the real one
    assert h.peek_cqe() is None
    assert h.peek_cqe() is None
    c = h.peek_cqe()
    assert c is not None and c.result == 55


def test_front_caching_no_shared_reads():
    auth, h, _, host_cq = _world()
    sid = h.try_get_sqe()
    receipt = h.prep_and_submit(sid, 2, SqeArgs(), 1)
    host_cq.produce(Cqe(receipt, 10, 0))
    first = h.peek_cqe()
    mon = auth.monitor
    mon.arm()
    mark = mon.mark()
    again = h.peek_cqe()
    assert mon.delta(mark) == 0  # repeated peek never touches shared memory
    mon.disarm()
    assert again is first


def test_retire_drops_late_completion():
    _, h, _, host_cq = _world()
    sid = h.try_get_sqe()
    receipt = h.prep_and_submit(sid, 2, SqeArgs(), 3)
    h.retire(receipt)
    host_cq.produce(Cqe(receipt, 99, 0))
    assert h.peek_cqe() is None  # retired id, straggler dropped


def test_tag_collisions_disambiguated_by_internal_id():
    _, h, host_sq, host_cq = _world()
    results = {}
    for i in range(100):
        sid = h.try_get_sqe()
        while sid is None:
            # drain a slot by consuming host-side and completing
            sqe = host_sq.consume_batch(1)[0]
            host_cq.produce(Cqe(sqe.user_data, sqe.user_data & 0xFFFF, 0))
            c = h.peek_cqe()
            results[c.internal_id] = c.result
            h.consume_cqe()
            sid = h.try_get_sqe()
        h.prep_and_submit(sid, 2, SqeArgs(off=i), caller_tag=5)  # same tag
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, sqe.user_data & 0xFFFF, 0))
        c = h.peek_cqe()
        results[c.internal_id] = c.result
        h.consume_cqe()
    assert len(results) == 100  # every submission answered exactly once
    assert all(rid & 0xFFFF == res for rid, res in results.items())


def test_pending_table_bounded():
    # the table holds in-flight records only; when it is full, new work
    # parks instead of evicting a caller whose completion is still owed
    cfg = SimConfig(sq_entries=8, cq_entries=8, max_outstanding_promises=20)
    _, h, host_sq, host_cq = ring_world(cfg)
    receipts = []
    while True:
        sid = h.try_get_sqe()
        if sid is None:
            host_sq.consume_batch(8)  # host consumes but never completes
            h.pump_parked()
            sid = h.try_get_sqe()
            if sid is None:
                break
        receipts.append(h.prep_and_submit(sid, 2, SqeArgs(), len(receipts)))
    assert len(receipts) == len(h._table) == 20
    assert h.submit_or_park(2, SqeArgs(), tag=99) is None
    assert h.parked_count == 1
    host_cq.produce(Cqe(receipts[0], 7, 0))  # first caller's late completion
    c = h.peek_cqe()
    assert (c.tag, c.result, c.internal_id) == (0, 7, receipts[0])
    h.consume_cqe()
    h.pump_parked()                          # delivery freed one record
    assert h.parked_count == 0
    published = host_sq.consume_batch(8)
    assert len(published) == 1 and published[0].user_data > receipts[-1]
    assert len(h._table) == 20


def test_parking_drains_after_capacity_frees():
    _, h, host_sq, host_cq = _world()
    receipts = {}
    for i in range(12):  # 8-slot ring: 4 must park
        r = h.submit_or_park(2, SqeArgs(), tag=i)
        if r is not None:
            receipts[r] = i
    assert h.parked_count == 4
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, 0, 0))
    while h.peek_cqe() is not None:
        h.consume_cqe()
    h.pump_parked()
    assert h.parked_count == 0
    assert len(host_sq.consume_batch(8)) == 4


def test_doorbell_rings_once_per_publish_that_moves_the_tail():
    _, h, host_sq, host_cq = _world()
    enters = h._kernel.enters
    h.prep_and_submit(h.try_get_sqe(), 2, SqeArgs(), caller_tag=1)
    assert enters == ["encl"]
    # a fill behind an earlier open reservation publishes nothing
    first, second = h.try_get_sqe(), h.try_get_sqe()
    h.prep_and_submit(second, 2, SqeArgs(), caller_tag=3)
    assert len(enters) == 1 and h.unpublished_count == 2
    # closing the gap publishes both entries behind one doorbell
    h.prep_and_submit(first, 2, SqeArgs(), caller_tag=2)
    assert len(enters) == 2 and h.unpublished_count == 0
    assert len(host_sq.consume_batch(8)) == 3
    # nothing parked or unpublished: a pump is silent
    h.pump_parked()
    assert len(enters) == 2
    # fill the ring, park one, then free the ring: the pump that publishes
    # the parked submission rings exactly once
    for tag in range(10, 19):  # 8-slot ring: the ninth parks
        h.submit_or_park(2, SqeArgs(), tag)
    assert h.parked_count == 1 and len(enters) == 10
    h.pump_parked()
    assert h.parked_count == 1 and len(enters) == 10  # ring still full
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, 0, 0))
    while h.peek_cqe() is not None:
        h.consume_cqe()
    h.pump_parked()
    assert h.parked_count == 0 and len(enters) == 11
    assert len(host_sq.consume_batch(8)) == 1
