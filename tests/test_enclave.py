"""Hardened enclave-side ring API: one-call submission and parking, id
laundering, translation.

Translation is checked against a linear-scan oracle; the completion path is
attacked directly with duplicate, unknown, and flooded user_data values
produced straight onto the shared CQ.
"""
import random

import pytest

from ringsim.config import PAGE_SIZE, SimConfig
from ringsim.enclave import SqeArgs, TranslationEntry
from ringsim.errors import Untranslatable
from ringsim.ring import Cqe

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


# --- submission and parking ---

def test_reservation_capacity():
    _, h, host_sq, _ = _world()
    receipts = [h.prep_and_submit(2, SqeArgs(), tag) for tag in range(8)]
    assert None not in receipts
    assert h.prep_and_submit(2, SqeArgs(), 8) is None  # 9th parks
    assert h.parked_count == 1 and len(h._table) == 8
    assert len(host_sq.consume_batch(16)) == 8


def test_submit_publishes_and_user_data_monotonic():
    _, h, host_sq, _ = _world()
    receipts = [h.prep_and_submit(2, SqeArgs(fd=3, len=64, off=i * 64), i)
                for i in range(6)]
    seen = host_sq.consume_batch(8)
    assert [s.user_data for s in seen] == receipts
    assert all(b > a for a, b in zip(receipts, receipts[1:]))


def test_prep_translates_buffer_addresses():
    _, h, host_sq, _ = _world()
    h.insert_translation(TranslationEntry(0x11000, 0x2000, 0x1000))
    h.prep_and_submit(2, SqeArgs(fd=3, addr=0x11040, len=64), 0)
    sqe = host_sq.consume_batch(1)[0]
    assert sqe.addr == 0x2040  # host sees proxy-space address
    with pytest.raises(Untranslatable):
        h.prep_and_submit(2, SqeArgs(addr=0x11FF0, len=64), 0)  # straddles


def test_untranslatable_prep_gives_its_reservation_up():
    # a refused buffer leaves the table, the ring and the parked queue as
    # they were, and the next submission still publishes
    _, h, host_sq, _ = _world()
    enters = h._kernel.enters
    with pytest.raises(Untranslatable):
        h.prep_and_submit(2, SqeArgs(fd=3, addr=0x77000, len=16), 1)
    assert (len(h._table), h.parked_count, enters) == (0, 0, [])
    assert host_sq.consume_batch(8) == []
    receipt = h.prep_and_submit(2, SqeArgs(), 2)
    assert [s.user_data for s in host_sq.consume_batch(8)] == [receipt]
    assert len(enters) == 1


def test_untranslatable_parked_entry_raises_once():
    _, h, host_sq, host_cq = _world()
    for tag in range(8):
        h.prep_and_submit(2, SqeArgs(), tag)
    h.prep_and_submit(2, SqeArgs(fd=3, addr=0x77000, len=16), 8)  # parks
    h.prep_and_submit(2, SqeArgs(), 9)
    h.prep_and_submit(2, SqeArgs(), 10)
    assert h.parked_count == 3
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, 0, 0))
    while h.peek_cqe() is not None:
        h.consume_cqe()
    enters = len(h._kernel.enters)
    with pytest.raises(Untranslatable):
        h.pump_parked()
    assert h.parked_count == 2 and len(h._kernel.enters) == enters
    h.pump_parked()  # the entries behind it go out
    assert h.parked_count == 0 and len(h._kernel.enters) == enters + 1
    assert sorted(rec.tag for rec in h._table.values()) == [9, 10]
    assert len(host_sq.consume_batch(8)) == 2

def test_refused_produce_parks_and_records_nothing():
    # the room check and the produce each load the shared head; a head that
    # moves back between them parks the submission, with no id spent
    _, h, host_sq, _ = _world()
    h._sq.produce = lambda sqe: False
    assert h.prep_and_submit(2, SqeArgs(), 1) is None
    assert h.prep_and_submit(2, SqeArgs(), 2) is None
    h.pump_parked()
    assert (h.parked_count, len(h._table), h._kernel.enters) == (2, 0, [])
    del h._sq.produce
    h.pump_parked()
    assert [s.user_data for s in host_sq.consume_batch(8)] == [1, 2]
    assert [h._table[r].tag for r in (1, 2)] == [1, 2]
    assert h._kernel.enters == ["encl"]


# --- completion hardening ---

def test_completion_roundtrip_and_tag():
    _, h, _, host_cq = _world()
    receipt = h.prep_and_submit(2, SqeArgs(), caller_tag=42)
    host_cq.produce(Cqe(receipt, 123, 0))
    c = h.peek_cqe()
    assert (c.tag, c.result, c.internal_id) == (42, 123, receipt)
    h.consume_cqe()
    assert h.peek_cqe() is None


def test_duplicate_completion_dropped():
    _, h, _, host_cq = _world()
    receipt = h.prep_and_submit(2, SqeArgs(), 7)
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
    receipt = h.prep_and_submit(2, SqeArgs(), 9)
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
    receipt = h.prep_and_submit(2, SqeArgs(), 1)
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
    receipt = h.prep_and_submit(2, SqeArgs(), 3)
    h.retire(receipt)
    host_cq.produce(Cqe(receipt, 99, 0))
    assert h.peek_cqe() is None  # retired id, straggler dropped


def test_tag_collisions_disambiguated_by_internal_id():
    _, h, host_sq, host_cq = _world()
    results = {}

    def answer(sqe):
        host_cq.produce(Cqe(sqe.user_data, sqe.user_data & 0xFFFF, 0))
        c = h.peek_cqe()
        results[c.internal_id] = c.result
        h.consume_cqe()

    for i in range(100):
        if i >= CFG.sq_entries:  # ring full: the host frees one slot
            answer(host_sq.consume_batch(1)[0])
        assert h.prep_and_submit(2, SqeArgs(off=i), caller_tag=5) is not None
    for sqe in host_sq.consume_batch(8):
        answer(sqe)
    assert len(results) == 100  # every submission answered exactly once
    assert all(rid & 0xFFFF == res for rid, res in results.items())


def test_pending_table_bounded():
    # the table holds in-flight records only; when it is full, new work
    # parks instead of evicting a caller whose completion is still owed
    cfg = SimConfig(sq_entries=8, cq_entries=8, max_outstanding_promises=20)
    _, h, host_sq, host_cq = ring_world(cfg)
    receipts = []
    for i in range(20):
        if i % 8 == 0:
            host_sq.consume_batch(8)  # host consumes but never completes
        receipts.append(h.prep_and_submit(2, SqeArgs(), i))
    host_sq.consume_batch(8)
    assert None not in receipts and len(h._table) == 20
    assert h.prep_and_submit(2, SqeArgs(), 99) is None  # ring empty, table full
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
        r = h.prep_and_submit(2, SqeArgs(), i)
        if r is not None:
            receipts[r] = i
    assert h.parked_count == 4
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, 0, 0))
    while h.peek_cqe() is not None:
        h.consume_cqe()
    h.pump_parked()
    assert h.parked_count == 0
    pushed = host_sq.consume_batch(8)
    assert [h._table[s.user_data].tag for s in pushed] == [8, 9, 10, 11]


def test_doorbell_rings_once_per_publish_that_moves_the_tail():
    _, h, host_sq, host_cq = _world()
    enters = h._kernel.enters
    h.prep_and_submit(2, SqeArgs(), caller_tag=1)
    assert enters == ["encl"]
    h.prep_and_submit(2, SqeArgs(), caller_tag=2)
    assert len(enters) == 2
    assert len(host_sq.consume_batch(8)) == 2
    # nothing parked: a pump is silent
    h.pump_parked()
    assert len(enters) == 2
    # fill the ring and park two: a submission that parks rings nothing
    for tag in range(10, 20):  # 8-slot ring: the ninth and tenth park
        h.prep_and_submit(2, SqeArgs(), tag)
    assert h.parked_count == 2 and len(enters) == 10
    h.pump_parked()
    assert h.parked_count == 2 and len(enters) == 10  # ring still full
    for sqe in host_sq.consume_batch(8):
        host_cq.produce(Cqe(sqe.user_data, 0, 0))
    while h.peek_cqe() is not None:
        h.consume_cqe()
    # the pump that pushes both parked submissions rings exactly once
    h.pump_parked()
    assert h.parked_count == 0 and len(enters) == 11
    assert len(host_sq.consume_batch(8)) == 2
