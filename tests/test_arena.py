"""Staging arenas: size classes, bounds and poisoning, grant-driven refills."""
import random

import pytest

from ringsim.arena import ArenaPool, _greedy_classes, size_class
from ringsim.config import INIT_SHM_ENV, PAGE_SIZE, SIZE_CLASSES
from ringsim.errors import ArenaFull, DoubleFree, PoolExhausted, UseAfterFree
from ringsim.promise import FAILED, FULFILLED, PENDING

from helpers import FakeHandle

def _pool():
    fh = FakeHandle()
    return ArenaPool(fh), fh


def _get(pool, fh, size):
    p = pool.request_arena(size)
    if p.state == PENDING:
        fh.grant()
    assert p.state == FULFILLED
    return p.value


def test_size_class_mapping():
    assert size_class(1) == 256
    assert size_class(256) == 256
    assert size_class(257) == 512
    assert size_class(4096) == 4096
    assert size_class(65536) == 65536
    assert size_class(65537) == 17 * PAGE_SIZE  # oversized: page rounded
    with pytest.raises(ValueError):
        size_class(0)
    with pytest.raises(ValueError):
        size_class(-4)


def test_greedy_split_conserves():
    rng = random.Random(11)
    for _ in range(200):
        length = 256 * rng.randrange(1, 600)
        chunks = _greedy_classes(length)
        assert sum(chunks) == length
        assert all(c in SIZE_CLASSES for c in chunks)


def test_write_read_and_addr():
    pool, fh = _pool()
    a = _get(pool, fh, 1024)
    a.write(0, b"\x5a" * 64)
    assert a.read(0, 64) == b"\x5a" * 64
    assert a.addr_of(0) == a.block.entry.enclave_base + a.block_offset
    with pytest.raises(ArenaFull):
        a.write(a.capacity - 3, b"xxxx")
    with pytest.raises(ArenaFull):
        a.read(-1, 4)


def test_free_poisons_and_double_free():
    pool, fh = _pool()
    a = _get(pool, fh, 256)
    pool.free_arena(a)
    for op in (lambda: a.read(0, 1), lambda: a.write(0, b"x"),
               lambda: a.addr_of(0)):
        with pytest.raises(UseAfterFree):
            op()
    with pytest.raises(DoubleFree):
        pool.free_arena(a)


def test_bins_are_lifo_and_cross_class():
    pool, fh = _pool()
    a = _get(pool, fh, 200)
    ident = (a.block, a.block_offset)
    pool.free_arena(a)
    b = _get(pool, fh, 200)               # same chunk comes straight back
    assert (b.block, b.block_offset) == ident
    pool.free_arena(b)
    c = _get(pool, fh, 100)               # smaller request, larger bin is fine
    assert c.capacity == 256 and (c.block, c.block_offset) == ident


def test_cold_pool_parks_until_grant():
    pool, fh = _pool()
    p = pool.request_arena(500)
    assert p.state == PENDING and pool.waiting == 1
    assert fh.requests and fh.requests[0][0] == PAGE_SIZE
    fh.grant()
    assert p.state == FULFILLED and p.value.capacity == 512
    assert pool.waiting == 0


def test_refused_refill_fails_waiters():
    pool, fh = _pool()
    p = pool.request_arena(100)
    q = pool.request_arena(100)
    fh.refuse()
    assert p.state == FAILED and isinstance(p.error, PoolExhausted)
    assert q.state == FAILED
    assert pool.waiting == 0


def test_single_refill_in_flight():
    pool, fh = _pool()
    p = pool.request_arena(100)           # cls 256
    q = pool.request_arena(5000)          # cls 8192
    assert len(fh.requests) == 1          # second request rides the first
    fh.grant()                            # 4096B: serves p, q does not fit
    assert p.state == FULFILLED and q.state == PENDING
    assert len(fh.requests) == 1          # follow-up refill for q
    assert fh.requests[0][0] == 8192
    fh.grant()
    assert q.state == FULFILLED and q.value.capacity == 8192
    rec, bins, live = pool.accounting()
    assert rec == 4096 + 8192 and rec == bins + live


def test_prefill_census():
    pool, fh = _pool()
    pool.prefill({INIT_SHM_ENV: "65536"})
    assert fh.requests[0][0] == 65536
    fh.grant()
    assert pool.bin_census() == {4096: 4, 16384: 3}
    assert pool.accounting() == (65536, 65536, 0)
    p = pool.request_arena(1000)          # served from the 4096 bin
    assert p.state == FULFILLED and p.value.capacity == 4096


def test_prefill_env_absent_or_zero():
    pool, fh = _pool()
    pool.prefill({})
    pool.prefill({INIT_SHM_ENV: "0"})
    assert fh.requests == []


def test_prefill_grant_serves_parked_demand():
    pool, fh = _pool()
    p = pool.request_arena(1000)          # queues a demand refill first
    pool.prefill({INIT_SHM_ENV: "65536"})
    assert len(fh.requests) == 2
    fh.grant(1)                           # prefill lands before the refill
    assert p.state == FULFILLED and p.value.capacity == 4096
    fh.grant(0)                           # late refill goes entirely to bins
    rec, bins, live = pool.accounting()
    assert rec == 65536 + 4096 and rec == bins + live


def test_conservation_under_random_traffic():
    pool, fh = _pool()
    rng = random.Random(23)
    live = []
    pending = []
    for _ in range(600):
        r = rng.random()
        if r < 0.45:
            pending.append(pool.request_arena(rng.randrange(1, 20000)))
        elif r < 0.7 and fh.requests:
            fh.grant(rng.randrange(len(fh.requests)))
        elif live:
            pool.free_arena(live.pop(rng.randrange(len(live))))
        still = []
        for p in pending:
            if p.state == FULFILLED:
                live.append(p.value)
            else:
                still.append(p)
        pending = still
        rec, bins, used = pool.accounting()
        assert rec == bins + used
        assert used == sum(a.capacity for a in live)
    while fh.requests:
        fh.grant()
    assert all(p.state == FULFILLED for p in pending)
