"""Staging arenas: size classes, bounds and poisoning, grant-driven refills."""
import random

import pytest

from ringsim.arena import ArenaPool, _greedy_classes, size_class
from ringsim.config import INIT_SHM_ENV, PAGE_SIZE, SIZE_CLASSES
from ringsim.errors import ArenaFull, DoubleFree, PoolExhausted, UseAfterFree
from ringsim.promise import FAILED, PENDING, Promise, PromisePool

from helpers import FakeHandle


class _Op(Promise):
    """A staged call as the arena pool sees it: op.arena arrives with its
    staging step (counted here) queued, or a refused grant fails it."""

    __slots__ = ("pool", "arena", "staged")

    def _resume(self, _pool):
        self.staged += 1

    def refuse(self, error):
        self.pool.fail(self, error)


def _pool(cap: int = 256):
    fh = FakeHandle(PromisePool(max_outstanding=cap))
    return ArenaPool(fh), fh


def _request(pool, fh, size):
    op = fh.pool.create(_Op)
    op.pool, op.arena, op.staged = fh.pool, None, 0
    assert pool.request_arena(op, size) is op
    return op


def _get(pool, fh, size):
    op = _request(pool, fh, size)
    if op.arena is None:
        fh.grant()
    assert op.arena is not None
    return op.arena


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
    p = _request(pool, fh, 500)
    assert p.arena is None and pool.waiting == 1
    assert fh.requests and fh.requests[0][0] == PAGE_SIZE
    fh.grant()
    assert p.arena.capacity == 512 and p.staged == 1
    assert p.state == PENDING             # the op is its caller's promise
    assert pool.waiting == 0


def test_binned_request_queues_the_staging_step():
    pool, fh = _pool()
    pool.free_arena(_get(pool, fh, 256))
    p = _request(pool, fh, 256)
    assert p.arena is not None and p.staged == 0
    assert fh.pool.deferred_count == 1    # staged at the next drain
    fh.pool.run_deferred()
    assert p.staged == 1 and fh.pool.outstanding == 2


def test_withdrawn_op_leaves_the_queue_and_the_grant():
    pool, fh = _pool()
    p = _request(pool, fh, 100)
    q = _request(pool, fh, 100)
    pool.withdraw(p)
    assert pool.waiting == 1
    fh.grant()
    assert p.arena is None and q.arena is not None
    rec, bins, live = pool.accounting()
    assert live == q.arena.capacity and rec == bins + live


def test_refused_refill_fails_waiters():
    pool, fh = _pool()
    p = _request(pool, fh, 100)
    q = _request(pool, fh, 100)
    fh.refuse()
    assert p.state == FAILED and isinstance(p.error, PoolExhausted)
    assert q.state == FAILED
    assert pool.waiting == 0 and fh.pool.outstanding == 0


def test_single_refill_in_flight():
    pool, fh = _pool()
    p = _request(pool, fh, 100)           # cls 256
    q = _request(pool, fh, 5000)          # cls 8192
    assert len(fh.requests) == 1          # second request rides the first
    fh.grant()                            # 4096B: serves p, q does not fit
    assert p.arena is not None and q.arena is None
    assert len(fh.requests) == 1          # follow-up refill for q
    assert fh.requests[0][0] == 8192
    fh.grant()
    assert q.arena.capacity == 8192
    rec, bins, live = pool.accounting()
    assert rec == 4096 + 8192 and rec == bins + live


def test_prefill_census():
    pool, fh = _pool()
    pool.prefill({INIT_SHM_ENV: "65536"})
    assert fh.requests[0][0] == 65536
    fh.grant()
    assert pool.bin_census() == {4096: 4, 16384: 3}
    assert pool.accounting() == (65536, 65536, 0)
    p = _request(pool, fh, 1000)          # served from the 4096 bin
    assert p.arena.capacity == 4096


def test_prefill_env_absent_or_zero():
    pool, fh = _pool()
    pool.prefill({})
    pool.prefill({INIT_SHM_ENV: "0"})
    assert fh.requests == []


def test_prefill_grant_serves_parked_demand():
    pool, fh = _pool()
    p = _request(pool, fh, 1000)          # queues a demand refill first
    pool.prefill({INIT_SHM_ENV: "65536"})
    assert len(fh.requests) == 2
    fh.grant(1)                           # prefill lands before the refill
    assert p.arena.capacity == 4096 and p.staged == 1
    fh.grant(0)                           # late refill goes entirely to bins
    rec, bins, live = pool.accounting()
    assert rec == 65536 + 4096 and rec == bins + live


def test_conservation_under_random_traffic():
    pool, fh = _pool(cap=600)             # every op stays pending
    rng = random.Random(23)
    live = []
    pending = []
    for _ in range(600):
        r = rng.random()
        if r < 0.45:
            pending.append(_request(pool, fh, rng.randrange(1, 20000)))
        elif r < 0.7 and fh.requests:
            fh.grant(rng.randrange(len(fh.requests)))
        elif live:
            pool.free_arena(live.pop(rng.randrange(len(live))))
        still = []
        for p in pending:
            if p.arena is not None:
                live.append(p.arena)
            else:
                still.append(p)
        pending = still
        rec, bins, used = pool.accounting()
        assert rec == bins + used
        assert used == sum(a.capacity for a in live)
    while fh.requests:
        fh.grant()
    assert all(p.arena is not None for p in pending)
