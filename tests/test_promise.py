"""Promise pool: bounded allocation, ordered cascades, failure propagation."""
import pytest

from ringsim.arena import ArenaPool
from ringsim.errors import PoolExhausted
from ringsim.promise import (FAILED, FULFILLED, PENDING, PromisePool,
                             async_read, async_write, poll)

from helpers import FakeHandle, FakeRT


def test_chain_runs_in_order():
    pool = PromisePool()
    order = []
    root = pool.create()
    c1 = pool.then(root, lambda v: order.append(("c1", v)) or v + 1)
    c2 = pool.then(c1, lambda v: order.append(("c2", v)) or v + 1)
    c3 = pool.then(c2, lambda v: order.append(("c3", v)) or v + 1)
    pool.fulfill(root, 10)
    assert order == [("c1", 10), ("c2", 11), ("c3", 12)]
    assert c3.state == FULFILLED and c3.value == 13


def test_failure_short_circuits_chain():
    pool = PromisePool()
    ran = []
    cleanup = []
    root = pool.create()
    c1 = pool.then(root, lambda v: ran.append(1),
                   on_fail=lambda e: cleanup.append(e))
    c2 = pool.then(c1, lambda v: ran.append(2))
    pool.fail(root, 110)
    assert ran == []                      # callbacks never run on failure
    assert cleanup == [110]               # on_fail observed the error
    assert c1.state == c2.state == FAILED
    assert c2.error == 110


def test_callback_exception_becomes_failure():
    pool = PromisePool()
    root = pool.create()
    c = pool.then(root, lambda v: 1 // 0)
    pool.fulfill(root, 1)
    assert c.state == FAILED
    assert isinstance(c.error, ZeroDivisionError)


def test_pool_capacity_counting():
    pool = PromisePool(max_outstanding=256)
    made = []
    with pytest.raises(PoolExhausted):
        while True:
            made.append(pool.create())
    assert len(made) == 256
    pool.fulfill(made[0], None)           # settling releases the slot
    pool.create()


def test_abandon_releases_slot():
    pool = PromisePool(max_outstanding=2)
    a = pool.create()
    pool.create()
    with pytest.raises(PoolExhausted):
        pool.create()
    pool.abandon(a)
    pool.create()                         # slot reusable after abandonment
    assert a.state == FAILED


def test_settle_exactly_once():
    pool = PromisePool()
    p = pool.create()
    pool.fulfill(p, 1)
    with pytest.raises(AssertionError):
        pool.fulfill(p, 2)
    with pytest.raises(AssertionError):
        pool.fail(p, 5)


def test_poll_states_and_constant_cost():
    pool = PromisePool()
    p = pool.create()
    assert poll(p) == PENDING
    for _ in range(1_000_000):            # host-starved: stays pending, O(1)
        assert poll(p) == PENDING
    pool.fulfill(p, 4)
    assert poll(p) == FULFILLED


def test_continuation_budget_defers_excess():
    pool = PromisePool(continuation_budget=32)
    ran = []
    root = pool.create()
    for i in range(40):                   # fan-out of 40 direct children
        pool.then(root, lambda v, i=i: ran.append(i))
    pool.fulfill(root, None)
    assert len(ran) == 32                 # budget per settle call
    assert pool.deferred_count == 8
    pool.run_deferred()
    assert len(ran) == 40 and ran == list(range(40))
    assert pool.deferred_count == 0


def test_linear_chain_budget():
    pool = PromisePool(continuation_budget=4)
    ran = []
    root = pool.create()
    prev = root
    for i in range(10):
        prev = pool.then(prev, lambda v, i=i: ran.append(i))
    pool.fulfill(root, None)
    assert len(ran) == 4
    while pool.deferred_count:
        pool.run_deferred(budget=4)
    assert ran == list(range(10))


class _C:
    def __init__(self, tag, result):
        self.tag = tag
        self.result = result


def test_settle_from_cqe():
    pool = PromisePool()
    p = pool.create()
    assert pool.settle_from_cqe(_C(p, 5))  # the tag is the promise
    assert p.state == FULFILLED and p.value == 5
    q = pool.create()
    assert pool.settle_from_cqe(_C(q, -110))
    assert q.state == FAILED and q.error == 110  # negative result -> errno
    r = pool.create()
    pool.abandon(r)
    assert not pool.settle_from_cqe(_C(r, 0))   # abandoned
    assert not pool.settle_from_cqe(_C(p, 0))   # already settled
    assert pool.stray_completions == 2


# --- IO composition over a fake runtime ---

def _rt_with_arena():
    fh = FakeHandle()
    rt = FakeRT()
    rt.pool = fh.pool
    rt.arena_pool = ArenaPool(fh)
    return rt, fh


def test_zero_byte_write_skips_rings():
    rt = FakeRT()
    p = async_write(rt, 3, b"")
    assert p.state == FULFILLED and p.value == 0
    assert rt.submitted == []


def test_write_stages_submits_and_frees():
    rt, fh = _rt_with_arena()
    p = async_write(rt, 3, b"hello", off=7)
    fh.grant()                            # host grants the arena block
    assert len(rt.submitted) == 1
    opcode, args, submitted = rt.submitted[0]
    assert args.len == 5 and args.off == 7
    assert submitted is p                 # one promise: the caller's
    rt.complete(0, 5)
    assert p.state == FULFILLED and p.value == 5
    received, in_bins, live = rt.arena_pool.accounting()
    assert live == 0                      # arena freed on completion


def test_read_clamps_hostile_length():
    rt, fh = _rt_with_arena()
    p = async_read(rt, 3, 64)
    fh.grant()
    rt.complete(0, 100_000)               # host claims an absurd byte count
    assert p.state == FULFILLED
    assert len(p.value) == 64             # clamped to the arena window


def test_negative_read_size_rejected_before_staging():
    rt, fh = _rt_with_arena()
    with pytest.raises(ValueError):
        async_read(rt, 3, -1)
    assert rt.submitted == [] and fh.requests == []
    assert rt.arena_pool.accounting() == (0, 0, 0)


def test_failed_write_frees_arena():
    rt, fh = _rt_with_arena()
    p = async_write(rt, 3, b"data")
    fh.grant()
    rt.complete(0, -28)
    assert p.state == FAILED and p.error == 28
    assert rt.arena_pool.accounting()[2] == 0
