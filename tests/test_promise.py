"""Promise pool: bounded allocation, settling once, and the per-settle budget
of the operation records' ready-queue steps."""
import pytest

from ringsim.arena import ArenaPool
from ringsim.config import INIT_SHM_ENV
from ringsim.errors import PoolExhausted
from ringsim.promise import (FAILED, FULFILLED, PENDING, PromisePool,
                             async_read, async_write, poll)

from helpers import FakeHandle, FakeRT


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

def _rt_with_arena(prefill: int = 0, budget: int = 32):
    fh = FakeHandle(PromisePool(continuation_budget=budget))
    rt = FakeRT()
    rt.pool = fh.pool
    rt.arena_pool = ArenaPool(fh)
    if prefill:
        rt.arena_pool.prefill({INIT_SHM_ENV: str(prefill)})
        fh.grant()
    return rt, fh


def test_continuation_budget_defers_excess():
    # 40 binned writes queue 40 staging steps; one drain, a settle's budget,
    # stages 32 of them and defers 8, which the next drain stages in order
    rt, _ = _rt_with_arena(prefill=1 << 20)
    ops = [async_write(rt, 3, b"x", off=i) for i in range(40)]
    assert rt.pool.deferred_count == 40 and rt.submitted == []
    assert rt.pool.run_deferred() == 32
    assert len(rt.submitted) == 32 and rt.pool.deferred_count == 8
    rt.pool.run_deferred()
    assert [s[2] for s in rt.submitted] == ops
    assert rt.pool.deferred_count == 0


def test_linear_chain_budget():
    # a chain of 10 writes, each issued by the landed hook of the one before:
    # one completion's settle runs that write's finish and, if the budget
    # leaves room, the staging of the next
    for budget, next_waits in ((1, 1), (2, 0)):
        rt, _ = _rt_with_arena(prefill=65536, budget=budget)
        ops = []

        def issue(i):
            op = async_write(rt, 3, b"x", off=i)
            op.landed = lambda _op: i < 9 and issue(i + 1)
            ops.append(op)

        issue(0)
        rt.pool.run_deferred()
        for i in range(10):
            assert len(rt.submitted) == i + 1
            rt.complete(i, 1)
            assert rt.pool.deferred_count == (next_waits if i < 9 else 0)
            rt.pool.run_deferred()
        assert [s[2] for s in rt.submitted] == ops
        assert all(op.state == FULFILLED and op.value == 1 for op in ops)


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
