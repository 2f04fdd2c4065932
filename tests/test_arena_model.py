"""Stateful property test of the arena pool and the staged calls it serves.

Hypothesis drives real staged reads over a FakeRT and a FakeHandle through
random interleavings of requests, a launch grant, grants and refusals of the
pending grant requests, drains of the ready queue, callers giving up on
parked and on published calls, and completions, late ones included. The
checks hold after every step:

- `accounting()` conserves bytes, and its live bytes are exactly the arenas
  the ops hold;
- each op settles at most once;
- no live arena is handed to two ops;
- `pool.outstanding` is the number of pending ops, the calls a caller still
  holds: grants take no slot;
- `waiting` is the number of ops parked for an arena.

At the end every grant lands and every published call completes, and then
no arena stays live.
"""
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ringsim.arena import ArenaPool
from ringsim.config import INIT_SHM_ENV
from ringsim.errors import PoolExhausted
from ringsim.promise import PENDING, PromisePool, abandon, async_read

from helpers import FakeHandle, FakeRT

CAP = 12


class ArenaPoolModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fh = FakeHandle(PromisePool(max_outstanding=CAP,
                                         continuation_budget=4))
        self.rt = FakeRT()
        self.rt.pool = self.fh.pool
        self.pool = self.rt.arena_pool = ArenaPool(self.fh)
        self.ops = []
        self.completed: set[int] = set()  # submission indices delivered
        self.prefilled = False
        self.settles = Counter()
        promises = self.rt.pool
        for name in ("fulfill", "fail"):
            settle = getattr(promises, name)

            def counted(p, value, settle=settle):
                self.settles[id(p)] += 1
                settle(p, value)

            setattr(promises, name, counted)

    def _published(self, held: bool) -> list[int]:
        return [i for i, (_, _, op) in enumerate(self.rt.submitted)
                if i not in self.completed
                and (op.state == PENDING) == held]

    # --- the enclave side ---

    @rule(size=st.one_of(st.integers(1, 1024), st.integers(1, 70_000)))
    def request(self, size):
        if self.rt.pool.outstanding == CAP:
            with pytest.raises(PoolExhausted):
                async_read(self.rt, 3, size)
            return
        self.ops.append(async_read(self.rt, 3, size))

    @rule()
    def drain(self):
        self.rt.pool.run_deferred()

    @precondition(lambda self: any(op.state == PENDING and op.arena is None
                                   for op in self.ops))
    @rule(data=st.data())
    def abandon_parked(self, data):
        parked = [op for op in self.ops
                  if op.state == PENDING and op.arena is None]
        abandon(self.rt, data.draw(st.sampled_from(parked)))

    @precondition(lambda self: self._published(held=True))
    @rule(data=st.data())
    def abandon_published(self, data):
        i = data.draw(st.sampled_from(self._published(held=True)))
        abandon(self.rt, self.rt.submitted[i][2])

    @precondition(lambda self: self._published(held=True)
                  or self._published(held=False))
    @rule(data=st.data(), late=st.booleans(), result=st.integers(-5, 80_000))
    def complete(self, data, late, result):
        calls = self._published(held=not late) or self._published(held=late)
        i = data.draw(st.sampled_from(calls))
        self.completed.add(i)
        self.rt.complete(i, result)

    # --- the host's grants ---

    @precondition(lambda self: not self.prefilled)
    @rule()
    def prefill(self):
        self.prefilled = True
        self.pool.prefill({INIT_SHM_ENV: "65536"})

    @precondition(lambda self: self.fh.requests)
    @rule(data=st.data())
    def grant(self, data):
        self.fh.grant(data.draw(st.integers(0, len(self.fh.requests) - 1)))

    @precondition(lambda self: self.fh.requests)
    @rule(data=st.data())
    def refuse(self, data):
        self.fh.refuse(data.draw(st.integers(0, len(self.fh.requests) - 1)))

    # --- invariants ---

    @invariant()
    def bytes_are_conserved(self):
        received, in_bins, live = self.pool.accounting()
        assert received == in_bins + live
        held = [op.arena for op in self.ops
                if op.arena is not None and op.arena.live]
        assert live == sum(a.capacity for a in held)
        assert len({(id(a.block), a.block_offset) for a in held}) == len(held)

    @invariant()
    def settles_once(self):
        assert all(n == 1 for n in self.settles.values())

    @invariant()
    def slots_and_queue_match_the_ops(self):
        pending = [op for op in self.ops if op.state == PENDING]
        assert self.rt.pool.outstanding == len(pending)
        assert self.pool.waiting == sum(op.arena is None for op in pending)

    def teardown(self):
        while self.fh.requests:
            self.fh.grant()
        while self.rt.pool.deferred_count:
            self.rt.pool.run_deferred()
        for i in range(len(self.rt.submitted)):
            if i not in self.completed:
                self.rt.complete(i, 0)
        self.rt.pool.run_deferred()
        received, in_bins, live = self.pool.accounting()
        assert live == 0 and in_bins == received
        assert self.rt.pool.outstanding == self.pool.waiting == 0


TestArenaPoolModel = ArenaPoolModel.TestCase
TestArenaPoolModel.settings = settings(max_examples=100,
                                       stateful_step_count=50,
                                       deadline=None)
