"""Stateful property test of the completion correlation table.

Hypothesis drives a bare RingHandle through random interleavings of
submissions (which park when the ring or the table is full), host consumes,
host completions for known, duplicate and junk ids, retires, deliveries and
parked-queue pumps. A plain-Python model predicts, for every peek, which
completion the handle must deliver and which CQ entries it must drop, so the
checks are exact rather than statistical:

- the table never holds more than its cap, and holds exactly the in-flight
  receipts;
- each receipt is delivered at most once, carrying its own caller tag;
- a completion for an in-flight, unretired receipt is never dropped;
- after a pump, a submission stays parked only while the ring or the table
  is genuinely full.
"""
from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ringsim.config import SimConfig
from ringsim.enclave import SqeArgs
from ringsim.ring import OP_READ, Cqe

from helpers import ring_world

CFG = SimConfig(sq_entries=4, cq_entries=4, drop_budget=2,
                max_outstanding_promises=6)
CAP = CFG.max_outstanding_promises


class CorrelationTable(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        _, self.h, self.host_sq, self.host_cq = ring_world(CFG)
        self.next_tag = 1
        self.inflight: dict[int, int] = {}   # receipt -> caller tag
        self.delivered: dict[int, int] = {}  # receipt -> caller tag
        self.parked: list[int] = []          # tags, in submission order
        self.consumed: list[int] = []        # user_data the host has seen
        self.cq: deque = deque()             # user_data on the CQ, in order
        # every receipt, direct or pumped, is minted by one push
        push = self.h._push

        def spy(opcode, args, tag):
            receipt = push(opcode, args, tag)
            assert receipt not in self.inflight and receipt not in self.delivered
            if tag in self.parked:
                assert self.parked[0] == tag  # parked work leaves in order
                self.parked.pop(0)
            self.inflight[receipt] = tag
            return receipt

        self.h._push = spy

    # --- enclave side ---

    @rule()
    def submit(self):
        tag = self.next_tag
        self.next_tag += 1
        if self.h.prep_and_submit(OP_READ, SqeArgs(translate=False),
                                  tag) is None:
            self.parked.append(tag)

    @rule()
    def pump_parked(self):
        self.h.pump_parked()
        if self.parked:
            assert len(self.inflight) >= CAP or \
                self.host_sq.consumer_occupancy() == CFG.sq_entries

    @precondition(lambda self: self.inflight)
    @rule(data=st.data())
    def retire(self, data):
        receipt = data.draw(st.sampled_from(sorted(self.inflight)))
        self.h.retire(receipt)
        del self.inflight[receipt]

    @precondition(lambda self: self.inflight or self.parked)
    @rule(data=st.data())
    def retire_tag(self, data):
        tag = data.draw(st.sampled_from(sorted(set(self.inflight.values())
                                               | set(self.parked))))
        self.h.retire_tag(tag)
        self.inflight = {r: t for r, t in self.inflight.items() if t != tag}
        self.parked = [t for t in self.parked if t != tag]

    @rule()
    def peek_and_consume(self):
        # what the handle must do: drop non-in-flight ids from the head, up
        # to the drop budget, and deliver the first in-flight one
        expected, drops = None, 0
        while self.cq:
            if self.cq[0] in self.inflight:
                expected = self.cq.popleft()
                break
            if drops >= CFG.drop_budget:
                break
            self.cq.popleft()
            drops += 1
        c = self.h.peek_cqe()
        assert (None if c is None else c.internal_id) == expected
        if c is not None:
            assert c.tag == self.inflight[c.internal_id]
            self.h.consume_cqe()
            self.delivered[c.internal_id] = self.inflight.pop(c.internal_id)

    # --- host side ---

    @rule()
    def host_consume(self):
        self.consumed += [s.user_data for s in self.host_sq.consume_batch(8)]

    def _complete(self, user_data: int, result: int) -> None:
        if self.host_cq.produce(Cqe(user_data, result, 0)):
            self.cq.append(user_data)

    @precondition(lambda self: self.consumed)
    @rule(data=st.data(), result=st.integers(-30, 70))
    def host_complete_known(self, data, result):
        # may repeat an id that was already delivered or retired
        self._complete(data.draw(st.sampled_from(self.consumed)), result)

    @rule(junk=st.integers(0, (1 << 62) - 1))
    def host_complete_unknown(self, junk):
        self._complete((1 << 63) | junk, 0)

    # --- invariants ---

    @invariant()
    def table_matches_model(self):
        assert len(self.h._table) <= CAP
        assert self.h._table == self.inflight
        assert self.h.parked_count == len(self.parked)


TestCorrelationTable = CorrelationTable.TestCase
TestCorrelationTable.settings = settings(max_examples=150,
                                         stateful_step_count=60,
                                         deadline=None)
