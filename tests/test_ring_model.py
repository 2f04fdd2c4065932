"""Exhaustive SPSC interleaving checks for the ring protocol.

Two layers:

1. A micro-step state machine that mirrors the implementation's shared-memory
   access sequence exactly (produce = read head / write slot / publish tail,
   consume = read tail / read slot / read tail / publish head) is explored
   over ALL interleavings for ring sizes 2 and 4. Every reachable state is
   checked for clamped occupancy and exactly-once in-order delivery.

2. An op-level DFS drives the real Ring objects through every interleaving
   of whole produce/consume calls with snapshot/restore, tying the model's
   conclusions to the shipped code.

3. The same DFS over the batch operations, one step at a time: a batch
   opens (one load of the other side's index), moves one entry per step
   and closes (one store of its own index), and the other party may run
   between any two steps. One simulated core never does that, which is
   what makes the snapshot exact; the check shows it is safe even then.
"""
import struct

from ringsim.ring import Cqe, Ring, ring_region_bytes
from ringsim.shm import NORMAL, MemoryAuthority

from helpers import dual_windows

MASK32 = 0xFFFFFFFF

# producer program counters
P_CHECK, P_WRITE, P_PUBLISH, P_DONE = 0, 1, 2, 3
# consumer program counters
C_CHECK, C_READ, C_CONFIRM, C_DONE = 0, 1, 2, 3


def _clamp(delta, entries):
    occ = delta & MASK32
    return entries if occ > entries else occ


def _explore(entries: int, items: int, start_index: int = 0):
    """Walk every interleaving; returns (reachable_states, violations)."""
    mask = entries - 1
    init = (P_CHECK, 0, start_index,            # p_pc, p_idx, tail
            C_CHECK, None, 0, start_index,      # c_pc, c_val, c_count, head
            (None,) * entries)                  # slots
    seen = {init}
    stack = [init]
    violations = []
    terminals = 0

    while stack:
        state = stack.pop()
        p_pc, p_idx, tail, c_pc, c_val, c_count, head, slots = state
        occ = _clamp(tail - head, entries)
        if occ > entries:
            violations.append(("occupancy", state))
        succs = []

        # one producer micro-step
        if p_pc == P_CHECK:
            if _clamp(tail - head, entries) < entries:
                succs.append((P_WRITE, p_idx, tail, c_pc, c_val, c_count,
                              head, slots))
            # full: spin in place (self-loop, nothing new to add)
        elif p_pc == P_WRITE:
            s = list(slots)
            s[tail & mask] = p_idx
            succs.append((P_PUBLISH, p_idx, tail, c_pc, c_val, c_count, head,
                          tuple(s)))
        elif p_pc == P_PUBLISH:
            nxt = P_DONE if p_idx + 1 == items else P_CHECK
            succs.append((nxt, p_idx + 1, (tail + 1) & MASK32, c_pc, c_val,
                          c_count, head, slots))

        # one consumer micro-step
        if c_pc == C_CHECK:
            if _clamp(tail - head, entries) > 0:
                succs.append((p_pc, p_idx, tail, C_READ, c_val, c_count,
                              head, slots))
        elif c_pc == C_READ:
            succs.append((p_pc, p_idx, tail, C_CONFIRM, slots[head & mask],
                          c_count, head, slots))
        elif c_pc == C_CONFIRM:
            if _clamp(tail - head, entries) == 0:
                violations.append(("consume-on-empty", state))
            if c_val != c_count:
                violations.append(("order", state, c_val, c_count))
            nxt = C_DONE if c_count + 1 == items else C_CHECK
            succs.append((p_pc, p_idx, tail, nxt, None, c_count + 1,
                          (head + 1) & MASK32, slots))

        if p_pc == P_DONE and c_pc == C_DONE:
            terminals += 1
            if c_count != items:
                violations.append(("undelivered", state))

        for s in succs:
            if s not in seen:
                seen.add(s)
                stack.append(s)

    assert terminals > 0, "no complete execution reached"
    return seen, violations


def test_model_exhaustive_entries_2():
    seen, violations = _explore(entries=2, items=4)
    assert violations == []
    assert len(seen) > 40  # 52 reachable states for this geometry


def test_model_exhaustive_entries_4():
    seen, violations = _explore(entries=4, items=6)
    assert violations == []


def test_model_exhaustive_wraparound_start():
    # same exploration with indices starting just below 2^32
    _, violations = _explore(entries=2, items=4, start_index=0xFFFFFFFE)
    assert violations == []
    _, violations = _explore(entries=4, items=6, start_index=0xFFFFFFFE)
    assert violations == []


# --- op-level DFS over the real implementation ---

class _RealPair:
    def __init__(self, entries: int, start_index: int = 0):
        self.entries = entries
        self.auth = MemoryAuthority()
        e = self.auth.create_space("encl", "trusted", 0x100000)
        p = self.auth.create_space("proxy", NORMAL, 0x10000)
        nbytes = ring_region_bytes(entries, 16)
        self.we, self.wp, _ = dual_windows(self.auth, e, p, nbytes)
        self.prod = Ring(self.we, entries, Cqe, initialize=True)
        self.we.write(0, struct.pack("<II", start_index, start_index))
        self.prod._head = self.prod._tail = start_index
        self.cons = Ring(self.wp, entries, Cqe, initialize=False)

    def snapshot(self):
        return (self.wp.read(0, self.wp.length),) + tuple((r._head, r._tail, r._held, r._mark)
                               for r in (self.prod, self.cons))

    def restore(self, snap):
        blob, *views = snap
        self.wp.write(0, blob)
        for r, (head, tail, held, mark) in zip((self.prod, self.cons), views):
            r._head, r._tail, r._held, r._mark = head, tail, held, mark

    def shared(self):
        return struct.unpack("<II", self.wp.read(0, 8))  # (head, tail)


def test_op_level_dfs_real_rings():
    for entries in (2, 4):
        pair = _RealPair(entries)
        items = entries + 3
        complete = [0]

        def walk(produced: int, consumed: tuple):
            if produced == items and len(consumed) == items:
                assert consumed == tuple(range(items))
                complete[0] += 1
                return
            snap = pair.snapshot()
            if produced < items:
                ok = pair.prod.produce(Cqe(produced, 0, 0))
                expect_ok = produced - len(consumed) < entries
                assert ok == expect_ok
                if ok:
                    walk(produced + 1, consumed)
                pair.restore(snap)
            c = pair.cons.peek()
            if c is not None:
                pair.cons.consume_one()
                assert c.user_data == len(consumed)  # strict FIFO
                walk(produced, consumed + (c.user_data,))
                pair.restore(snap)
            else:
                assert produced == len(consumed)  # empty exactly when drained

        walk(0, ())
        assert complete[0] > 0


def test_header_scribble_cannot_grow_batch():
    # adversarial entries-field rewrite after attach: private mask holds
    pair = _RealPair(4)
    for i in range(4):
        pair.prod.produce(Cqe(i, 0, 0))
    pair.wp.write(8, struct.pack("<I", 1 << 31))  # claim entries = 2^31
    out = pair.cons.consume_batch(1 << 20)
    assert [c.user_data for c in out] == [0, 1, 2, 3]


def _explore_batches(entries: int, items: int, start_index: int) -> int:
    """Every interleaving of single steps of batch produce and batch consume
    on the real rings; -> the number of distinct states visited.

    Producer steps: open a batch, produce the next item (refused when its
    view is full), close. Consumer steps: open a batch, peek and consume
    one entry, close, or a whole consume_batch(n) while no batch is open.
    """
    pair = _RealPair(entries, start_index)
    prod, cons = pair.prod, pair.cons
    seen = set()
    complete = [0]

    def check_views():
        head, tail = pair.shared()
        published = (tail - cons._head) & MASK32
        in_flight = (prod._tail - head) & MASK32
        assert published <= entries and in_flight <= entries
        # a held snapshot is only ever stale in the safe direction
        assert cons.consumer_occupancy() <= published
        assert in_flight <= prod.producer_occupancy() <= entries

    def walk(produced: int, consumed: int):
        key = (pair.snapshot(), produced, consumed)
        if key in seen:
            return
        seen.add(key)
        check_views()
        p_open, c_open = prod._held is not None, cons._held is not None
        if produced == items and consumed == items \
                and not p_open and not c_open:
            assert pair.shared() == ((start_index + items) & MASK32,) * 2
            complete[0] += 1
            return
        snap = pair.snapshot()

        def step(fn, *args):
            fn()
            walk(*args)
            pair.restore(snap)

        if not p_open:
            if produced < items:
                step(prod.begin_produce, produced, consumed)
        else:
            step(prod.end_produce, produced, consumed)
            if produced < items:
                if prod.produce(Cqe(produced, 0, 0)):
                    walk(produced + 1, consumed)
                pair.restore(snap)
        if not c_open:
            step(cons.begin_consume, produced, consumed)
            for n in range(1, entries + 1):
                got = [c.user_data for c in cons.consume_batch(n)]
                # exactly once, in order
                assert got == list(range(consumed, consumed + len(got)))
                if got:
                    walk(produced, consumed + len(got))
                pair.restore(snap)
        else:
            step(cons.end_consume, produced, consumed)
            c = cons.peek()
            if c is not None:
                assert c.user_data == consumed
                cons.consume_one()
                walk(produced, consumed + 1)
                pair.restore(snap)

    walk(0, 0)
    assert complete[0] > 0
    return len(seen)


def test_batch_ops_every_interleaving():
    for entries in (2, 4):
        for start in (0, 0xFFFFFFFE, 0xFFFFFFFF - entries):
            assert _explore_batches(entries, entries + 2, start) > 20
