"""Ring wire format and defensive SPSC operations.

The byte layouts are pinned by a golden hex fixture (computed once, frozen);
everything defensive is tested by scribbling random bytes into the shared
region between operations and asserting the private-side contracts hold.
"""
import pathlib
import random
import struct
import threading

import pytest

from ringsim.config import SimConfig
from ringsim.errors import BadSize, EmptyConsume
from ringsim.ring import (CQE_SIZE, RING_HEADER, SQE_SIZE, Cqe, Ring, Sqe,
                          ring_region_bytes)
from ringsim.shm import NORMAL, MemoryAuthority

from helpers import dual_windows

DATA = pathlib.Path(__file__).parent / "data" / "ring_layout.hex"

GOLDEN_ENTRIES = {
    "sqe_zero": Sqe(opcode=0, flags=0, fd=0, off=0, addr=0, len=0, user_data=0),
    "sqe_read": Sqe(opcode=2, flags=0, fd=5, off=4096, addr=0x11040, len=512,
                    user_data=7),
    "sqe_multishot_accept": Sqe(opcode=10, flags=0x01, fd=3, off=0, addr=0,
                                len=0, user_data=0xDEADBEEF),
    "sqe_max_fields": Sqe(opcode=255, flags=255, fd=-1, off=2**64 - 1,
                          addr=2**64 - 1, len=2**32 - 1, user_data=2**64 - 1),
    "cqe_zero": Cqe(user_data=0, result=0, flags=0),
    "cqe_ok_read": Cqe(user_data=7, result=512, flags=0),
    "cqe_more": Cqe(user_data=0xDEADBEEF, result=9, flags=0x01),
    "cqe_error": Cqe(user_data=41, result=-110, flags=0),
}


def test_golden_wire_format():
    for line in DATA.read_text().splitlines():
        name, size, hexed = line.split()
        entry = GOLDEN_ENTRIES[name]
        blob = entry.pack()
        assert len(blob) == int(size)
        assert blob.hex() == hexed, f"{name} layout drifted"
        cls = Sqe if name.startswith("sqe") else Cqe
        again = cls(*cls.STRUCT.unpack(blob))
        assert again.pack() == blob


def test_entry_sizes():
    assert len(Sqe(0, 0, 0, 0, 0, 0, 0).pack()) == SQE_SIZE == 64
    assert len(Cqe(0, 0, 0).pack()) == CQE_SIZE == 16
    # region sizes are page-rounded for whole-page grants
    assert ring_region_bytes(8, SQE_SIZE) == 4096
    assert ring_region_bytes(64, SQE_SIZE) == 8192


def _pair(entries=8, slot=CQE_SIZE):
    """(producer_ring, consumer_ring, raw_window) over one shared region."""
    auth = MemoryAuthority()
    e = auth.create_space("encl", "trusted", 0x100000)
    p = auth.create_space("proxy", NORMAL, 0x10000)
    nbytes = ring_region_bytes(entries, slot)
    we, wp, _ = dual_windows(auth, e, p, nbytes)
    codec = Cqe if slot == CQE_SIZE else Sqe
    prod = Ring(we, entries, codec, initialize=True)
    cons = Ring(wp, entries, codec, initialize=False)
    return prod, cons, wp


def test_init_layout_and_bad_sizes():
    prod, _, w = _pair(entries=8)
    head, tail, ents = struct.unpack("<III", w.read(0, 12))
    assert (head, tail, ents) == (0, 0, 8)
    assert prod.entries == 8
    auth = MemoryAuthority()
    sp = auth.create_space("x", NORMAL)
    pages = auth.alloc_pages(1, "x", NORMAL)
    m = auth.map_private(sp, pages)
    win = sp.access(m.base, 4096, "rw")
    with pytest.raises(BadSize):
        Ring(win, 7, Sqe, initialize=True)     # power-of-two rule
    with pytest.raises(BadSize):
        Ring(win, 128, Sqe, initialize=True)   # region too small
    Ring(win, 8, Cqe, initialize=True)
    with pytest.raises(BadSize):
        Ring(win, 16, Cqe, initialize=False)   # shared entries field disagrees


def test_produce_consume_fifo():
    prod, cons, _ = _pair()
    for i in range(5):
        assert prod.produce(Cqe(user_data=i, result=i * 10, flags=0))
    assert prod.producer_occupancy() == 5
    assert cons.consumer_occupancy() == 5
    got = []
    while True:
        c = cons.peek()
        if c is None:
            break
        got.append((c.user_data, c.result))
        cons.consume_one()
    assert got == [(i, i * 10) for i in range(5)]


def test_full_ring():
    prod, cons, _ = _pair(entries=8)
    for i in range(8):
        assert prod.produce(Cqe(i, 0, 0))
    assert not prod.produce(Cqe(99, 0, 0))  # 9th refused
    cons.consume_one()
    assert prod.produce(Cqe(8, 0, 0))       # slot freed by consumer


def test_consume_empty_raises():
    _, cons, _ = _pair()
    with pytest.raises(EmptyConsume):
        cons.consume_one()
    assert cons.peek() is None


def test_consume_batch():
    prod, cons, _ = _pair()
    for i in range(3):
        prod.produce(Cqe(i, 0, 0))
    out = cons.consume_batch(8)
    assert [c.user_data for c in out] == [0, 1, 2]
    assert cons.consume_batch(8) == []


def test_peek_is_toctou_free():
    prod, cons, w = _pair()
    prod.produce(Cqe(user_data=7, result=3, flags=0))
    snap = cons.peek()
    # adversary rewrites the slot after the peek
    w.write(RING_HEADER, Cqe(user_data=666, result=-1, flags=0).pack())
    assert (snap.user_data, snap.result) == (7, 3)
    again = cons.peek()  # a fresh peek sees the new bytes, by design
    assert again.user_data == 666


def test_wraparound_near_2_32():
    # free-running u32 indices: start both sides just below the wrap point
    prod, cons, w = _pair(entries=8)
    start = 0xFFFFFFFA
    w.write(0, struct.pack("<I", start))
    w.write(4, struct.pack("<I", start))
    prod2 = Ring(prod._win, 8, Cqe, initialize=False)  # reload private copies
    cons2 = Ring(w, 8, Cqe, initialize=False)
    for i in range(12):                    # crosses 2^32
        assert prod2.produce(Cqe(i, 0, 0))
        got = cons2.peek()
        assert got.user_data == i
        cons2.consume_one()
    head, tail = struct.unpack("<II", w.read(0, 8))
    assert head == tail == (start + 12) & 0xFFFFFFFF


def test_scribbled_head_bounds_produce():
    prod, _, w = _pair(entries=8)
    for bad in (0xFFFFFFFF, 0x7FFFFFFF, 5, 0):
        w.write(0, struct.pack("<I", bad))
        r = prod.produce(Cqe(1, 1, 0))
        assert r in (True, False)  # terminates; ok or Full, nothing else


def test_scribbled_tail_clamps_consume():
    prod, cons, w = _pair(entries=8)
    prod.produce(Cqe(1, 0, 0))
    # tail scribbled to head + 2^31: occupancy must clamp at `entries`
    w.write(4, struct.pack("<I", 0x80000000))
    assert cons.consumer_occupancy() == 8
    out = cons.consume_batch(100)
    assert len(out) == 8  # at most entries consumed, bounded steps


def test_random_scribbles_keep_ops_bounded():
    rng = random.Random(0x5C21B)
    cfg = SimConfig()
    prod, cons, w = _pair(entries=8)
    produced = consumed = 0
    for i in range(20_000):
        w.write(rng.randrange(0, w.length - 4),
                rng.randbytes(rng.randrange(1, 5)))
        op = rng.random()
        if op < 0.4:
            if prod.produce(Cqe(produced, 0, 0)):
                produced += 1
        elif op < 0.8:
            c = cons.peek()
            if c is not None:
                cons.consume_one()
                consumed += 1
        else:
            assert 0 <= cons.consumer_occupancy() <= 8
            assert 0 <= prod.producer_occupancy() <= 8
    # scribbled indices fake full/empty states, so only a fraction land;
    # the property under test is termination and clamping, not throughput
    assert produced > 500 and consumed > 500


def test_threaded_spsc_smoke():
    # CPython-atomicity smoke test; the deterministic model checks in
    # test_ring_model.py are the normative interleaving argument
    prod, cons, _ = _pair(entries=4)
    n = 400
    got = []

    def producer():
        i = 0
        while i < n:
            if prod.produce(Cqe(i, 0, 0)):
                i += 1

    def consumer():
        while len(got) < n:
            c = cons.peek()
            if c is not None:
                got.append(c.user_data)
                cons.consume_one()

    tp, tc = threading.Thread(target=producer), threading.Thread(target=consumer)
    tp.start(); tc.start()
    tp.join(timeout=30); tc.join(timeout=30)
    assert got == list(range(n))
