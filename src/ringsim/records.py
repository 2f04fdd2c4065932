"""Packed typed record logs: the scheduler trace, host events, deliveries.

Each record kind has one fixed `struct` layout with named fields. A log
packs its records into one `bytearray` and interns its strings (task names,
enclave ids, op names, paths, exception names, which may be `None`) in a
small per-log table, so a record costs its packed size instead of a tuple
of boxed ints. Emitting is one `pack` and one `+=`; records are decoded only
when read.

A kept log (`keep=True`, the default) is a read-only sequence of the
tuples it was fed: `len`, iteration, `in`, `==` (against a list or another
log) and `repr` behave exactly as on the list of those tuples. A bounded
log (`keep=False`) feeds its buffer to a running SHA-256 and drops it on
reaching SEAL_BYTES; it answers `len` and `digest()`, and the rest raise
RecordsNotKept. `digest()` covers every record's bytes, then the interned
values, so both modes give the same digest for the same records. Emit
methods bind their `pack` as a default argument, so the per-record path
looks up no global or attribute for it.

Field types:

    U64   unsigned 64-bit int (times, user_data, offsets, region ids)
    I64   signed 64-bit int (results: byte counts or negative errnos)
    U32   unsigned 32-bit int (payload lengths)
    BOOL  decodes back to True/False
    STR   any hashable value, usually a str or None, interned per log
"""
from __future__ import annotations

import hashlib
import struct
from functools import partial

from .errors import RecordsNotKept

U64, I64, U32, BOOL, STR = "Q", "q", "I", "?", "S"
SEAL_BYTES = 16 * 1024  # about 1,024 scheduler-trace records


class Layout:
    """One record kind: its name, its named fields and their packing."""

    def __init__(self, tag: str | None, *fields: tuple[str, str]):
        self.tag = tag
        self.fields = tuple(name for name, _ in fields)
        codes = "".join("I" if code == STR else code for _, code in fields)
        self.struct = struct.Struct("<" + ("B" if tag else "") + codes)
        first = 1 if tag else 0
        self._str_at = tuple(i + first for i, (_, code) in enumerate(fields)
                             if code == STR)

    def decode(self, buf: bytearray, off: int, strs: list) -> tuple:
        rec = list(self.struct.unpack_from(buf, off))
        if self.tag is not None:
            rec[0] = self.tag
        for i in self._str_at:
            rec[i] = strs[rec[i]]
        return tuple(rec)


class _Interner(dict):
    """value -> index; `ids[value]` adds an unseen value."""

    def __init__(self):
        super().__init__()
        self.values: list = []

    def __missing__(self, value) -> int:
        i = self[value] = len(self.values)
        self.values.append(value)
        return i


class RecordLog:
    """Packed records of the kinds in LAYOUTS, kept or bounded.

    With one untagged layout every record has that layout; otherwise each
    record starts with a kind byte, its index in LAYOUTS.
    """

    LAYOUTS: tuple[Layout, ...] = ()

    def __init__(self, keep: bool = True):
        self._buf = bytearray()
        self._n = 0
        self._ids = _Interner()
        self._sealed = None if keep else hashlib.sha256()  # of dropped bytes

    def _add(self, rec: bytes) -> None:
        self._buf += rec
        self._n += 1
        if len(self._buf) >= SEAL_BYTES and self._sealed is not None:
            self._sealed.update(self._buf)
            self._buf = bytearray()

    def __len__(self) -> int:
        return self._n

    def digest(self) -> str:
        h = hashlib.sha256() if self._sealed is None else self._sealed.copy()
        h.update(self._buf)
        h.update(repr(self._ids.values).encode())
        return h.hexdigest()

    def __iter__(self):
        if self._sealed is not None:
            raise RecordsNotKept(f"bounded {type(self).__name__} (keep=False)"
                                 " keeps only len() and digest()")
        buf, strs, layouts = self._buf, self._ids.values, self.LAYOUTS
        lay = layouts[0]
        tagged = lay.tag is not None
        off = 0
        while off < len(buf):
            if tagged:
                lay = layouts[buf[off]]
            yield lay.decode(buf, off, strs)
            off += lay.struct.size

    def __eq__(self, other):
        mine = list(self)
        if isinstance(other, RecordLog):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return mine == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


_TRACE = Layout(None, ("now", U64), ("task", STR), ("event", STR))
_DELIVERY = Layout(None, ("internal_id", U64), ("result", I64))


class SchedTrace(RecordLog):
    """BudgetScheduler.trace: (now, task, event)."""

    LAYOUTS = (_TRACE,)

    def record(self, now: int, task: str, event: str,
               _pack=_TRACE.struct.pack) -> None:
        # _add, inlined: most records of a run are the scheduler's
        ids, buf = self._ids, self._buf
        buf += _pack(now, ids[task], ids[event])
        self._n += 1
        if len(buf) >= SEAL_BYTES and self._sealed is not None:
            self._sealed.update(buf)
            self._buf = bytearray()


class DeliveryLog(RecordLog):
    """RingHandle.delivered_log: (internal_id, result)."""

    LAYOUTS = (_DELIVERY,)

    def record(self, internal_id: int, result: int,
               _pack=_DELIVERY.struct.pack) -> None:
        self._add(_pack(internal_id, result))


HOST_LAYOUTS = (
    Layout("poller_wake", ("now", U64)),
    Layout("poller_sleep", ("now", U64)),
    Layout("kill_proxy", ("now", U64)),
    Layout("cqe", ("eid", STR), ("user_data", U64), ("result", I64)),
    Layout("cqe_dropped", ("eid", STR), ("user_data", U64)),
    Layout("sqe", ("now", U64), ("eid", STR), ("op", STR),
           ("user_data", U64)),
    Layout("deny", ("now", U64), ("op", STR), ("user_data", U64)),
    Layout("read_payload", ("now", U64), ("eid", STR), ("user_data", U64),
           ("path", STR), ("clean", BOOL), ("off", U64), ("n", U32),
           ("result", I64)),
    Layout("reg_atomic", ("region_id", U64), ("atomic", BOOL)),
    Layout("registration_rejected", ("region_id", U64), ("error", STR)),
)
# kind name -> pack of that kind's record, kind byte already bound
_PACK = {lay.tag: partial(lay.struct.pack, kind)
         for kind, lay in enumerate(HOST_LAYOUTS)}


class HostEvents(RecordLog):
    """HostOs.events: one emit method per kind, named after it."""

    LAYOUTS = HOST_LAYOUTS

    def poller_wake(self, now: int, _pack=_PACK["poller_wake"]) -> None:
        self._add(_pack(now))

    def poller_sleep(self, now: int, _pack=_PACK["poller_sleep"]) -> None:
        self._add(_pack(now))

    def kill_proxy(self, now: int, _pack=_PACK["kill_proxy"]) -> None:
        self._add(_pack(now))

    def cqe(self, eid: str, user_data: int, result: int,
            _pack=_PACK["cqe"]) -> None:
        self._add(_pack(self._ids[eid], user_data, result))

    def cqe_dropped(self, eid: str, user_data: int,
                    _pack=_PACK["cqe_dropped"]) -> None:
        self._add(_pack(self._ids[eid], user_data))

    def sqe(self, now: int, eid: str, op: str, user_data: int,
            _pack=_PACK["sqe"]) -> None:
        ids = self._ids
        self._add(_pack(now, ids[eid], ids[op], user_data))

    def deny(self, now: int, op: str, user_data: int,
             _pack=_PACK["deny"]) -> None:
        self._add(_pack(now, self._ids[op], user_data))

    def read_payload(self, now: int, eid: str, user_data: int,
                     path: str | None, clean: bool, off: int, n: int,
                     result: int, _pack=_PACK["read_payload"]) -> None:
        ids = self._ids
        self._add(_pack(now, ids[eid], user_data, ids[path], clean, off, n,
                        result))

    def reg_atomic(self, region_id: int, atomic: bool,
                   _pack=_PACK["reg_atomic"]) -> None:
        self._add(_pack(region_id, atomic))

    def registration_rejected(self, region_id: int, error: str,
                              _pack=_PACK["registration_rejected"]) -> None:
        self._add(_pack(region_id, self._ids[error]))
