"""Packed record logs: equal to the list of tuples they were fed, and small.

The round-trip test checks every record kind against a plain-list model
over the full range each field promises (u64 user_data and offsets, negative
results, `None` paths, both flag values, strings the log has not seen).
The value ranges are written out here, not read from the layouts, so a
layout that lost a sign or decoded a flag as an int fails it.
"""
from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim.records import HOST_LAYOUTS, DeliveryLog, HostEvents, SchedTrace

from test_golden import _fleet_sim

U64 = st.integers(0, 2**64 - 1)
U32 = st.integers(0, 2**32 - 1)
RESULT = st.integers(-(2**63), 2**63 - 1)
NAME = st.sampled_from(["host0", "imu", "read", "RegistrationError"]) | \
    st.text(max_size=6)
PATH = NAME | st.none()
FLAG = st.booleans()

# kind -> value range of each field after the kind name
HOST = {
    "poller_wake": (U64,),
    "poller_sleep": (U64,),
    "kill_proxy": (U64,),
    "cqe": (NAME, U64, RESULT),
    "cqe_dropped": (NAME, U64),
    "sqe": (U64, NAME, NAME, U64),
    "deny": (U64, NAME, U64),
    "read_payload": (U64, NAME, U64, PATH, FLAG, U64, U32, RESULT),
    "reg_atomic": (U64, FLAG),
    "registration_rejected": (U64, NAME),
}
HOST_RECORD = st.one_of([st.tuples(st.just(kind), *fields)
                         for kind, fields in HOST.items()])
TRACE_RECORD = st.tuples(U64, NAME, NAME)
DELIVERY_RECORD = st.tuples(U64, RESULT)


def _host_log(model):
    log = HostEvents()
    for kind, *fields in model:
        getattr(log, kind)(*fields)
    return log


def _flat_log(cls, model):
    log = cls()
    for rec in model:
        log.record(*rec)
    return log


def _check_like_model(build, model, probe):
    log = build(model)
    assert len(log) == len(model)
    assert list(log) == model
    assert repr(log) == repr(model)
    assert all(rec in log for rec in model)
    assert (probe in log) == (probe in model)
    assert log == model and model == log
    assert not (log != model) and not (model != log)
    assert (log == []) == (model == []) == ([] == log)
    twin = build(model)
    assert log == twin and twin == log
    if model:
        shorter = build(model[:-1])
        assert log != shorter and shorter != log
        assert shorter != model and model != shorter


def test_host_layouts_are_the_modelled_kinds():
    assert [(lay.tag, len(lay.fields)) for lay in HOST_LAYOUTS] == \
        [(kind, len(fields)) for kind, fields in HOST.items()]


@settings(max_examples=300, deadline=None)
@given(st.lists(HOST_RECORD, max_size=30), HOST_RECORD)
def test_host_events_round_trip(model, probe):
    _check_like_model(_host_log, model, probe)


@settings(deadline=None)
@given(st.lists(TRACE_RECORD, max_size=30), TRACE_RECORD)
def test_sched_trace_round_trip(model, probe):
    _check_like_model(lambda m: _flat_log(SchedTrace, m), model, probe)


@settings(deadline=None)
@given(st.lists(DELIVERY_RECORD, max_size=30), DELIVERY_RECORD)
def test_delivery_log_round_trip(model, probe):
    _check_like_model(lambda m: _flat_log(DeliveryLog, m), model, probe)


def test_logs_hold_at_most_40_bytes_per_record():
    """The fleet:honest golden run, under tracemalloc: the memory freed by
    dropping the scheduler trace, the host events and every delivery log,
    per record they held."""
    gc.collect()
    tracemalloc.start()
    try:
        sim, _outs = _fleet_sim("honest")
        handles = [rt.handle for rt in sim.runtimes.values()]
        records = len(sim.sched.trace) + len(sim.host.events) + \
            sum(len(h.delivered_log) for h in handles)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        sim.sched.trace = sim.host.events = None
        for h in handles:
            h.delivered_log = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 5_000
    assert freed / records <= 40, f"{freed} B for {records} records"
