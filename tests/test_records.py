"""Packed record logs: equal to the list of tuples they were fed, and small.

The round-trip test checks every record kind against a plain-list model
over the full range each field promises (u64 user_data and offsets, negative
results, `None` paths, both flag values, strings the log has not seen).
The value ranges are written out here, not read from the layouts, so a
layout that lost a sign or decoded a flag as an int fails it.

A bounded log (`keep=False`) must hold less than one seal of bytes, count
exactly, refuse to be read, and digest like a kept log fed the same records,
alone and in whole runs.
"""
from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import scenario
from ringsim.errors import RecordsNotKept
from ringsim.records import (HOST_LAYOUTS, SEAL_BYTES, DeliveryLog,
                             HostEvents, SchedTrace)
from ringsim.sim import Simulation

from test_golden import _bulk_sim, _fleet_sim, _recorded_sims

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


def _host_log(model, keep=True):
    log = HostEvents(keep)
    for kind, *fields in model:
        getattr(log, kind)(*fields)
    return log


def _flat_log(cls, model, keep=True):
    log = cls(keep)
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


# --- bounded logs ---

def test_a_bounded_log_holds_under_one_seal_and_counts_exactly():
    log = SchedTrace(keep=False)
    for i in range(10 * SEAL_BYTES // 16):  # ten seals of 16-byte records
        log.record(i, "imu", "dispatch")
        assert len(log._buf) < SEAL_BYTES
    assert len(log) == 10 * SEAL_BYTES // 16


@pytest.mark.parametrize("cls", [SchedTrace, DeliveryLog, HostEvents])
def test_a_bounded_log_refuses_to_be_read(cls):
    log = cls(keep=False)
    for read in (lambda log: next(iter(log)), list, repr, lambda log: log == [],
                 lambda log: log == cls(), lambda log: log != [],
                 lambda log: () in log):
        with pytest.raises(RecordsNotKept, match="bounded"):
            read(log)
    assert len(log) == 0 and log.digest() == cls().digest()


@settings(max_examples=40, deadline=None)
@given(st.lists(HOST_RECORD, min_size=1, max_size=30), st.integers(1, 400),
       st.lists(TRACE_RECORD, min_size=1, max_size=10),
       st.lists(DELIVERY_RECORD, min_size=1, max_size=10))
def test_a_bounded_log_digests_like_a_kept_one(host, reps, trace, delivery):
    # repeated up to 400 times, the feeds cross several seals
    for build, model in ((_host_log, host),
                         (lambda m, keep: _flat_log(SchedTrace, m, keep), trace),
                         (lambda m, keep: _flat_log(DeliveryLog, m, keep),
                          delivery)):
        kept, bounded = build(model * reps, True), build(model * reps, False)
        assert len(bounded) == len(kept) == len(model) * reps
        assert bounded.digest() == kept.digest()
        assert kept.digest() != build(model * reps + model[:1], True).digest()


@pytest.mark.parametrize("keep", [True, False])
def test_the_digest_covers_the_interned_values(keep):
    # both logs pack the same bytes (string indices 0 and 1)
    a = _flat_log(SchedTrace, [(1, "imu", "dispatch")], keep)
    b = _flat_log(SchedTrace, [(1, "nav", "dispatch")], keep)
    assert a._buf == b._buf and a.digest() != b.digest()


def _logs(sim):
    return [sim.sched.trace, sim.host.events] + \
        [sim.runtimes[n].handle.delivered_log for n in sorted(sim.runtimes)]


def _bench_sims(keep):
    with _recorded_sims(keep) as sims:
        scenario.run_bench("pipelined")
    return sims


RUNS = {"fleet:honest": lambda keep: [_fleet_sim("honest", keep=keep)[0]],
        "bulk:honest": lambda keep: [_bulk_sim("honest", keep)[0]],
        "bench:pipelined": _bench_sims}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_a_bounded_run_digests_like_the_kept_run(case):
    kept = [log for sim in RUNS[case](True) for log in _logs(sim)]
    bounded = [log for sim in RUNS[case](False) for log in _logs(sim)]
    assert [(len(log), log.digest()) for log in bounded] == \
        [(len(log), log.digest()) for log in kept]


def test_a_bounded_fleet_run_holds_under_one_seal_per_log():
    """The fleet:honest golden run to 60 ms with bounded logs: each keeps
    less than one seal of bytes, while the kept trace holds several."""
    sim, _outs = _fleet_sim("honest", keep=False)
    assert all(len(log._buf) < SEAL_BYTES for log in _logs(sim))
    assert len(sim.sched.trace) * 16 > 4 * SEAL_BYTES


def test_a_default_simulation_bounds_its_logs():
    # so the bounded runs above are the default runs
    sim = Simulation()
    sim.spawn_enclave("app", 100_000, 50_000, lambda rt: iter(()))
    assert all(log._sealed is not None for log in _logs(sim))
