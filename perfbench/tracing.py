"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of `ringsim` with thin wrappers that
open a span around each call, so the program itself is never edited. A
span's self time is its duration minus the time covered by wrapped child
spans. Generator functions (`sync_call`, `PosixShim.write`, ...) are timed
per resume: creating the generator does no work, every `send` does.

Spans and counters are kept in memory and turned into per-unit metrics
when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# span name -> [(module, class or None, attribute)]. Every module-level
# function is also rebound in every `ringsim` module that imported it by name.
SPANS = {
    "shm.window_read": [("shm", "MemoryWindow", "read")],
    "shm.window_write": [("shm", "MemoryWindow", "write")],
    "shm.access": [("shm", "AddressSpace", "access")],
    "ring.produce": [("ring", "Ring", "produce")],
    "ring.peek": [("ring", "Ring", "peek")],
    "ring.consume": [("ring", "Ring", "consume_one"),
                     ("ring", "Ring", "consume_batch")],
    "ring.occupancy": [("ring", "Ring", "producer_occupancy"),
                       ("ring", "Ring", "consumer_occupancy")],
    "enclave.prep_and_submit": [("enclave", "RingHandle", "prep_and_submit")],
    "enclave.peek_cqe": [("enclave", "RingHandle", "peek_cqe")],
    "enclave.pump_parked": [("enclave", "RingHandle", "pump_parked")],
    "enclave.retire_tag": [("enclave", "RingHandle", "retire_tag")],
    "arena.request": [("arena", "ArenaPool", "request_arena")],
    "arena.free": [("arena", "ArenaPool", "free_arena")],
    "promise.create": [("promise", "PromisePool", "create")],
    "promise.settle": [("promise", "PromisePool", "fulfill"),
                       ("promise", "PromisePool", "fail")],
    "promise.run_deferred": [("promise", "PromisePool", "run_deferred")],
    "sched.run_until": [("sched", "BudgetScheduler", "run_until")],
    "host.on_slice": [("host", "HostOs", "on_slice")],
    "sim.pump": [("sim", "EnclaveRuntime", "pump")],
    "sim.submit_async": [("sim", "EnclaveRuntime", "submit_async")],
    "sim.build": [("sim", "Simulation", "__init__"),
                  ("sim", "Simulation", "add_host_task"),
                  ("sim", "Simulation", "spawn_enclave")],
    "shim.sync_call": [("shim", None, "sync_call")],
    "shim.write": [("shim", "PosixShim", "write")],
    "shim.flush": [("shim", "PosixShim", "flush")],
    "scenario.game": [("scenario", None, "run_game1"),
                      ("scenario", None, "run_game2")],
}

# Task bodies handed to BudgetScheduler.admit are wrapped too, so that their
# own code is not charged to the scheduler; their resumes are sched.resumes.
BODY = "sched.body"


def _observe_count(key, test):
    def observe(tracer, args, result):
        if test(args, result):
            tracer.counts[key] += 1
    return observe


def _observe_add(key, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return observe


def _observe_batch(tracer, args, result):
    tracer.counts["ring.consume_batch.calls"] += 1
    tracer.counts["ring.consume_batch.entries"] += len(result)


# extra counters taken from a call's arguments or result
OBSERVERS = {
    ("shm", "MemoryWindow", "read"):
        _observe_add("shm.window_read.bytes", lambda a, r: a[2]),
    ("shm", "MemoryWindow", "write"):
        _observe_add("shm.window_write.bytes", lambda a, r: len(a[2])),
    ("ring", "Ring", "consume_batch"):
        _observe_batch,
    ("enclave", "RingHandle", "peek_cqe"):
        _observe_count("enclave.peek_cqe.empty", lambda a, r: r is None),
    ("arena", "ArenaPool", "request_arena"):
        _observe_count("arena.request.parked",
                       lambda a, r: r.state != "fulfilled"),
    ("host", "HostOs", "on_slice"):
        _observe_count("host.on_slice.idle", lambda a, r: r == 0),
    ("sim", "EnclaveRuntime", "pump"):
        _observe_count("sim.pump.empty", lambda a, r: r == 0),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.resumes: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = perf_counter() - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def timed_resumes(self, name: str, gen):
        """Drive `gen`, opening one span per resume."""
        value = None
        while True:
            self.resumes[name] += 1
            self._enter(name)
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            value = yield item

    def wrap(self, name: str, fn, observe=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer.timed_resumes(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if observe is not None:
                    observe(tracer, args, result)
                return result
        return wrapper

    def install(self, rs) -> None:
        """Wrap every function in SPANS wherever `ringsim` binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ringsim" or n.startswith("ringsim.")]
        for name, targets in SPANS.items():
            for mod_name, cls_name, attr in targets:
                owner = getattr(rs, mod_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original,
                                    OBSERVERS.get((mod_name, cls_name, attr)))
                if cls_name is not None:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        sched_cls = rs.sched.BudgetScheduler
        admit = sched_cls.admit
        tracer = self

        @functools.wraps(admit)
        def admit_traced(sched, name, kind, period, budget, body, *args,
                         **kwargs):
            return admit(sched, name, kind, period, budget,
                         tracer.timed_resumes(BODY, body), *args, **kwargs)

        sched_cls.admit = admit_traced

    def uncovered(self, expected: set[str]) -> list[str]:
        """Spans the workload should reach but that recorded no call."""
        return sorted(n for n in expected if self.calls[n] == 0)

    def per_unit(self, units: int, totals: dict) -> dict[str, float]:
        """Per-layer metrics: per unit of work, unless a ratio or per call."""
        out: dict[str, float] = {}

        def span(name, *fields):
            for field in fields:
                if field == "calls":
                    out[f"{name}.calls"] = self.calls[name] / units
                else:
                    out[f"{name}.self_us"] = self.self_s[name] * 1e6 / units

        def ratio(metric, part, whole):
            out[metric] = part / whole if whole else 0.0

        span("shm.window_read", "calls", "self_us")
        out["shm.window_read.bytes"] = self.counts["shm.window_read.bytes"] / units
        span("shm.window_write", "calls", "self_us")
        out["shm.window_write.bytes"] = self.counts["shm.window_write.bytes"] / units
        span("shm.access", "calls", "self_us")
        for name in ("ring.produce", "ring.peek", "ring.consume"):
            span(name, "calls", "self_us")
        ratio("ring.consume_batch.entries_per_call",
              self.counts["ring.consume_batch.entries"],
              self.counts["ring.consume_batch.calls"])
        span("ring.occupancy", "calls", "self_us")
        span("enclave.prep_and_submit", "calls", "self_us")
        span("enclave.peek_cqe", "calls", "self_us")
        ratio("enclave.peek_cqe.empty_ratio", self.counts["enclave.peek_cqe.empty"],
              self.calls["enclave.peek_cqe"])
        span("enclave.pump_parked", "calls", "self_us")
        span("enclave.retire_tag", "calls", "self_us")
        span("arena.request", "calls", "self_us")
        ratio("arena.request.parked_ratio", self.counts["arena.request.parked"],
              self.calls["arena.request"])
        span("arena.free", "calls", "self_us")
        for name in ("promise.create", "promise.settle", "promise.run_deferred"):
            span(name, "calls", "self_us")
        span("sched.run_until", "self_us")
        out["sched.resumes"] = self.resumes[BODY] / units
        out["sched.trace_entries"] = totals["trace_entries"] / units
        span("host.on_slice", "calls", "self_us")
        ratio("host.on_slice.idle_ratio", self.counts["host.on_slice.idle"],
              self.calls["host.on_slice"])
        out["host.ops"] = totals["host_ops"] / units
        out["host.events"] = totals["host_events"] / units
        span("sim.pump", "calls", "self_us")
        ratio("sim.pump.empty_ratio", self.counts["sim.pump.empty"],
              self.calls["sim.pump"])
        span("sim.submit_async", "calls", "self_us")
        span("sim.build", "self_us")
        span("shim.sync_call", "calls", "self_us")
        ratio("shim.sync_call.resumes_per_call", self.resumes["shim.sync_call"],
              self.calls["shim.sync_call"])
        span("shim.write", "calls", "self_us")
        ratio("shim.flush.resumes_per_call", self.resumes["shim.flush"],
              self.calls["shim.flush"])
        span("scenario.game", "self_us")
        return out
