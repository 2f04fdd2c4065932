"""Golden digests of whole runs: behaviour pinned tick for tick.

Each case hashes everything a run leaves behind that depends on when task
bodies and host slices ran: the scheduler trace, the host event log, the
device tx log, every runtime's delivered-completion log and arena
accounting, plus the values the run returned. One event moved by one
nanosecond changes a digest, so a change that claims to keep behaviour (a
cheaper wait, a faster scheduler) must leave every digest as it is.

Cases: the 16 scenario files, the four bench modes, fixed-time runs of
three periodic PosixShim enclaves (sensor read, compute, buffered log write)
against an honest, a slow-writing, a refusing and a never-waking host, and a
bulk stream of multi-page reads against an honest, a scribbling and a
corrupting host, and the three CLI corpora: game1 (seed 11, 200 games),
game2 (seed 12, 100 twin pairs) and the fuzzer (seed 5, 20,000 iterations).

Regenerate only when behaviour is meant to change:

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import pytest

from ringsim import scenario
from ringsim.promise import async_read
from ringsim.config import INIT_SHM_ENV, SimConfig
from ringsim.host import AdversaryPolicy, VFile
from ringsim.shim import PosixShim, sync_call
from ringsim.sim import Simulation

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
DIGESTS = HERE / "data" / "golden_digests.json"
BENCH_MODES = ("blocking", "pipelined", "blocking_alt", "pipelined_alt")


@contextmanager
def _recorded_sims(keep: bool = True):
    """Collect every Simulation the scenario runners build, each keeping its
    records or bounded as `keep` says."""
    made: list[Simulation] = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "keep_records": keep})
            made.append(self)

    saved = scenario.Simulation
    scenario.Simulation = Recorded
    try:
        yield made
    finally:
        scenario.Simulation = saved


def _digest(result, sims) -> str:
    h = hashlib.sha256(repr(result).encode())
    for sim in sims:
        for part in (sim.sched.trace, sim.host.events, sim.device.tx_log):
            h.update(repr(part).encode())
        for name in sorted(sim.runtimes):
            rt = sim.runtimes[name]
            h.update(repr((name, rt.handle.delivered_log,
                           rt.arena_pool.accounting())).encode())
    return h.hexdigest()


def _scenario_case(path: Path) -> str:
    text = path.read_text()
    kind = scenario.parse_scenario(text)["scenario"].get("kind", "game1")
    run = scenario.run_game2 if kind == "game2" else scenario.run_game1
    with _recorded_sims() as sims:
        row = run(text)
    return _digest(row, sims)


def _bench_case(mode: str) -> str:
    with _recorded_sims() as sims:
        row = scenario.run_bench(mode)
    return _digest(row, sims)


# the CLI corpora, as CI runs them: name -> (runner, seed, size)
CORPORA = {
    "game1": (lambda seed, n: [scenario.run_game1(t) for t in
                               scenario.generate_game1(seed, n)], 11, 200),
    "game2": (lambda seed, n: [scenario.run_game2(t) for t in
                               scenario.generate_game2(seed, n)], 12, 100),
    "fuzz": (scenario.run_fuzz, 5, 20_000),
}


def _corpus_case(name: str) -> str:
    run, seed, size = CORPORA[name]
    with _recorded_sims() as sims:
        rows = run(seed, size)
    return _digest(rows, sims)


# --- periodic shim enclaves over a fixed simulated time ---

SENSOR = "/sensors/bus.bin"
# name, period, budget, priority, read length, record length, compute,
# flush every, shim timeout
FLEET = (
    ("imu", 100_000, 10_000, 9, 24, 40, 1_500, 12, None),
    ("nav", 250_000, 25_000, 6, 64, 200, 5_000, 6, 300_000),
    ("tlm", 500_000, 40_000, 3, 96, 700, 8_000, 4, 1_500_000),
)
FLEET_RUN_NS = 60_000_000
FLEET_HOSTS = {
    "honest": AdversaryPolicy(),
    "slow_write": AdversaryPolicy(per_op={"write": ("delay", 2_500_000)}),
    "deny_read": AdversaryPolicy(per_op={"read": ("deny",)}),
    "never_wake": AdversaryPolicy(never_wake=True),
}


def _fleet_body(rt, out, read_len, rec_len, compute, flush_every, timeout):
    shim = PosixShim(rt, timeout_ns=timeout)
    sfd = yield from shim.open(SENSOR)
    out.append(("sensor", rt.now(), sfd))
    fd = yield from shim.open(f"/logs/{rt.name}.log", create=True)
    out.append(("log", rt.now(), fd))
    i = 0
    while sfd >= 0 and fd >= 0:
        got = yield from shim.read(sfd, read_len, (i * 37) % 2048)
        yield ("compute", compute)
        n = yield from shim.write(fd, bytes([i & 0xFF]) * rec_len)
        out.append((i, rt.now(), got if isinstance(got, int) else len(got), n))
        i += 1
        if i % flush_every == 0:
            out.append(("flush", rt.now(), (yield from shim.flush(fd))))
    while True:
        yield ("yield",)


def _fleet_sim(host: str, monitored: bool = False, keep: bool = True,
               step: int = 10_000_000):
    """-> (Simulation, outs) after the fixed-time run against `host`, driven
    by run_until calls `step` apart; with `monitored`, the access monitor is
    armed from set-up on; `keep` is the Simulation's keep_records."""
    # 512-byte log blocks and a small staging cap make the big tlm records
    # wait for the drain
    cfg = SimConfig(write_staging_cap=2048)
    sim = Simulation(cfg=cfg, seed=5, manifest="/logs/\n/sensors/\n",
                     policy=FLEET_HOSTS[host], keep_records=keep)
    if monitored:
        sim.authority.monitor.arm()
    sim.vfs.files[SENSOR] = VFile(bytearray(range(256)) * 16, 512, False)
    for name, *_ in FLEET:
        sim.vfs.files[f"/logs/{name}.log"] = VFile(bytearray(), 512, False)
    sim.add_host_task(period=100_000, budget=40_000)
    outs = {}
    for name, period, budget, prio, *shape in FLEET:
        outs[name] = out = []
        sim.spawn_enclave(
            name, period, budget,
            lambda rt, out=out, shape=shape: _fleet_body(rt, out, *shape),
            env={INIT_SHM_ENV: "65536"}, priority=prio)
    for t in range(step, FLEET_RUN_NS + 1, step):
        sim.run_until(t)  # several calls: blocks must survive re-entry
    sim.run_until(FLEET_RUN_NS)
    return sim, outs


def _fleet_case(host: str, step: int = 10_000_000) -> str:
    sim, outs = _fleet_sim(host, step=step)
    return _digest(outs, [sim])


@pytest.mark.parametrize("host", sorted(FLEET_HOSTS))
def test_fleet_run_does_not_depend_on_how_run_until_is_sliced(host):
    once = _fleet_case(host, FLEET_RUN_NS)
    for step in (1_000_000, 37_000, 5_000):
        assert _fleet_case(host, step) == once, step


def test_fleet_honest_shared_access_count():
    # every monitored shared-memory access of the honest fleet run, set-up
    # included (1,677 loop iterations). The count is deterministic, so a change
    # that adds index loads or slot copies shows here exactly. It was 30,897
    # while each ring operation loaded the other side's index afresh,
    # 24,904 while poll_wait reloaded the CQ tail (960 loads) that the pump
    # of the same instant had just read, 23,944 (801 iterations) while
    # open waited for its statx in a second round trip, and 24,137 (807
    # iterations) while a wait burned its budget tick by tick, and 22,146
    # while each enclave's launch grant left a second grant beside it, and
    # 22,143 (833 iterations) while a block ended only at the blocked
    # task's own release, not at the next release of any task.
    sim, outs = _fleet_sim("honest", monitored=True)
    assert sum(isinstance(r[0], int) for out in outs.values()
               for r in out) == 1_677
    assert sim.authority.monitor.access_count == 43_974


# --- a bulk stream: every read payload spans many shared pages ---

BULK_PATH = "/data/bulk.bin"
BULK_CHUNK = 64 * 1024
BULK_DEPTH = 16
BULK_FILE = 1 << 20
BULK_RUN_NS = 3_000_000
BULK_HOSTS = {
    "honest": AdversaryPolicy(),
    "scribble": AdversaryPolicy(scribble_rate=0.2),
    "corrupt": AdversaryPolicy(per_op={"read": ("corrupt",)}),
}


def _bulk_body(rt, out, got):
    fd = yield from PosixShim(rt).open(BULK_PATH)
    out.append(("open", rt.now(), fd))
    chunks = BULK_FILE // BULK_CHUNK
    pending = deque()
    issued = 0
    for i in range(2 * chunks):  # the whole file, twice
        while fd >= 0 and issued < 2 * chunks and len(pending) < BULK_DEPTH:
            pending.append(async_read(rt, fd, BULK_CHUNK,
                                      (issued % chunks) * BULK_CHUNK))
            issued += 1
        if not pending:
            break
        r = yield from sync_call(rt, pending.popleft())
        if not isinstance(r, int):
            got.append(r)
            r = len(r)
        out.append((i, rt.now(), r))
    while True:
        yield ("yield",)


def _bulk_sim(host: str, keep: bool = True):
    """-> (Simulation, outs, delivered payloads) after the bulk run."""
    # a payload's delivery time grows with its size, so host slices (and
    # scribbles) fall between deliveries
    sim = Simulation(cfg=SimConfig(service_per_byte=1), seed=3,
                     manifest="/data/\n", policy=BULK_HOSTS[host],
                     keep_records=keep)
    data = random.Random(BULK_FILE).randbytes(BULK_FILE)
    sim.vfs.files[BULK_PATH] = VFile(bytearray(data), 4096, False)
    sim.add_host_task(period=100_000, budget=50_000)
    out, got = [], []
    sim.spawn_enclave("reader", 100_000, 50_000,
                      lambda rt: _bulk_body(rt, out, got),
                      env={INIT_SHM_ENV: str(BULK_FILE)}, priority=5)
    sim.run_until(BULK_RUN_NS)
    return sim, out, got


def _bulk_case(host: str) -> str:
    sim, out, got = _bulk_sim(host)
    delivered = hashlib.sha256(b"".join(got)).hexdigest()
    return _digest((out, delivered), [sim])


def cases() -> dict:
    out = {f"scenario:{p.stem}": (_scenario_case, p)
           for p in sorted(SCENARIOS.glob("*.cfg"))}
    out.update({f"bench:{m}": (_bench_case, m) for m in BENCH_MODES})
    out.update({f"fleet:{h}": (_fleet_case, h) for h in FLEET_HOSTS})
    out.update({f"bulk:{h}": (_bulk_case, h) for h in BULK_HOSTS})
    out.update({f"corpus:{c}": (_corpus_case, c) for c in CORPORA})
    return out


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, golden):
    fn, arg = CASES[case]
    assert fn(arg) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {name: fn(arg) for name, (fn, arg) in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
