"""The three closed-loop workloads.

Each workload has three steps:

- `make_inputs(seed)`: the benchmark's own inputs, made from the seed. Not
  part of set-up time.
- `build(rs, inputs)`: what a user does before the first unit (building the
  simulation or the game corpus). Timed as set-up, together with importing
  `ringsim`.
- `run(rs, state, inputs, seconds)`: whole rounds of units until `seconds`
  of host time have passed. Every output is checked against the inputs or
  against a property the system must have.

`rs` is the namespace of freshly imported `ringsim` modules (see run.py);
the workloads reach the program only through it, so that a traced run sees
every call.
"""
from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

# A simulated run that finishes no unit for this long is stuck; it fails
# instead of hanging.
STUCK_S = 60.0
STEP_NS = 2_000_000  # simulated time per run_until call of the driving loop


class Meter:
    """Host-time gaps between consecutive finished units."""

    def __init__(self):
        self.start = self.last = perf_counter()
        self.gaps: list[float] = []

    def unit(self) -> None:
        now = perf_counter()
        self.gaps.append(now - self.last)
        self.last = now

    def skip(self) -> None:
        """Leave the benchmark's own checking out of the next gap."""
        self.last = perf_counter()

    @property
    def window_s(self) -> float:
        return self.last - self.start


@dataclass
class RunResult:
    """Counts and checks of one run.

    The prefix is a fixed amount of work that every run completes, however
    long it takes: the first round end (of any task) once `prefix_units`
    units are done. Simulated throughput and peak memory are taken there, so
    they do not depend on how fast the host ran.
    """
    meter: Meter
    prefix_units: int
    attempted: int = 0
    failed: int = 0
    checked: int = 0        # payload bytes checked so far
    problems: list[str] = field(default_factory=list)
    prefix_done: bool = False
    sim_bytes: int = 0      # checked payload bytes in the prefix
    sim_ns: int = 0         # simulated time of the prefix
    rss_mb: float = 0.0     # peak resident memory at the end of the prefix
    totals: dict = field(default_factory=lambda: {
        "host_ops": 0, "host_events": 0, "trace_entries": 0})

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)

    def round_end(self, sim_ns: int) -> None:
        """Called at every round end with the simulated time so far."""
        if not self.prefix_done and self.attempted >= self.prefix_units:
            self.prefix_done = True
            self.sim_bytes = self.checked
            self.sim_ns = sim_ns
            self.rss_mb = getrusage(RUSAGE_SELF).ru_maxrss / 1024


class _Control:
    """Shared state between the driving loop and the task bodies."""

    def __init__(self, tasks: int):
        self.result: RunResult | None = None
        self.stop = False
        self.parked = 0
        self.tasks = tasks
        self.running = True

    def park(self):
        """End a task at a round boundary; the last one ends the run."""
        self.parked += 1
        self.running = self.parked < self.tasks
        while True:
            yield ("yield",)


def _arena_balanced(rt) -> bool:
    received, in_bins, live = rt.arena_pool.accounting()
    return received == in_bins + live


def _drive(sim, ctl, seconds: float) -> None:
    """Run the simulation until every task has stopped at a round boundary.

    Tasks look at `ctl.stop` only between rounds, so every run is made of
    whole rounds.
    """
    deadline = ctl.result.meter.start + seconds
    while ctl.running:
        sim.run_until(sim.sched.now + STEP_NS)
        now = perf_counter()
        if now >= deadline and ctl.result.prefix_done:
            ctl.stop = True
        if now - ctl.result.meter.last >= STUCK_S:
            raise RuntimeError(f"no unit finished in {STUCK_S:g} s")


def _sim_totals(result: RunResult, sim) -> None:
    result.totals["host_ops"] += sim.host.serviced
    result.totals["host_events"] += len(sim.host.events)
    result.totals["trace_entries"] += len(sim.sched.trace)


def _run_simulation(sim, rts, ctl, prefix_units: int,
                    seconds: float) -> RunResult:
    ctl.result = res = RunResult(Meter(), prefix_units)
    _drive(sim, ctl, seconds)
    for rt in rts:
        res.check(_arena_balanced(rt),
                  f"{rt.name}: arena pool received != in_bins + live")
    _sim_totals(res, sim)
    return res


# --- bulk_read: one enclave streams a large file at a fixed queue depth ---

class BulkRead:
    """64 KiB `async_read`s kept QUEUE_DEPTH deep over a seeded file.

    The file is 128 chunks of seeded bytes and of a seeded length, so its last
    chunk is short. One round reads the whole file once; one unit is one
    chunk delivered and checked against the generated bytes.
    """
    PATH = "/data/stream.bin"
    CHUNK = 64 * 1024
    FILE_BYTES = ((8 << 20) - CHUNK + 1, 8 << 20)  # always 128 chunks
    QUEUE_DEPTH = 16
    PREFIX_UNITS = 40_000
    # spans this workload reaches: all but timeouts, buffered writes and
    # the game runner
    REACHED = {"shm.window_read", "shm.window_write", "shm.access",
               "ring.produce", "ring.peek", "ring.consume", "ring.occupancy",
               "enclave.prep_and_submit", "enclave.peek_cqe",
               "enclave.pump_parked", "arena.request", "arena.free",
               "promise.create", "promise.settle", "promise.run_deferred",
               "sched.run_until", "host.on_slice", "sim.pump",
               "sim.submit_async", "sim.build", "shim.sync_call"}

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"seed": seed,
                "data": rng.randbytes(rng.randrange(*self.FILE_BYTES))}

    def build(self, rs, inputs: dict):
        cfg = rs.config.SimConfig(service_per_byte=1)
        sim = rs.sim.Simulation(cfg=cfg, seed=inputs["seed"],
                                manifest="/data/\n")
        sim.vfs.files[self.PATH] = rs.host.VFile(bytearray(inputs["data"]),
                                                 4096, False)
        sim.add_host_task(period=100_000, budget=50_000)
        ctl = _Control(tasks=1)
        env = {rs.config.INIT_SHM_ENV: str(self.QUEUE_DEPTH * self.CHUNK)}
        rt = sim.spawn_enclave("reader", 100_000, 50_000,
                               lambda rt: self._body(rs, rt, ctl, inputs),
                               env=env, priority=5)
        return sim, rt, ctl

    def _body(self, rs, rt, ctl, inputs):
        data = inputs["data"]
        chunks = -(-len(data) // self.CHUNK)
        res = ctl.result
        fd = yield from rs.shim.PosixShim(rt).open(self.PATH)
        res.check(fd >= 0, f"open returned {fd}")
        while fd >= 0 and not ctl.stop:
            pending = deque()
            issued = 0
            for i in range(chunks):
                while issued < chunks and len(pending) < self.QUEUE_DEPTH:
                    pending.append(rs.promise.async_read(
                        rt, fd, self.CHUNK, issued * self.CHUNK))
                    issued += 1
                got = yield from rs.shim.sync_call(rt, pending.popleft())
                res.attempted += 1
                if isinstance(got, int):
                    res.failed += 1
                else:
                    want = data[i * self.CHUNK:(i + 1) * self.CHUNK]
                    res.check(got == want, f"chunk {i} differs from the file")
                    res.checked += len(got)
                res.meter.unit()
            res.round_end(rt.now())
        yield from ctl.park()

    def run(self, rs, state, inputs, seconds: float) -> RunResult:
        sim, rt, ctl = state
        return _run_simulation(sim, [rt], ctl, self.PREFIX_UNITS, seconds)


# --- fleet_log: control loops of several enclaves sharing one host ---

@dataclass(frozen=True)
class _Task:
    name: str
    period: int
    budget: int
    priority: int
    sensor_every: int     # a sensor read every this many iterations
    read_len: int
    record_len: tuple     # (min, max) log record size
    compute: int          # simulated ns of work per iteration
    iterations: int       # iterations per round (one log file)


class FleetLog:
    """UAV-style control loops: sensor reads, compute, buffered log writes.

    One round of a task writes one log file (open with truncate, one record
    per iteration, close); the file must equal the concatenation of the
    records. One unit is one loop iteration of any task.
    """
    TASKS = (
        _Task("imu", 100_000, 8_000, 9, 2, 24, (16, 48), 1_500, 40),
        _Task("gyro", 125_000, 10_000, 8, 2, 24, (16, 64), 2_000, 32),
        _Task("gps", 200_000, 16_000, 7, 4, 48, (32, 96), 3_000, 20),
        _Task("nav", 250_000, 20_000, 6, 3, 64, (64, 256), 5_000, 16),
        _Task("baro", 400_000, 32_000, 4, 5, 16, (24, 80), 4_000, 10),
        _Task("tlm", 500_000, 40_000, 3, 5, 96, (100, 400), 8_000, 8),
    )
    SENSOR_PATH = "/sensors/bus.bin"
    SENSOR_BYTES = 64 * 1024
    PLANS = 4              # distinct round plans per task, used in turn
    PREFIX_UNITS = 50_000
    REACHED = BulkRead.REACHED | {"shim.write", "shim.flush"}

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        sensor = rng.randbytes(self.SENSOR_BYTES)
        plans = {}
        for task in self.TASKS:
            plans[task.name] = []
            for _ in range(self.PLANS):
                steps = []
                for i in range(task.iterations):
                    off = None
                    if i % task.sensor_every == 0:
                        off = rng.randrange(self.SENSOR_BYTES - task.read_len)
                    record = rng.randbytes(rng.randint(*task.record_len))
                    steps.append((off, record))
                plans[task.name].append(steps)
        return {"seed": seed, "sensor": sensor, "plans": plans}

    def build(self, rs, inputs: dict):
        sim = rs.sim.Simulation(cfg=rs.config.SimConfig(), seed=inputs["seed"],
                                manifest="/logs/\n/sensors/\n")
        sim.vfs.files[self.SENSOR_PATH] = rs.host.VFile(
            bytearray(inputs["sensor"]), 512, False)
        sim.add_host_task(period=100_000, budget=40_000)
        ctl = _Control(tasks=len(self.TASKS))
        env = {rs.config.INIT_SHM_ENV: "65536"}
        rts = []
        for task in self.TASKS:
            rts.append(sim.spawn_enclave(
                task.name, task.period, task.budget,
                lambda rt, task=task: self._body(rs, sim, rt, ctl, inputs,
                                                 task),
                env=env, priority=task.priority))
        return sim, rts, ctl

    def _body(self, rs, sim, rt, ctl, inputs, task: _Task):
        sensor = inputs["sensor"]
        plans = inputs["plans"][task.name]
        res = ctl.result
        shim = rs.shim.PosixShim(rt)
        path = f"/logs/{task.name}.log"
        sfd = yield from shim.open(self.SENSOR_PATH)
        res.check(sfd >= 0, f"{task.name}: sensor open returned {sfd}")
        rounds = 0
        while sfd >= 0 and not ctl.stop:
            fd = yield from shim.open(path, create=True, trunc=True)
            res.check(fd >= 0, f"{task.name}: log open returned {fd}")
            if fd < 0:
                break
            written = []
            for off, record in plans[rounds % self.PLANS]:
                res.attempted += 1
                ok = True
                if off is not None:
                    got = yield from shim.read(sfd, task.read_len, off)
                    if isinstance(got, int):
                        ok = False
                    else:
                        res.check(got == sensor[off:off + task.read_len],
                                  f"{task.name}: sensor bytes at {off} differ")
                        res.checked += len(got)
                yield ("compute", task.compute)
                n = yield from shim.write(fd, record)
                if n == len(record):
                    written.append(record)
                else:
                    ok = False
                res.failed += not ok
                res.meter.unit()
            rc = yield from shim.close(fd)
            res.check(rc == 0, f"{task.name}: close returned {rc}")
            log = bytes(sim.vfs.files[path].data)
            res.check(log == b"".join(written),
                      f"{task.name}: log file is not the records written")
            res.checked += len(log)
            rounds += 1
            res.round_end(rt.now())
        yield from ctl.park()

    def run(self, rs, state, inputs, seconds: float) -> RunResult:
        sim, rts, ctl = state
        return _run_simulation(sim, rts, ctl, self.PREFIX_UNITS, seconds)


# --- campaign: the availability and integrity games, one at a time ---

FALLBACK = b"HOST-FAULT"


def _provisioned(path: str, size: int) -> bytes:
    """Content of a manifest-seeded file: sha256(path) repeated."""
    block = hashlib.sha256(path.encode()).digest()
    return (block * (size // len(block) + 1))[:size]


def _sections(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1], [])
        elif line and current is not None:
            current.append(line)
    return out


def _expectation(kind: str, text: str) -> dict:
    """What a correct game must show, read from the scenario text alone."""
    sec = _sections(text)
    game = dict(l.split(" = ", 1) for l in sec["game"])
    adv = dict(l.split(" = ", 1) for l in sec["adversary"])
    path = game["message"]
    size = next(int(l.split()[1]) for l in sec["vfs"] if l.split()[0] == path)
    silent_read = (adv.get("default") == "deny" or adv.get("read") == "deny"
                   or adv.get("never_wake") == "1"
                   or adv.get("kill_proxy_at") == "0")
    if kind == "game1" and adv == {"default": "honest"}:
        allowed = {"message"}
    elif kind == "game1" and silent_read:
        allowed = {"fallback"}
    else:
        allowed = {"message", "fallback"}
    return {"kind": kind, "message": _provisioned(path, size),
            "allowed": allowed}


class Campaign:
    """A mixed corpus of game1 games and game2 pairs, one game at a time.

    The corpus cycles through every adversary family (16 for game1, 10 for
    game2); the seed picks message sizes, arena grants, host seeds and the
    order of play. One round plays the whole corpus once; one unit is one
    game1 game or one game2 hostile+twin pair.
    """
    GAME1 = 1280           # 80 of each game1 family
    GAME2 = 800            # 80 of each game2 family
    # generate_game1/2 seeds: base + seed, away from every seed the test
    # suite uses (20260815, 813, 99, 31, 4)
    GAME1_BASE = 7_000_000
    GAME2_BASE = 8_000_000
    PREFIX_UNITS = 1       # the first round; every round replays it exactly
    REACHED = BulkRead.REACHED | {"enclave.retire_tag", "scenario.game"}

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def build(self, rs, inputs: dict):
        seed = inputs["seed"]
        corpus = [("game1", t) for t in
                  rs.scenario.generate_game1(self.GAME1_BASE + seed, self.GAME1)]
        corpus += [("game2", t) for t in
                   rs.scenario.generate_game2(self.GAME2_BASE + seed, self.GAME2)]
        random.Random(seed).shuffle(corpus)
        return corpus

    def run(self, rs, corpus, inputs, seconds: float) -> RunResult:
        expect = [_expectation(kind, text) for kind, text in corpus]
        played: list = []   # (Simulation, victim runtime) of the current game
        spawn = rs.sim.Simulation.spawn_enclave

        def spawn_recorded(sim, *args, **kwargs):
            rt = spawn(sim, *args, **kwargs)
            played.append((sim, rt))
            return rt

        rs.sim.Simulation.spawn_enclave = spawn_recorded
        play = {"game1": rs.scenario.run_game1, "game2": rs.scenario.run_game2}
        res = RunResult(Meter(), self.PREFIX_UNITS)
        deadline = res.meter.start + seconds
        first_rows = []
        sim_ns = 0
        try:
            while not res.prefix_done or perf_counter() < deadline:
                for i, (kind, text) in enumerate(corpus):
                    row = play[kind](text)
                    res.attempted += 1
                    res.meter.unit()
                    sim_ns += self._check(res, row, expect[i], played)
                    if not res.prefix_done:
                        first_rows.append(row)
                    else:
                        res.check(row == first_rows[i],
                                  f"{row['name']}: replay differs from round 1")
                    played.clear()
                    res.meter.skip()
                res.round_end(sim_ns)
        finally:
            rs.sim.Simulation.spawn_enclave = spawn
        return res

    @staticmethod
    def _check(res: RunResult, row: dict, exp: dict, played: list):
        """Check one game's device output; -> its simulated ns."""
        name = row["name"]
        kinds = []
        sim_ns = 0
        for sim, rt in played:
            txs = [p for _, sender, p in sim.device.tx_log if sender == rt.name]
            kind = "none" if not txs else \
                "message" if txs == [exp["message"]] else \
                "fallback" if txs == [FALLBACK] else "forged"
            kinds.append(kind)
            if kind == "message":
                res.checked += len(exp["message"])
            sim_ns += sim.sched.now
            res.check(_arena_balanced(rt),
                      f"{name}: arena pool received != in_bins + live")
            _sim_totals(res, sim)
        if exp["kind"] == "game1":
            res.check(len(kinds) == 1 and kinds[0] in exp["allowed"]
                      and row["tx"] == kinds[0],
                      f"{name}: tx {kinds} (row {row['tx']}) not in "
                      f"{sorted(exp['allowed'])}")
        else:
            res.check(len(kinds) == 2 and kinds[0] != "forged"
                      and kinds[1] == "message" and row["tx"] == kinds[0]
                      and row["twin_tx"] == "message",
                      f"{name}: hostile {kinds[:1]} twin {kinds[1:]} "
                      f"(row {row['tx']}/{row['twin_tx']})")
        return sim_ns


WORKLOADS = {"campaign": Campaign(), "bulk_read": BulkRead(),
             "fleet_log": FleetLog()}
